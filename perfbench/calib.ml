(* The host's speed at the moment of a measurement, from a fixed
   reference workload that shares no code with the program under test:
   ten sequential passes over a 16 MiB buffer. The parent process runs
   it just before and just after each repetition, so it touches no
   child's heap, memory or timings.

   The host this benchmark was sized on is shared, and its speed drifts
   by up to 2.4x in phases of seconds to minutes (perfbench/README.md).
   A time measured next to the reference is reported at the reference's
   nominal speed: [scale ~ref_s t = t *. nominal_s /. ref_s]. The
   reference is the same code on both sides of any comparison, so a
   change to the program moves scaled times by the same factor as raw
   ones. In a slow phase timed side by side, the workloads' set-up and
   timed calls slowed by 1.8-2.5x, these passes by 2.2-2.8x, an integer
   loop by only 1.3-1.5x and random reads by about 4x. *)

let words = 1 lsl 21

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf =
  lazy
    (let (b : buffer) = Bigarray.(Array1.create int c_layout words) in
     for i = 0 to words - 1 do
       b.{i} <- i
     done;
     b)

let passes (b : buffer) =
  let acc = ref 0 in
  for _ = 1 to 10 do
    for i = 0 to words - 1 do
      acc := !acc + b.{i}
    done
  done;
  !acc

(* Seconds the passes take on the host this benchmark was sized on, in
   a quiet phase. *)
let nominal_s = 0.0194

(* One run of the reference, in seconds. *)
let measure () =
  let b = Lazy.force buf in
  let t0 = Trace.now () in
  ignore (Sys.opaque_identity (passes b));
  float_of_int (Trace.now () - t0) /. 1e9

let scale ~ref_s t = t *. nominal_s /. ref_s
