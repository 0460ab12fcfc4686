type t = Splitmix64.t

let create ~seed = Splitmix64.of_int seed

let of_state = Fun.id

let copy = Splitmix64.copy

let split = Splitmix64.split

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> Splitmix64.split t)

(* Counter-based (stateless) keyed streams. A key deterministically names a
   point in seed space; [subkey] derives children by index through the
   SplitMix64 finalizer, so a draw keyed by (seed, i, j, ...) is a pure
   function of the path — independent of how many draws happened elsewhere.
   This is what lets the flat executor's frontier skip work without
   perturbing any other consumer's stream. *)

type key = int64

let golden_gamma = 0x9E3779B97F4A7C15L

let key ~seed = Splitmix64.mix64 (Int64.of_int seed)

let key_of t = Splitmix64.next_int64 t

let subkey k i =
  Splitmix64.mix64
    (Int64.logxor k (Int64.mul (Int64.of_int (i + 1)) golden_gamma))

let of_key k = Splitmix64.create k

let key_unit k = Splitmix64.bits53 (of_key k)

let key_bernoulli k p =
  if p <= 0.0 then false else if p >= 1.0 then true else key_unit k < p

let float t bound =
  if bound < 0.0 then invalid_arg "Rng.float: negative bound";
  Splitmix64.bits53 t *. bound

let unit t = Splitmix64.bits53 t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the top bits keeps the distribution exactly
     uniform for any bound. *)
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let bits = Int64.to_int (Splitmix64.next_int64 t) land max_int in
    let v = bits land mask in
    if v < bound then v else draw ()
  in
  draw ()

let key_int k bound = int (of_key k) bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let float_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_in_range: empty range";
  lo +. float t (hi -. lo)

let bool t = Int64.logand (Splitmix64.next_int64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else unit t < p

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log1p (-.unit t) /. rate

let gaussian t =
  (* Box-Muller; one value per call (simplicity over caching the pair). *)
  let u1 = 1.0 -. unit t and u2 = unit t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: negative mean";
  if mean = 0.0 then 0
  else if mean < 30.0 then begin
    (* Knuth's product method for small means. *)
    let limit = exp (-.mean) in
    let rec loop k prod =
      let prod = prod *. unit t in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.0
  end
  else begin
    (* Split the mean recursively: Poisson(a+b) = Poisson(a) + Poisson(b).
       Keeps the product method numerically safe for large means. *)
    let half = mean /. 2.0 in
    let rec draw m = if m < 30.0 then knuth m else draw (m /. 2.0) + draw (m /. 2.0)
    and knuth m =
      let limit = exp (-.m) in
      let rec loop k prod =
        let prod = prod *. unit t in
        if prod <= limit then k else loop (k + 1) prod
      in
      loop 0 1.0
    in
    draw half + draw half
  end

let pick t arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t n)

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ :: _ -> List.nth l (int t (List.length l))

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle_in_place t arr;
  arr
