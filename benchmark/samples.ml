(* Raw samples and exact percentiles.

   Percentiles are nearest-rank over the sorted raw samples, never a
   histogram estimate.  A percentile is refused ([None]) when fewer
   than ten samples lie beyond it, so a tail number is never printed
   from a sample that cannot support it. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest rank of the [pct]-th percentile among [n] samples, 1-based. *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

let percentile sorted ~pct =
  let n = Array.length sorted in
  let r = rank ~pct n in
  if n - r < 10 then None else Some sorted.(r - 1)

let median values =
  let s = Array.of_list values in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* First and third quartiles, by the same "exclusive" method as
   Python's [statistics.quantiles(values, n=4)]. *)
let quartiles values =
  let s = Array.of_list values in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n < 2 then (median values, median values)
  else
    let at p =
      let m = float_of_int (n + 1) *. p in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      s.(j - 1) +. ((s.(j) -. s.(j - 1)) *. delta)
    in
    (at 0.25, at 0.75)
