(* Sparse multivariate polynomials: the polynomial part of Taylor models
   and the target representation for Bernstein approximations of neural
   network controllers.

   Representation: a monomial's exponent vector is packed into a single
   OCaml int, 4 bits per variable (so nvars <= 15 and every exponent
   <= 15 — far above the Taylor-model orders used anywhere in the
   reproduction). Packing makes monomial multiplication a plain integer
   addition and keeps the coefficient storage cheap, which is what makes
   long closed-loop flowpipes affordable. A product whose exponents would
   pass 15 raises instead of carrying into the next variable's nibble.

   Terms live in a pair of parallel arrays sorted by strictly ascending
   packed key, so [add] is a linear array merge. The innermost loop of
   the flowpipe kernel is the truncating Taylor-model product
   [mul_trunc]: it multiplies two polynomials of degree <= order, keeps
   the terms of degree <= order and bounds the rest over [-1,1]^n. It
   runs on a dense product plan (one per (nvars, order), shared by every
   domain) that maps each pair of input monomials straight to the rank
   of their product among all monomials of degree <= 2 order, so the
   products accumulate into a per-domain dense array and the kept terms
   and the dropped tail come out of one ascending sweep over it. Inputs
   outside a plan use the generic [mul] (hash accumulation plus radix
   sort) followed by [truncate] and [bound_unit].

   Bit-compatibility contract: every operation performs the SAME float
   additions in the SAME order as the historical Map implementation
   (ascending-key iteration; in [mul] and [mul_trunc], contributions to
   one result key accumulate in ascending order of the left factor's
   key), so flowpipes, certificates and counters are bit-identical
   whichever product path runs. *)

module I = Dwv_interval.Interval

type t = {
  nvars : int;
  keys : int array;
  coeffs : float array;
  (* Lazily computed [-1,1]^n range enclosure. Purely a memo of the
     deterministic [bound_unit] below — concurrent writers race only to
     store the same immutable value, so the field is safe to share across
     domains. *)
  mutable bcache : I.t option;
}

let mk nvars keys coeffs = { nvars; keys; coeffs; bcache = None }

let max_vars = 15
let max_exponent = 15
let bits_per_var = 4

(* 0x111...1: one low bit per nibble, [nvars] nibbles. *)
let parity_mask nvars =
  let m = ref 0 in
  for _ = 1 to nvars do
    m := (!m lsl bits_per_var) lor 1
  done;
  !m

let check_nvars nvars =
  if nvars < 1 || nvars > max_vars then
    invalid_arg "Poly: nvars must be between 1 and 15"

let encode expts =
  let key = ref 0 in
  for i = Array.length expts - 1 downto 0 do
    let e = expts.(i) in
    if e < 0 || e > max_exponent then invalid_arg "Poly: exponent out of range [0, 15]";
    key := (!key lsl bits_per_var) lor e
  done;
  !key

let decode nvars key =
  Array.init nvars (fun i -> (key lsr (i * bits_per_var)) land max_exponent)

let exponent_of key i = (key lsr (i * bits_per_var)) land max_exponent

let key_degree nvars key =
  let d = ref 0 in
  for i = 0 to nvars - 1 do
    d := !d + exponent_of key i
  done;
  !d

let zero nvars =
  check_nvars nvars;
  mk nvars [||] [||]

let const nvars c =
  check_nvars nvars;
  if c = 0.0 then mk nvars [||] [||] else mk nvars [| 0 |] [| c |]

let var nvars i =
  check_nvars nvars;
  if i < 0 || i >= nvars then invalid_arg "Poly.var: index out of range";
  mk nvars [| 1 lsl (i * bits_per_var) |] [| 1.0 |]

let nvars p = p.nvars

let is_zero p = Array.length p.keys = 0

let num_terms p = Array.length p.keys

let degree p =
  let d = ref 0 in
  Array.iter (fun k -> d := max !d (key_degree p.nvars k)) p.keys;
  !d

let constant_term p =
  if Array.length p.keys > 0 && p.keys.(0) = 0 then p.coeffs.(0) else 0.0

(* Binary search for [key]; [Some i] when present, [None] with the
   insertion point otherwise. *)
let find_key p key =
  let lo = ref 0 and hi = ref (Array.length p.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length p.keys && p.keys.(!lo) = key then Ok !lo else Error !lo

let remove_at p i =
  let n = Array.length p.keys in
  let keys = Array.make (n - 1) 0 and coeffs = Array.make (n - 1) 0.0 in
  Array.blit p.keys 0 keys 0 i;
  Array.blit p.coeffs 0 coeffs 0 i;
  Array.blit p.keys (i + 1) keys i (n - 1 - i);
  Array.blit p.coeffs (i + 1) coeffs i (n - 1 - i);
  mk p.nvars keys coeffs

let insert_at p i key c =
  let n = Array.length p.keys in
  let keys = Array.make (n + 1) 0 and coeffs = Array.make (n + 1) 0.0 in
  Array.blit p.keys 0 keys 0 i;
  Array.blit p.coeffs 0 coeffs 0 i;
  keys.(i) <- key;
  coeffs.(i) <- c;
  Array.blit p.keys i keys (i + 1) (n - i);
  Array.blit p.coeffs i coeffs (i + 1) (n - i);
  mk p.nvars keys coeffs

let add_key p key c =
  match find_key p key with
  | Ok i ->
    let s = p.coeffs.(i) +. c in
    if s = 0.0 then remove_at p i
    else begin
      let coeffs = Array.copy p.coeffs in
      coeffs.(i) <- s;
      mk p.nvars p.keys coeffs
    end
  | Error i -> if c = 0.0 then p else insert_at p i key c

let add_term p expts c =
  if Array.length expts <> p.nvars then invalid_arg "Poly.add_term: arity mismatch";
  add_key p (encode expts) c

let of_terms nvars l = List.fold_left (fun p (e, c) -> add_term p e c) (zero nvars) l

(* Descending key order (the order the historical Map fold produced). *)
let to_terms p =
  let acc = ref [] in
  for i = 0 to Array.length p.keys - 1 do
    acc := (decode p.nvars p.keys.(i), p.coeffs.(i)) :: !acc
  done;
  !acc

let map_coeffs f p =
  let n = Array.length p.keys in
  let keys = Array.make n 0 and coeffs = Array.make n 0.0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let c' = f p.coeffs.(i) in
    if c' <> 0.0 then begin
      keys.(!m) <- p.keys.(i);
      coeffs.(!m) <- c';
      incr m
    end
  done;
  if !m = n then mk p.nvars keys coeffs
  else mk p.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)

let neg p = map_coeffs (fun c -> -.c) p

let scale s p = if s = 0.0 then zero p.nvars else map_coeffs (fun c -> s *. c) p

(* Linear merge of the two sorted term arrays; on a shared key the sum is
   a.coeff +. b.coeff (left operand first, as Map.union evaluated it) and
   an exactly-zero sum drops the term. *)
let add a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.add: arity mismatch";
  let na = Array.length a.keys and nb = Array.length b.keys in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let keys = Array.make (na + nb) 0 and coeffs = Array.make (na + nb) 0.0 in
    let i = ref 0 and j = ref 0 and m = ref 0 in
    while !i < na && !j < nb do
      let ka = a.keys.(!i) and kb = b.keys.(!j) in
      if ka < kb then begin
        keys.(!m) <- ka; coeffs.(!m) <- a.coeffs.(!i); incr i; incr m
      end
      else if kb < ka then begin
        keys.(!m) <- kb; coeffs.(!m) <- b.coeffs.(!j); incr j; incr m
      end
      else begin
        let s = a.coeffs.(!i) +. b.coeffs.(!j) in
        if s <> 0.0 then begin keys.(!m) <- ka; coeffs.(!m) <- s; incr m end;
        incr i; incr j
      end
    done;
    while !i < na do
      keys.(!m) <- a.keys.(!i); coeffs.(!m) <- a.coeffs.(!i); incr i; incr m
    done;
    while !j < nb do
      keys.(!m) <- b.keys.(!j); coeffs.(!m) <- b.coeffs.(!j); incr j; incr m
    done;
    mk a.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)
  end

let sub a b = add a (neg b)

(* Monomial product = key addition ([check_exponent_sums] rules out
   nibble carries).

   The na*nb key/coefficient products accumulate into a per-domain
   open-addressing scratch table (plain int and float arrays: no boxing,
   no per-operation allocation), then the occupied slots are gathered and
   LSD-radix-sorted by key into the output arrays. This is the generic
   product (any degrees); Taylor-model products run on [mul_trunc]'s
   dense plans and reach it only as their fallback.

   Bit-compatibility with the historical Map implementation: products are
   generated outer-left / inner-right exactly as before, so the
   contributions to one result key arrive in the same order and the
   coefficient sums round identically. The Map's M.update quirks are
   preserved: a running per-key sum that hits exactly 0.0 evicts the
   entry and a later contribution restarts from its own value; a
   contribution landing on an empty slot is kept even when it is itself
   0.0. *)

(* slot states in [sstate] *)
let st_empty = '\000'
let st_present = '\001'
let st_evicted = '\002' (* key reserved so probe chains stay valid, value absent *)

type mul_scratch = {
  mutable cap : int; (* power of two, 0 before first use *)
  mutable skeys : int array;
  mutable svals : float array;
  mutable sstate : Bytes.t;
  mutable touched : int array; (* slots claimed during the current call *)
  (* radix ping-pong buffers *)
  mutable rk : int array;
  mutable rv : float array;
  mutable rk2 : int array;
  mutable rv2 : float array;
  counts : int array; (* 256 radix histogram *)
}

let scratch_key : mul_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cap = 0;
        skeys = [||];
        svals = [||];
        sstate = Bytes.empty;
        touched = [||];
        rk = [||];
        rv = [||];
        rk2 = [||];
        rv2 = [||];
        counts = Array.make 256 0 })

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let scratch_resize s cap =
  s.cap <- cap;
  s.skeys <- Array.make cap 0;
  s.svals <- Array.make cap 0.0;
  s.sstate <- Bytes.make cap st_empty;
  s.touched <- Array.make cap 0;
  s.rk <- Array.make cap 0;
  s.rv <- Array.make cap 0.0;
  s.rk2 <- Array.make cap 0;
  s.rv2 <- Array.make cap 0.0

(* Multiplicative hash of a packed key into [0, cap). *)
let slot_hash k cap = (k * 0x2545F4914F6CDD1D) lsr 20 land (cap - 1)

(* Key addition is only a monomial product while every per-variable
   exponent sum stays <= 15; past that the carry would silently spill
   into the next variable's nibble. Some pair of terms realises both
   per-variable maxima, so checking the maxima is exact. The total-degree
   test keeps the scan off products of low degree (every Taylor-model
   product has total degree <= 14). *)
let max_exponent_of p i = Array.fold_left (fun m k -> max m (exponent_of k i)) 0 p.keys

let check_exponent_sums a b =
  if degree a + degree b > max_exponent then
    for i = 0 to a.nvars - 1 do
      if max_exponent_of a i + max_exponent_of b i > max_exponent then
        invalid_arg "Poly.mul: exponent out of range [0, 15]"
    done

let mul a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.mul: arity mismatch";
  check_exponent_sums a b;
  let na = Array.length a.keys and nb = Array.length b.keys in
  if na = 0 then a
  else if nb = 0 then mk a.nvars [||] [||]
  else if na = 1 then begin
    (* scalar-ish fast path: one contribution per key, keys stay sorted *)
    let ka = a.keys.(0) and ca = a.coeffs.(0) in
    mk a.nvars (Array.map (fun kb -> ka + kb) b.keys) (Array.map (fun cb -> ca *. cb) b.coeffs)
  end
  else if nb = 1 then begin
    let kb = b.keys.(0) and cb = b.coeffs.(0) in
    mk a.nvars (Array.map (fun ka -> ka + kb) a.keys) (Array.map (fun ca -> ca *. cb) a.coeffs)
  end
  else begin
    let s = Domain.DLS.get scratch_key in
    (* load factor <= 1/2 even if every product lands on a fresh key *)
    if s.cap < 2 * na * nb then scratch_resize s (next_pow2 (2 * na * nb) 1024);
    let skeys = s.skeys and svals = s.svals and sstate = s.sstate and touched = s.touched in
    let cap = s.cap in
    let nt = ref 0 in
    let maxkey = ref 0 in
    for i = 0 to na - 1 do
      let ka = a.keys.(i) and ca = a.coeffs.(i) in
      for j = 0 to nb - 1 do
        let k = ka + b.keys.(j) in
        let c = ca *. b.coeffs.(j) in
        let h = ref (slot_hash k cap) in
        while Bytes.unsafe_get sstate !h <> st_empty && Array.unsafe_get skeys !h <> k do
          h := (!h + 1) land (cap - 1)
        done;
        let h = !h in
        (match Bytes.unsafe_get sstate h with
        | c0 when c0 = st_empty ->
          Bytes.unsafe_set sstate h st_present;
          Array.unsafe_set skeys h k;
          Array.unsafe_set svals h c;
          touched.(!nt) <- h;
          incr nt;
          if k > !maxkey then maxkey := k
        | c0 when c0 = st_present ->
          let sum = Array.unsafe_get svals h +. c in
          if sum = 0.0 then Bytes.unsafe_set sstate h st_evicted
          else Array.unsafe_set svals h sum
        | _ (* evicted: restart from this contribution *) ->
          Bytes.unsafe_set sstate h st_present;
          Array.unsafe_set svals h c)
      done
    done;
    (* gather live slots (resetting the table for the next call) *)
    let rk = s.rk and rv = s.rv in
    let n = ref 0 in
    for t = 0 to !nt - 1 do
      let h = touched.(t) in
      if Bytes.unsafe_get sstate h = st_present then begin
        rk.(!n) <- skeys.(h);
        rv.(!n) <- svals.(h);
        incr n
      end;
      Bytes.unsafe_set sstate h st_empty
    done;
    let n = !n in
    (* LSD radix sort of (rk, rv) by key, one byte per pass (at most
       ceil(60 / 8); a shift past the word size would wrap around) *)
    let counts = s.counts in
    let src_k = ref rk and src_v = ref rv and dst_k = ref s.rk2 and dst_v = ref s.rv2 in
    let shift = ref 0 in
    while !shift < Sys.int_size && !maxkey lsr !shift > 0 do
      Array.fill counts 0 256 0;
      let sk = !src_k in
      for t = 0 to n - 1 do
        let d = (Array.unsafe_get sk t) lsr !shift land 0xff in
        counts.(d) <- counts.(d) + 1
      done;
      let pos = ref 0 in
      for d = 0 to 255 do
        let c = counts.(d) in
        counts.(d) <- !pos;
        pos := !pos + c
      done;
      let sv = !src_v and dk = !dst_k and dv = !dst_v in
      for t = 0 to n - 1 do
        let k = Array.unsafe_get sk t in
        let d = k lsr !shift land 0xff in
        let p = counts.(d) in
        counts.(d) <- p + 1;
        Array.unsafe_set dk p k;
        Array.unsafe_set dv p (Array.unsafe_get sv t)
      done;
      let tk = !src_k and tv = !src_v in
      src_k := !dst_k;
      src_v := !dst_v;
      dst_k := tk;
      dst_v := tv;
      shift := !shift + 8
    done;
    mk a.nvars (Array.sub !src_k 0 n) (Array.sub !src_v 0 n)
  end

let rec pow p n =
  if n < 0 then invalid_arg "Poly.pow: negative exponent"
  else if n = 0 then const p.nvars 1.0
  else if n = 1 then p
  else begin
    let half = pow p (n / 2) in
    let sq = mul half half in
    if n mod 2 = 0 then sq else mul p sq
  end

(* Split by a key predicate, preserving ascending order on both sides. *)
let partition_keys pred p =
  let n = Array.length p.keys in
  let kk = Array.make n 0 and kc = Array.make n 0.0 in
  let dk = Array.make n 0 and dc = Array.make n 0.0 in
  let nk = ref 0 and nd = ref 0 in
  for i = 0 to n - 1 do
    if pred p.keys.(i) then begin
      kk.(!nk) <- p.keys.(i); kc.(!nk) <- p.coeffs.(i); incr nk
    end
    else begin
      dk.(!nd) <- p.keys.(i); dc.(!nd) <- p.coeffs.(i); incr nd
    end
  done;
  ( mk p.nvars (Array.sub kk 0 !nk) (Array.sub kc 0 !nk),
    mk p.nvars (Array.sub dk 0 !nd) (Array.sub dc 0 !nd) )

(* Split into (terms of degree <= order, terms of degree > order); the
   second component is what a Taylor model moves into its remainder. *)
let truncate ~order p = partition_keys (fun k -> key_degree p.nvars k <= order) p

(* Split into (terms not involving variable i, terms involving it); used
   to retire a disturbance symbol by bounding its contribution. *)
let split_var p i =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.split_var: index out of range";
  partition_keys (fun k -> exponent_of k i = 0) p

(* Split by the coefficient-magnitude predicate [keep]; ascending order
   preserved on both sides (the sweeping fast path of Taylor models). *)
let partition_coeffs keep p =
  let n = Array.length p.keys in
  let kk = Array.make n 0 and kc = Array.make n 0.0 in
  let dk = Array.make n 0 and dc = Array.make n 0.0 in
  let nk = ref 0 and nd = ref 0 in
  for i = 0 to n - 1 do
    if keep p.coeffs.(i) then begin
      kk.(!nk) <- p.keys.(i); kc.(!nk) <- p.coeffs.(i); incr nk
    end
    else begin
      dk.(!nd) <- p.keys.(i); dc.(!nd) <- p.coeffs.(i); incr nd
    end
  done;
  ( mk p.nvars (Array.sub kk 0 !nk) (Array.sub kc 0 !nk),
    mk p.nvars (Array.sub dk 0 !nd) (Array.sub dc 0 !nd) )

(* Largest |coefficient| (0 for the zero polynomial). *)
let max_abs_coeff p =
  let m = ref 0.0 in
  Array.iter (fun c -> m := Float.max !m (Float.abs c)) p.coeffs;
  !m

let eval p x =
  if Array.length x <> p.nvars then invalid_arg "Poly.eval: arity mismatch";
  let acc = ref 0.0 in
  for t = 0 to Array.length p.keys - 1 do
    let k = p.keys.(t) in
    let term = ref p.coeffs.(t) in
    for i = 0 to p.nvars - 1 do
      for _ = 1 to exponent_of k i do
        term := !term *. x.(i)
      done
    done;
    acc := !acc +. !term
  done;
  !acc

(* Generic evaluation in any commutative algebra; used to substitute Taylor
   models (or intervals) for the variables. [var_pow i k] must be the k-th
   power of variable i with k >= 1. *)
let eval_gen p ~const ~var_pow ~add ~mul =
  let acc = ref (const 0.0) in
  for t = 0 to Array.length p.keys - 1 do
    let key = p.keys.(t) in
    let term = ref (const p.coeffs.(t)) in
    for i = 0 to p.nvars - 1 do
      let k = exponent_of key i in
      if k > 0 then term := mul !term (var_pow i k)
    done;
    acc := add !acc !term
  done;
  !acc

(* Sound range enclosure of p over the box (interval evaluation of each
   monomial; tight powers via Interval.pow_int). *)
let ieval p (box : Dwv_interval.Box.t) =
  if Dwv_interval.Box.dim box <> p.nvars then invalid_arg "Poly.ieval: arity mismatch";
  let acc = ref I.zero in
  for t = 0 to Array.length p.keys - 1 do
    let key = p.keys.(t) in
    let term = ref (I.of_point p.coeffs.(t)) in
    for i = 0 to p.nvars - 1 do
      let k = exponent_of key i in
      if k > 0 then term := I.mul !term (I.pow_int box.(i) k)
    done;
    acc := I.add !acc !term
  done;
  !acc

(* Range enclosure of a dropped tail over the canonical Taylor-model
   domain [-1,1]^n, accumulated term by term in the caller's order: a
   monomial with all exponents even ranges over [0, c] (or [c, 0]), any
   other monomial over [-|c|, |c|]. Pure float arithmetic; [bound_unit]
   and [mul_trunc] share it, so both sum the same terms in the same
   (ascending-key) order. Taking the term as (array, index) keeps the
   coefficient unboxed across the call. *)
type tail = { mutable lo : float; mutable hi : float }

let tail_add acc mask keys coeffs i =
  let key = Array.unsafe_get keys i and c = Array.unsafe_get coeffs i in
  if key = 0 then begin
    (* constant monomial: exact *)
    acc.lo <- acc.lo +. c;
    acc.hi <- acc.hi +. c
  end
  else if key land mask = 0 then begin
    (* all exponents even (some positive): monomial value in [0, 1] *)
    if c >= 0.0 then acc.hi <- acc.hi +. c else acc.lo <- acc.lo +. c
  end
  else begin
    let a = Float.abs c in
    acc.lo <- acc.lo -. a;
    acc.hi <- acc.hi +. a
  end

let bound_unit p =
  match p.bcache with
  | Some b -> b
  | None ->
    let mask = parity_mask p.nvars in
    let acc = { lo = 0.0; hi = 0.0 } in
    for i = 0 to Array.length p.keys - 1 do
      tail_add acc mask p.keys p.coeffs i
    done;
    let b = I.make acc.lo acc.hi in
    p.bcache <- Some b;
    b

(* ---- Truncating product on dense plans ----

   A plan for (nvars, order) lists every monomial of degree <= 2 order
   in ascending packed-key order (its rank is its index), marks the
   ranks of degree <= order, and tabulates, for each pair of input
   monomials of degree <= order, the rank of their product:

     prod.(ra * n_in + rb) = rank (key_ra + key_rb)

   With it, [mul_trunc] needs no hashing and no sorting: each product
   adds into a per-domain dense slot array at its rank, and one sweep
   over the touched rank range (contiguous, because key addition is
   monotone) emits the kept terms already sorted and feeds the dropped
   ones to [tail_add] in ascending key order. The result is the same
   polynomial and the same remainder bound, bit for bit, as
   [truncate ~order (mul a b)] followed by [bound_unit] of the dropped
   part: the products are formed in [mul]'s order (outer over [a],
   inner over [b]) and follow [mul]'s exact-zero eviction rule.

   Plans are a pure function of (nvars, order), built once per process
   and shared by every domain through a publish-once registry. One whose
   table would exceed [max_plan_words] words is never built (the pair
   records [None]) and its products take the generic path, so plan
   memory stays below that constant per (nvars, order) pair. *)

(* 2^20 words = 8 MiB per plan. Covers every arity up to order 3, and
   up to 10 / 7 / 6 / 5 variables at orders 4 / 5 / 6 / 7. *)
let max_plan_words = 1 lsl 20

(* A sweep over the touched ranks pays for the whole span; when that
   dwarfs the number of products the generic path is cheaper. *)
let max_span_per_product = 8

(* C(n, k) for the small arguments of plan sizing (exact: each partial
   product is itself a binomial coefficient). *)
let binomial n k =
  let c = ref 1 in
  for i = 0 to k - 1 do
    c := !c * (n - i) / (i + 1)
  done;
  !c

(* Monomials of total degree <= d in ascending key order: the key
   compares exponent vectors lexicographically from the highest variable
   down, so a depth-first walk that raises the highest exponent slowest
   emits them sorted. *)
let monomials nvars d =
  let keys = Array.make (binomial (d + nvars) nvars) 0 in
  let m = ref 0 in
  let rec walk v key budget =
    if v < 0 then begin
      keys.(!m) <- key;
      incr m
    end
    else
      for e = 0 to budget do
        walk (v - 1) (key lor (e lsl (v * bits_per_var))) (budget - e)
      done
  in
  walk (nvars - 1) 0 d;
  keys

(* Ranks without search. Among the monomials of degree <= dmax in
   ascending key order, the monomials sharing the exponents of the
   variables above v, with [d] degree left for variables v and below,
   and exponent below [e] at v, number
     steps.(((v * w) + d) * w + e) = sum_{x < e} C(d - x + v, v)
   (w = dmax + 1; C(d + v, v) counts the monomials of degree <= d in v
   variables). A key's rank is the sum of its steps from the highest
   variable down: nvars table lookups instead of a search. *)
type ranker = { nvars_r : int; dmax : int; steps : int array }

let ranker nvars dmax =
  let w = dmax + 1 in
  let steps = Array.make (nvars * w * w) 0 in
  for v = 0 to nvars - 1 do
    for d = 0 to dmax do
      for e = 1 to d do
        let i = (((v * w) + d) * w) + e in
        steps.(i) <- steps.(i - 1) + binomial (d - (e - 1) + v) v
      done
    done
  done;
  { nvars_r = nvars; dmax; steps }

(* Rank of [key], or -1 when its degree exceeds [dmax]. *)
let rank rk key =
  let w = rk.dmax + 1 in
  let r = ref 0 and d = ref rk.dmax in
  for v = rk.nvars_r - 1 downto 0 do
    let e = exponent_of key v in
    if e <= !d then begin
      r := !r + Array.unsafe_get rk.steps ((((v * w) + !d) * w) + e);
      d := !d - e
    end
    else d := -1 (* over budget; every later e > -1 keeps it there *)
  done;
  if !d < 0 then -1 else !r

type plan = {
  n_in : int;
  in_ranker : ranker;   (* degree <= order *)
  out_keys : int array; (* degree <= 2 order, ascending *)
  out_kept : Bytes.t;   (* '\001' at the ranks of degree <= order *)
  prod : int array;     (* n_in * n_in product ranks *)
}

let build_plan nvars order =
  let n_in = binomial (order + nvars) nvars in
  let n_out = binomial ((2 * order) + nvars) nvars in
  if order < 0 || 2 * order > max_exponent || (n_in * n_in) + n_out > max_plan_words then None
  else begin
    let in_keys = monomials nvars order and out_keys = monomials nvars (2 * order) in
    let out_ranker = ranker nvars (2 * order) in
    let out_kept = Bytes.make n_out '\000' in
    for r = 0 to n_out - 1 do
      if key_degree nvars out_keys.(r) <= order then Bytes.set out_kept r '\001'
    done;
    let prod = Array.make (n_in * n_in) 0 in
    for i = 0 to n_in - 1 do
      for j = 0 to n_in - 1 do
        prod.((i * n_in) + j) <- rank out_ranker (in_keys.(i) + in_keys.(j))
      done
    done;
    Some { n_in; in_ranker = ranker nvars order; out_keys; out_kept; prod }
  end

let plans : (int, plan option) Dwv_util.Publish_once.t = Dwv_util.Publish_once.create ()

let plan_for nvars order =
  Dwv_util.Publish_once.find_or_publish plans ((order * (max_vars + 1)) + nvars) (fun () ->
      build_plan nvars order)

(* Per-domain dense accumulator, grown to the largest plan seen. Between
   calls every [state] byte is '\000' (the sweep resets what it reads). *)
type dense_scratch = {
  mutable vals : float array;
  mutable state : Bytes.t; (* '\001' = a live sum at this rank *)
  mutable ra : int array;  (* a's term ranks, pre-scaled by n_in *)
  mutable rb : int array;  (* b's term ranks *)
  mutable kk : int array;  (* kept terms, before the exact-size copy *)
  mutable kc : float array;
}

let dense_key : dense_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { vals = [||]; state = Bytes.empty; ra = [||]; rb = [||]; kk = [||]; kc = [||] })

let dense_scratch pl =
  let s = Domain.DLS.get dense_key in
  let n_out = Array.length pl.out_keys in
  if Array.length s.vals < n_out then begin
    s.vals <- Array.make n_out 0.0;
    s.state <- Bytes.make n_out '\000'
  end;
  if Array.length s.ra < pl.n_in then begin
    s.ra <- Array.make pl.n_in 0;
    s.rb <- Array.make pl.n_in 0;
    s.kk <- Array.make pl.n_in 0;
    s.kc <- Array.make pl.n_in 0.0
  end;
  s

(* Ranks of [keys] in the plan's input monomials, times [scale], into
   [dst]; false when some key has degree > order (not in the plan). *)
let rank_terms pl keys scale dst =
  let ok = ref true and t = ref 0 in
  while !ok && !t < Array.length keys do
    let r = rank pl.in_ranker keys.(!t) in
    if r < 0 then ok := false else dst.(!t) <- r * scale;
    incr t
  done;
  !ok

let generic_mul_trunc ~order a b =
  let keep, drop = truncate ~order (mul a b) in
  (keep, bound_unit drop)

(* [r_lo], [r_hi]: ranks of the smallest and largest product key. *)
let dense_mul_trunc pl s a b ~r_lo ~r_hi =
  let na = Array.length a.keys and nb = Array.length b.keys in
  let prod = pl.prod and vals = s.vals and state = s.state in
  let ra = s.ra and rb = s.rb and ac = a.coeffs and bc = b.coeffs in
  for i = 0 to na - 1 do
    let row = Array.unsafe_get ra i in
    for j = 0 to nb - 1 do
      let r = Array.unsafe_get prod (row + Array.unsafe_get rb j) in
      if Bytes.unsafe_get state r = '\000' then begin
        (* first (or first since an eviction): kept even when 0.0 *)
        Bytes.unsafe_set state r '\001';
        Array.unsafe_set vals r (Array.unsafe_get ac i *. Array.unsafe_get bc j)
      end
      else begin
        Array.unsafe_set vals r
          (Array.unsafe_get vals r +. (Array.unsafe_get ac i *. Array.unsafe_get bc j));
        (* an exactly-zero running sum evicts the key *)
        if Array.unsafe_get vals r = 0.0 then Bytes.unsafe_set state r '\000'
      end
    done
  done;
  let out_keys = pl.out_keys and kept = pl.out_kept and kk = s.kk and kc = s.kc in
  let mask = parity_mask a.nvars in
  let acc = { lo = 0.0; hi = 0.0 } in
  let m = ref 0 in
  for r = r_lo to r_hi do
    if Bytes.unsafe_get state r <> '\000' then begin
      Bytes.unsafe_set state r '\000';
      if Bytes.unsafe_get kept r <> '\000' then begin
        Array.unsafe_set kk !m (Array.unsafe_get out_keys r);
        Array.unsafe_set kc !m (Array.unsafe_get vals r);
        incr m
      end
      else tail_add acc mask out_keys vals r
    end
  done;
  (mk a.nvars (Array.sub kk 0 !m) (Array.sub kc 0 !m), I.make acc.lo acc.hi)

let mul_trunc ~order a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.mul_trunc: arity mismatch";
  let na = Array.length a.keys and nb = Array.length b.keys in
  match plan_for a.nvars order with
  | Some pl when na > 0 && nb > 0 ->
    (* the span test needs only the extreme terms: rank those first *)
    let rk = pl.in_ranker in
    let lo_a = rank rk a.keys.(0) and hi_a = rank rk a.keys.(na - 1) in
    let lo_b = rank rk b.keys.(0) and hi_b = rank rk b.keys.(nb - 1) in
    if lo_a < 0 || hi_a < 0 || lo_b < 0 || hi_b < 0 then generic_mul_trunc ~order a b
    else begin
      let r_lo = pl.prod.((lo_a * pl.n_in) + lo_b) in
      let r_hi = pl.prod.((hi_a * pl.n_in) + hi_b) in
      let s = dense_scratch pl in
      if r_hi - r_lo < max_span_per_product * na * nb
         && rank_terms pl b.keys 1 s.rb
         && rank_terms pl a.keys pl.n_in s.ra
      then dense_mul_trunc pl s a b ~r_lo ~r_hi
      else generic_mul_trunc ~order a b
    end
  | _ -> generic_mul_trunc ~order a b

(* Partial derivative. Differentiating never merges distinct monomials
   (the key shift is injective on terms with a positive exponent), so the
   ascending key order survives the per-term map. *)
let diff p i =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.diff: index out of range";
  let n = Array.length p.keys in
  let keys = Array.make n 0 and coeffs = Array.make n 0.0 in
  let m = ref 0 in
  for t = 0 to n - 1 do
    let e = exponent_of p.keys.(t) i in
    if e > 0 then begin
      let c = p.coeffs.(t) *. float_of_int e in
      if c <> 0.0 then begin
        keys.(!m) <- p.keys.(t) - (1 lsl (i * bits_per_var));
        coeffs.(!m) <- c;
        incr m
      end
    end
  done;
  mk p.nvars (Array.sub keys 0 !m) (Array.sub coeffs 0 !m)

let equal ?(eps = 0.0) a b =
  a.nvars = b.nvars
  &&
  let d = sub a b in
  Array.for_all (fun c -> Float.abs c <= eps) d.coeffs

let pp ppf p =
  if is_zero p then Fmt.string ppf "0"
  else
    Array.iteri
      (fun t key ->
        if t > 0 then Fmt.string ppf " + ";
        Fmt.pf ppf "%.6g" p.coeffs.(t);
        for i = 0 to p.nvars - 1 do
          let k = exponent_of key i in
          if k > 0 then Fmt.pf ppf "*z%d^%d" i k
        done)
      p.keys
