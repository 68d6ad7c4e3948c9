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
   domain) that maps each pair of input monomials whose product is kept
   straight to that product's rank, so only kept pairs are formed; they
   accumulate into a per-domain dense array whose ascending sweep emits
   the kept terms sorted. The dropped tail is bounded from the factors'
   homogeneous parts, never from the dropped pairs. Inputs outside a
   plan use the generic [mul] (hash accumulation plus radix sort) on
   their terms of degree <= order.

   Bit-compatibility contract: every operation performs the SAME float
   additions in the SAME order as the historical Map implementation
   (ascending-key iteration; in [mul] and [mul_trunc], contributions to
   one result key accumulate in ascending order of the left factor's
   key), so flowpipes, certificates and counters are bit-identical
   whichever product path runs. The Map's one irregular rule — a running
   sum of exactly 0.0 evicts its key, and a lone first contribution of
   0.0 is kept — only decides the sign of a ±0 coefficient, and
   [mul_trunc] keeps no ±0 coefficient on either path. *)

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
  (* Lazily computed whole and per-degree bounds ([graded] below), [||]
     until then; a memo of a deterministic value, like [bcache]. *)
  mutable gcache : float array;
}

let mk nvars keys coeffs = { nvars; keys; coeffs; bcache = None; gcache = [||] }

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

(* Total degree: the sum of the key's nibbles, added in parallel. The
   first step leaves byte i holding nibbles 2i + 2i+1 (<= 30), and the
   shifted adds fold all eight bytes into the low one (<= 15 * 15 = 225;
   a carry only ever moves up, out of the low byte's way). *)
let nibble_pairs = 0x0F0F0F0F0F0F0F0F

let key_degree key =
  let x = (key land nibble_pairs) + ((key lsr bits_per_var) land nibble_pairs) in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0xFF

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
  Array.iter (fun k -> d := max !d (key_degree k)) p.keys;
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

(* Every coefficient c becomes -.c ([negate]) or s *. c; an exactly-zero
   result drops its term. The results land in one array of the input's
   length; when none is zero (the usual case) it is the result and the
   keys are shared with [p] (key arrays are never mutated), otherwise the
   non-zero terms are compacted into arrays of the exact size. *)
let map_coeffs ~negate s p =
  let n = Array.length p.keys in
  let coeffs = Array.make n 0.0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    coeffs.(i) <- (if negate then -.p.coeffs.(i) else s *. p.coeffs.(i));
    if coeffs.(i) <> 0.0 then incr m
  done;
  if !m = n then mk p.nvars p.keys coeffs
  else begin
    let kk = Array.make !m 0 and kc = Array.make !m 0.0 in
    let m = ref 0 in
    for i = 0 to n - 1 do
      if coeffs.(i) <> 0.0 then begin
        kk.(!m) <- p.keys.(i); kc.(!m) <- coeffs.(i); incr m
      end
    done;
    mk p.nvars kk kc
  end

let neg p = map_coeffs ~negate:true 0.0 p

let scale s p = if s = 0.0 then zero p.nvars else map_coeffs ~negate:false s p

(* Linear merge of the two sorted term arrays; on a shared key the sum is
   a.coeff +. b.coeff (left operand first, as Map.union evaluated it) and
   an exactly-zero sum drops the term. A first pass counts the merged
   length (forming each shared sum, deterministically the same value the
   second pass stores), so the result is allocated once at its exact
   size. *)
let add a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.add: arity mismatch";
  let na = Array.length a.keys and nb = Array.length b.keys in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let i = ref 0 and j = ref 0 and m = ref 0 in
    while !i < na && !j < nb do
      let ka = a.keys.(!i) and kb = b.keys.(!j) in
      if ka < kb then incr i
      else if kb < ka then incr j
      else begin
        if a.coeffs.(!i) +. b.coeffs.(!j) = 0.0 then decr m;
        incr i; incr j
      end;
      incr m
    done;
    let len = !m + (na - !i) + (nb - !j) in
    let keys = Array.make len 0 and coeffs = Array.make len 0.0 in
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
    Array.blit a.keys !i keys !m (na - !i);
    Array.blit a.coeffs !i coeffs !m (na - !i);
    let m = !m + (na - !i) in
    Array.blit b.keys !j keys m (nb - !j);
    Array.blit b.coeffs !j coeffs m (nb - !j);
    mk a.nvars keys coeffs
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

(* Split by a predicate on term indices, preserving ascending order on
   both sides. A counting pass sizes both sides exactly, so each is
   allocated once; when the first side takes every term (the usual
   [truncate]) it shares [p]'s arrays, which are never mutated. *)
let partition keep p =
  let n = Array.length p.keys in
  let nk = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr nk
  done;
  let nk = !nk in
  if nk = n then (mk p.nvars p.keys p.coeffs, mk p.nvars [||] [||])
  else begin
    let kk = Array.make nk 0 and kc = Array.make nk 0.0 in
    let dk = Array.make (n - nk) 0 and dc = Array.make (n - nk) 0.0 in
    let k = ref 0 and d = ref 0 in
    for i = 0 to n - 1 do
      if keep i then begin
        kk.(!k) <- p.keys.(i); kc.(!k) <- p.coeffs.(i); incr k
      end
      else begin
        dk.(!d) <- p.keys.(i); dc.(!d) <- p.coeffs.(i); incr d
      end
    done;
    (mk p.nvars kk kc, mk p.nvars dk dc)
  end

(* Split into (terms of degree <= order, terms of degree > order); the
   second component is what a Taylor model moves into its remainder. *)
let truncate ~order p = partition (fun i -> key_degree p.keys.(i) <= order) p

(* Split into (terms not involving variable i, terms involving it); used
   to retire a disturbance symbol by bounding its contribution. *)
let split_var p i =
  if i < 0 || i >= p.nvars then invalid_arg "Poly.split_var: index out of range";
  partition (fun t -> exponent_of p.keys.(t) i = 0) p

(* Split into (terms with |coefficient| > cutoff, the rest); ascending
   order preserved on both sides (the sweeping fast path of Taylor
   models). *)
let partition_coeffs ~cutoff p = partition (fun i -> Float.abs p.coeffs.(i) > cutoff) p

(* Largest |coefficient| (0 for the zero polynomial). The running
   maximum lives in a one-cell float array (flat, unboxed storage), not
   a float ref, which the allocation profile reports as a boxing site. *)
let max_abs_coeff p =
  let m = Array.make 1 0.0 in
  for i = 0 to Array.length p.coeffs - 1 do
    m.(0) <- Float.max m.(0) (Float.abs p.coeffs.(i))
  done;
  m.(0)

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

(* ---- Range bounds over [-1,1]^n ----

   A term ranges exactly over [c, c] (the constant monomial), [0, c] or
   [c, 0] (every exponent even, some positive) or [-|c|, |c|] (some
   exponent odd), and a polynomial's bounds are the sums of its terms'
   bounds, accumulated in ascending key order. Recursive summation of k
   terms after the first loses at most gamma_k * sum |c| (gamma_k =
   k u / (1 - k u), u = 2^-53; Higham, Accuracy and Stability of
   Numerical Algorithms, 4.2), and 2 k u times the computed sum of |c|
   dominates it while k u <= 1/4, so each summed bound moves out by that
   much, plus one ulp for the rounding of the move itself. A polynomial
   of one term needs no move: 0.0 +. c is exact.

   One pass computes the whole polynomial's bounds and those of each
   homogeneous part (its terms of one total degree): [graded] holds
   [| lo; hi; lo_0; hi_0; n_0; lo_1; hi_1; n_1; ... |], n_d being the
   part's number of terms. A part of positive degree adds every |c| into
   its lower bound, its upper bound or both, so its sum of |c| is at most
   |lo_d| + |hi_d| (over 1 - 2 gamma_k >= 2/3 once rounded, for
   k u <= 1/8), and 2 k u times the sum is at most k eps (|lo_d| + |hi_d|)
   with k the whole polynomial's count; the constant part is one term.
   The truncating product bounds its dropped tail from the parts, and
   [Taylor_model.mul] then reads the whole bounds of the same factors
   from the cache. *)

(* [scan ~parts:false] computes only the whole bounds, as [| lo; hi |];
   [~parts:true] the whole array above. The whole bounds take the same
   operations in the same order either way, so [bound_unit] has the same
   bits whether or not a product graded the polynomial first. *)
let scan ~parts p =
  let n = Array.length p.keys in
  let dmax = ref (-1) in
  if parts then
    for t = 0 to n - 1 do
      let d = key_degree (Array.unsafe_get p.keys t) in
      if d > !dmax then dmax := d
    done;
  let g = Array.make (2 + (3 * (!dmax + 1))) 0.0 in
  let mask = parity_mask p.nvars in
  let s = ref 0.0 in
  for t = 0 to n - 1 do
    let key = Array.unsafe_get p.keys t and c = Array.unsafe_get p.coeffs t in
    let i = if parts then 2 + (3 * key_degree key) else 0 in
    if key = 0 then begin
      g.(0) <- g.(0) +. c;
      g.(1) <- g.(1) +. c;
      if parts then begin
        g.(i) <- g.(i) +. c;
        g.(i + 1) <- g.(i + 1) +. c
      end
    end
    else if key land mask = 0 then begin
      if c >= 0.0 then begin
        g.(1) <- g.(1) +. c;
        if parts then g.(i + 1) <- g.(i + 1) +. c
      end
      else begin
        g.(0) <- g.(0) +. c;
        if parts then g.(i) <- g.(i) +. c
      end
    end
    else begin
      let a = Float.abs c in
      g.(0) <- g.(0) -. a;
      g.(1) <- g.(1) +. a;
      if parts then begin
        g.(i) <- g.(i) -. a;
        g.(i + 1) <- g.(i + 1) +. a
      end
    end;
    if parts then g.(i + 2) <- g.(i + 2) +. 1.0;
    s := !s +. Float.abs c
  done;
  if n > 1 then begin
    let k = float_of_int (n - 1) *. epsilon_float in
    let slack = Float.succ (k *. !s) in
    g.(0) <- Float.pred (g.(0) -. slack);
    g.(1) <- Float.succ (g.(1) +. slack);
    for d = 1 to !dmax do
      let i = 2 + (3 * d) in
      if g.(i + 2) > 0.0 then begin
        let slack = Float.succ (k *. (Float.abs g.(i) +. Float.abs g.(i + 1))) in
        g.(i) <- Float.pred (g.(i) -. slack);
        g.(i + 1) <- Float.succ (g.(i + 1) +. slack)
      end
    done
  end;
  g

let graded p =
  if Array.length p.gcache > 0 then p.gcache
  else begin
    let g = scan ~parts:true p in
    p.gcache <- g;
    g
  end

(* Enclosure over [-1,1]^n; raises [Invalid_argument] when a bound is
   not finite. *)
let bound_unit p =
  match p.bcache with
  | Some b -> b
  | None ->
    let g = if Array.length p.gcache > 0 then p.gcache else scan ~parts:false p in
    let b = I.make g.(0) g.(1) in
    p.bcache <- Some b;
    b

let part_degree g = ((Array.length g - 2) / 3) - 1

(* Enclosure over [-1,1]^n of the terms of [mul a b] of degree > order,
   from the homogeneous parts: the sum over d + e > order of a_d b_e,
   which lies in sum_d B(a_d) * (sum_{e > order - d} B(b_e)). The inner
   sums are suffix sums over b's parts, so the tail costs O(degree)
   interval operations, whatever the number of terms. The interval sums
   and products run on floats with every rounded result stepped one ulp
   outward (round-to-nearest errs by at most half an ulp), so nothing is
   allocated but the result. Raises [Invalid_argument] when a part that
   enters the tail, or the tail itself, is not finite. *)
let graded_tail ~order a b =
  let ga = graded a and gb = graded b in
  let tlo = ref 0.0 and thi = ref 0.0 and slo = ref 0.0 and shi = ref 0.0 in
  let suffix = ref false and next = ref (part_degree gb) in
  for d = 0 to part_degree ga do
    (* b's parts of degree >= order + 1 - d pair with a_d into the tail *)
    while !next >= 0 && !next >= order + 1 - d do
      let j = 2 + (3 * !next) in
      let lo = gb.(j) and hi = gb.(j + 1) in
      if gb.(j + 2) > 0.0 then begin
        if not (Float.is_finite lo && Float.is_finite hi) then
          invalid_arg "Poly.mul_trunc: non-finite tail";
        slo := Float.pred (!slo +. lo);
        shi := Float.succ (!shi +. hi);
        suffix := true
      end;
      decr next
    done;
    let i = 2 + (3 * d) in
    let alo = ga.(i) and ahi = ga.(i + 1) in
    if !suffix && ga.(i + 2) > 0.0 then begin
      if not (Float.is_finite alo && Float.is_finite ahi) then
        invalid_arg "Poly.mul_trunc: non-finite tail";
      let p1 = alo *. !slo and p2 = alo *. !shi and p3 = ahi *. !slo and p4 = ahi *. !shi in
      tlo := Float.pred (!tlo +. Float.pred (Float.min (Float.min p1 p2) (Float.min p3 p4)));
      thi := Float.succ (!thi +. Float.succ (Float.max (Float.max p1 p2) (Float.max p3 p4)))
    end
  done;
  if not (Float.is_finite !tlo && Float.is_finite !thi) then
    invalid_arg "Poly.mul_trunc: non-finite tail";
  I.make !tlo !thi

(* ---- Truncating product on dense plans ----

   A plan for (nvars, order) lists the n_in monomials of degree <= order
   in ascending packed-key order (a monomial's index is its rank), with
   each one's degree, and tabulates, for each pair of them whose degrees
   sum to <= order, the rank of their product as a 16-bit entry of a
   byte table:

     prod[2 (ra * n_in + rb)] = rank (key_ra + key_rb)

   (the entries of the other pairs are never read). With it,
   [mul_trunc] needs no hashing and no sorting: b's terms are sorted by
   degree once, so row i (a's i-th term, of degree d) multiplies out
   exactly b's terms of degree <= order - d, each into a per-domain
   dense slot array at its kept rank, and one ascending sweep over the
   touched ranks emits the kept terms already sorted. No dropped pair
   is formed: [graded_tail] bounds them from the factors' parts.

   The kept part is [truncate ~order (mul a b)]'s with its ±0
   coefficients removed, bit for bit. A kept monomial's contributions
   come only from pairs of degree <= order, rows run in ascending key
   order of [a] as [mul]'s outer loop does, and within one row each
   rank gets at most one contribution (key addition is injective), so
   every slot sees [mul]'s sums in [mul]'s order. Every slot starts at
   -0.0, and -0.0 +. c is c bit for bit; [mul]'s eviction of a running
   sum of exactly 0.0 then only differs in the sign of a ±0 result,
   which neither side keeps.

   Plans are a pure function of (nvars, order), built once per process
   and shared by every domain through a publish-once registry. One with
   more than [max_plan_words] pairs is never built (the pair records
   [None]) and its products take the generic path, so a plan's product
   table stays below 2 MiB. Nor is one with 2 order > 15: the sum of two
   keys of degree <= order then always stays within its nibbles, which
   the sweep's key-range bounds rely on. *)

(* Covers every arity up to order 3, and up to 10 / 7 / 6 / 5 variables
   at orders 4 / 5 / 6 / 7. Every such plan has n_in <= 1,024, so its
   ranks fit 16 bits. *)
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

let plan_shape ~nvars ~order =
  if nvars < 1 || nvars > max_vars || order < 0 || 2 * order > max_exponent then None
  else begin
    let n_in = binomial (order + nvars) nvars in
    if n_in * n_in > max_plan_words then None else Some n_in
  end

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
  order_p : int;
  n_in : int;
  in_keys : int array;  (* degree <= order, ascending *)
  in_deg : Bytes.t;     (* degree of each input monomial *)
  in_ranker : ranker;
  prod : Bytes.t;       (* n_in * n_in product ranks, 16 bits each *)
}

(* An entry of the product table, in native byte order (the table is
   written by [Bytes.set_uint16_ne] and never leaves the process),
   without a bounds check: every offset is an input rank pair scaled by
   2 n_in and 2. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

let build_plan nvars order =
  match plan_shape ~nvars ~order with
  | None -> None
  | Some n_in ->
    assert (n_in < 1 lsl 16);
    let in_keys = monomials nvars order and in_ranker = ranker nvars order in
    let in_deg = Bytes.init n_in (fun r -> Char.chr (key_degree in_keys.(r))) in
    let deg r = Char.code (Bytes.get in_deg r) in
    let prod = Bytes.make (2 * n_in * n_in) '\000' in
    for i = 0 to n_in - 1 do
      for j = 0 to n_in - 1 do
        if deg i + deg j <= order then
          Bytes.set_uint16_ne prod (2 * ((i * n_in) + j)) (rank in_ranker (in_keys.(i) + in_keys.(j)))
      done
    done;
    Some { order_p = order; n_in; in_keys; in_deg; in_ranker; prod }

let plans : (int, plan option) Dwv_util.Publish_once.t = Dwv_util.Publish_once.create ()

let plan_for nvars order =
  Dwv_util.Publish_once.find_or_publish plans ((order * (max_vars + 1)) + nvars) (fun () ->
      build_plan nvars order)

(* Per-domain dense accumulator, grown to the largest plan seen. Between
   calls every [vals] slot holds -0.0 (the sweep restores it). *)
type dense_scratch = {
  mutable vals : float array;
  mutable ra : int array;   (* a's term ranks *)
  mutable rb : int array;   (* b's term ranks *)
  mutable sb : int array;   (* b's ranks as byte offsets within a row, by degree *)
  mutable sc : float array; (* b's coefficients, in [sb]'s order *)
  mutable upto : int array; (* upto.(e) = b's terms of degree <= e *)
  mutable kk : int array;   (* kept terms, before the exact-size copy *)
  mutable kc : float array;
}

let dense_key : dense_scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { vals = [||]; ra = [||]; rb = [||]; sb = [||]; sc = [||]; upto = [||]; kk = [||];
        kc = [||] })

(* Every array has n_in slots: a factor in the plan has at most n_in
   terms, and n_in > order. *)
let dense_scratch pl =
  let s = Domain.DLS.get dense_key in
  if Array.length s.vals < pl.n_in then begin
    s.vals <- Array.make pl.n_in (-0.0);
    s.ra <- Array.make pl.n_in 0;
    s.rb <- Array.make pl.n_in 0;
    s.sb <- Array.make pl.n_in 0;
    s.sc <- Array.make pl.n_in 0.0;
    s.upto <- Array.make pl.n_in 0;
    s.kk <- Array.make pl.n_in 0;
    s.kc <- Array.make pl.n_in 0.0
  end;
  s

(* Ranks of [keys] in the plan's input monomials into [dst]; false when
   some key has degree > order (not in the plan). A step-table [rank]
   costs nvars lookups per key; a merge of the sorted keys against the
   plan's sorted input monomials costs n_in steps in all, so it runs once
   the factor is dense enough to pay for them. *)
let rank_terms pl keys dst =
  let n = Array.length keys in
  let ok = ref true and t = ref 0 in
  if n * pl.in_ranker.nvars_r >= pl.n_in then begin
    let in_keys = pl.in_keys and p = ref 0 in
    while !ok && !t < n do
      let key = Array.unsafe_get keys !t in
      while !p < pl.n_in && Array.unsafe_get in_keys !p < key do
        incr p
      done;
      if !p < pl.n_in && Array.unsafe_get in_keys !p = key then begin
        Array.unsafe_set dst !t !p;
        incr t
      end
      else ok := false
    done
  end
  else
    while !ok && !t < n do
      let r = rank pl.in_ranker (Array.unsafe_get keys !t) in
      if r < 0 then ok := false else Array.unsafe_set dst !t r;
      incr t
    done;
  !ok

(* Work counters: per product, the monomial pairs multiplied out and
   those of them whose product has degree <= order (the same number on
   the dense path, which forms no other pair). *)
let c_pairs = Dwv_util.Counters.counter "poly_pairs"
let c_kept_pairs = Dwv_util.Counters.counter "poly_kept_pairs"

let part_count g d = int_of_float g.(4 + (3 * d))

(* Pairs of terms of [a] and [b] whose degrees sum to <= order, from the
   term counts of their homogeneous parts ([graded]). *)
let kept_pair_count ~order ga gb =
  let db = part_degree gb in
  let n = ref 0 and below = ref 0 in
  (* below = number of b terms of degree <= order - d *)
  for e = 0 to min order db do
    below := !below + part_count gb e
  done;
  for d = 0 to min order (part_degree ga) do
    n := !n + (part_count ga d * !below);
    if order - d <= db then below := !below - part_count gb (order - d)
  done;
  !n

(* Factors outside a plan: [mul] of their terms of degree <= order (the
   only ones a kept monomial can come from, in the same order), then the
   kept terms without their ±0 coefficients. *)
let generic_mul_trunc ~order a b =
  let ga = graded a and gb = graded b in
  let low p g =
    if part_degree g <= order then p
    else fst (partition (fun i -> key_degree p.keys.(i) <= order) p)
  in
  let la = low a ga and lb = low b gb in
  Dwv_util.Counters.add c_pairs (Array.length la.keys * Array.length lb.keys);
  Dwv_util.Counters.add c_kept_pairs (kept_pair_count ~order ga gb);
  let p = mul la lb in
  fst (partition (fun i -> p.coeffs.(i) <> 0.0 && key_degree p.keys.(i) <= order) p)

(* One row: vals.(prod[row + sb_j]) +.= ac.(i) *. sc.(j) for every
   j < nb. Within a row the ranks are distinct, so an unrolled step
   loads its four slots before storing any of them. (The factor comes
   as an array and an index: a float argument would be boxed.) *)
let accumulate_row prod vals sb sc ac i row nb =
  let ai = Array.unsafe_get ac i in
  let j = ref 0 in
  while !j + 3 < nb do
    let j0 = !j in
    let r0 = get16 prod (row + Array.unsafe_get sb j0) in
    let r1 = get16 prod (row + Array.unsafe_get sb (j0 + 1)) in
    let r2 = get16 prod (row + Array.unsafe_get sb (j0 + 2)) in
    let r3 = get16 prod (row + Array.unsafe_get sb (j0 + 3)) in
    let s0 = Array.unsafe_get vals r0 +. (ai *. Array.unsafe_get sc j0) in
    let s1 = Array.unsafe_get vals r1 +. (ai *. Array.unsafe_get sc (j0 + 1)) in
    let s2 = Array.unsafe_get vals r2 +. (ai *. Array.unsafe_get sc (j0 + 2)) in
    let s3 = Array.unsafe_get vals r3 +. (ai *. Array.unsafe_get sc (j0 + 3)) in
    Array.unsafe_set vals r0 s0;
    Array.unsafe_set vals r1 s1;
    Array.unsafe_set vals r2 s2;
    Array.unsafe_set vals r3 s3;
    j := j0 + 4
  done;
  while !j < nb do
    let r = get16 prod (row + Array.unsafe_get sb !j) in
    Array.unsafe_set vals r (Array.unsafe_get vals r +. (ai *. Array.unsafe_get sc !j));
    incr j
  done

let deg_of pl r = Char.code (Bytes.unsafe_get pl.in_deg r)

(* [ra], [rb] hold the factors' ranks; [r_lo], [r_hi] bound the kept
   ranks any pair can reach. Sorts b by degree (counting sort, stable),
   runs each row over b's terms of degree <= order - deg a_i, then sweeps
   [r_lo, r_hi] once: a slot that is not ±0 is a kept term, and every
   slot goes back to -0.0. *)
let dense_mul_trunc pl s a b ~r_lo ~r_hi =
  let order = pl.order_p and nb = Array.length b.keys in
  let upto = s.upto and sb = s.sb and sc = s.sc in
  Array.fill upto 0 (order + 1) 0;
  for j = 0 to nb - 1 do
    let d = deg_of pl (Array.unsafe_get s.rb j) in
    upto.(d) <- upto.(d) + 1
  done;
  (* upto.(d) := first slot of degree d; after placement, one past its
     last, i.e. the number of b's terms of degree <= d *)
  let start = ref 0 in
  for d = 0 to order do
    let c = upto.(d) in
    upto.(d) <- !start;
    start := !start + c
  done;
  for j = 0 to nb - 1 do
    let r = Array.unsafe_get s.rb j in
    let d = deg_of pl r in
    let p = upto.(d) in
    Array.unsafe_set sb p (2 * r);
    Array.unsafe_set sc p (Array.unsafe_get b.coeffs j);
    upto.(d) <- p + 1
  done;
  let vals = s.vals and row_bytes = 2 * pl.n_in and kept = ref 0 in
  for i = 0 to Array.length a.keys - 1 do
    let r = Array.unsafe_get s.ra i in
    let nbi = upto.(order - deg_of pl r) in
    accumulate_row pl.prod vals sb sc a.coeffs i (r * row_bytes) nbi;
    kept := !kept + nbi
  done;
  Dwv_util.Counters.add c_pairs !kept;
  Dwv_util.Counters.add c_kept_pairs !kept;
  let in_keys = pl.in_keys and kk = s.kk and kc = s.kc and m = ref 0 in
  for r = r_lo to r_hi do
    let c = Array.unsafe_get vals r in
    if c <> 0.0 then begin
      Array.unsafe_set kk !m (Array.unsafe_get in_keys r);
      Array.unsafe_set kc !m c;
      incr m
    end;
    Array.unsafe_set vals r (-0.0)
  done;
  mk a.nvars (Array.sub kk 0 !m) (Array.sub kc 0 !m)

(* Index of the plan's first input monomial with key >= [k] (n_in when
   there is none). *)
let first_at_least pl k =
  let lo = ref 0 and hi = ref pl.n_in in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get pl.in_keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let mul_trunc ~order a b =
  if a.nvars <> b.nvars then invalid_arg "Poly.mul_trunc: arity mismatch";
  let tail = graded_tail ~order a b in
  let na = Array.length a.keys and nb = Array.length b.keys in
  let keep =
    match plan_for a.nvars order with
    | Some pl when na > 0 && nb > 0 ->
      (* key addition is monotone (and carry-free for factors in the
         plan), so every kept product key lies between the smallest and
         the largest product key: the plan's input monomials in that key
         range are the ranks the sweep visits *)
      let r_lo = first_at_least pl (a.keys.(0) + b.keys.(0)) in
      let r_hi = first_at_least pl (a.keys.(na - 1) + b.keys.(nb - 1) + 1) - 1 in
      let s = dense_scratch pl in
      if r_hi - r_lo < max_span_per_product * na * nb
         && rank_terms pl b.keys s.rb
         && rank_terms pl a.keys s.ra
      then dense_mul_trunc pl s a b ~r_lo ~r_hi
      else generic_mul_trunc ~order a b
    | _ -> generic_mul_trunc ~order a b
  in
  (keep, tail)

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
