(* Sparse multivariate polynomials: the target representation for
   Bernstein approximations of neural-network controllers and the
   activation-derivative polynomials of Taylor-model composition.
   (Taylor models themselves store one coefficient per rank of a product
   plan; see lib/taylor/tm_plan.ml.)

   Representation: a monomial's exponent vector is packed into a single
   OCaml int, 4 bits per variable (so nvars <= 15 and every exponent
   <= 15). Packing makes monomial multiplication a plain integer
   addition and keeps the coefficient storage cheap. A product whose
   exponents would pass 15 raises instead of carrying into the next
   variable's nibble.

   Terms live in a pair of parallel arrays sorted by strictly ascending
   packed key, so [add] is a linear array merge.

   Bit-compatibility contract: every operation performs the SAME float
   additions in the SAME order as the historical Map implementation
   (ascending-key iteration; in [mul], contributions to one result key
   accumulate in ascending order of the left factor's key), including
   the Map's one irregular rule: a running sum of exactly 0.0 evicts its
   key, and a lone first contribution of 0.0 is kept. *)

module I = Dwv_interval.Interval

type t = { nvars : int; keys : int array; coeffs : float array }

let mk nvars keys coeffs = { nvars; keys; coeffs }

let max_vars = 15
let max_exponent = 15
let bits_per_var = 4

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
   LSD-radix-sorted by key into the output arrays.

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
   test keeps the scan off products of low degree. *)
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
