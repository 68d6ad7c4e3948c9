(* Dense row-major matrices with the factorisations the reproduction needs:
   LU solve (for matrix inverse inside the ZOH discretisation), the matrix
   exponential (scaling and squaring with a Taylor kernel), and power
   iteration for spectral norms (NN Lipschitz bounds). *)

type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let identity n =
  let m = zeros n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let of_rows rows_list =
  match rows_list with
  | [] -> invalid_arg "Mat.of_rows: empty"
  | r0 :: _ ->
    let cols = Array.length r0 in
    let rows = List.length rows_list in
    if List.exists (fun r -> Array.length r <> cols) rows_list then
      invalid_arg "Mat.of_rows: ragged rows";
    init rows cols (fun i j -> (List.nth rows_list i).(j))

let dims m = (m.rows, m.cols)

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Mat.set: out of bounds";
  m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let row m i = Array.sub m.data (i * m.cols) m.cols

let col m j = Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let map f m = { m with data = Array.map f m.data }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.sub: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale s m = map (fun x -> s *. x) m

(* The product loops on bare row-major arrays; [matmul], [matvec] and
   [matvec_into] are these loops on a matrix's data, and the flat
   zonotope kernel calls them directly. [matmul_flat] starts every
   entry of [dst] at 0.0 and skips zero entries of [a]. *)
let matmul_flat ~rows ~inner ~cols a b dst =
  Array.fill dst 0 (rows * cols) 0.0;
  for i = 0 to rows - 1 do
    for k = 0 to inner - 1 do
      let aik = a.((i * inner) + k) in
      if aik <> 0.0 then
        for j = 0 to cols - 1 do
          dst.((i * cols) + j) <- dst.((i * cols) + j) +. (aik *. b.((k * cols) + j))
        done
    done
  done

let matvec_flat ~rows ~cols m v dst =
  for i = 0 to rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to cols - 1 do
      acc := !acc +. (m.((i * cols) + j) *. v.(j))
    done;
    dst.(i) <- !acc
  done

let to_flat m = Array.copy m.data

let matmul a b =
  if a.cols <> b.rows then invalid_arg "Mat.matmul: dimension mismatch";
  let c = zeros a.rows b.cols in
  matmul_flat ~rows:a.rows ~inner:a.cols ~cols:b.cols a.data b.data c.data;
  c

let matvec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.matvec: dimension mismatch";
  let dst = Array.make m.rows 0.0 in
  matvec_flat ~rows:m.rows ~cols:m.cols m.data v dst;
  dst

(* [matvec] into [dst], which must be [rows] long and distinct from
   [v]: the same sums in the same order, with no allocation. *)
let matvec_into m v dst =
  if m.cols <> Array.length v || m.rows <> Array.length dst then
    invalid_arg "Mat.matvec_into: dimension mismatch";
  matvec_flat ~rows:m.rows ~cols:m.cols m.data v dst

(* [matvec] on [v; 1]: the same sums in the same order, from 0.0 and
   column by column, the last column added as it is (times 1.0 is
   exact). A loop over a result made once, so a call allocates the
   result and nothing else. *)
let matvec_affine m v =
  if m.cols <> Array.length v + 1 then invalid_arg "Mat.matvec_affine: dimension mismatch";
  let u = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 2 do
      acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
    done;
    u.(i) <- !acc +. m.data.((i * m.cols) + m.cols - 1)
  done;
  u

let vecmat v m =
  if m.rows <> Array.length v then invalid_arg "Mat.vecmat: dimension mismatch";
  Array.init m.cols (fun j ->
      let acc = ref 0.0 in
      for i = 0 to m.rows - 1 do
        acc := !acc +. (v.(i) *. m.data.((i * m.cols) + j))
      done;
      !acc)

let outer u v =
  init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let norm_fro m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let norm_inf m =
  let worst = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. Float.abs m.data.((i * m.cols) + j)
    done;
    if !acc > !worst then worst := !acc
  done;
  !worst

(* LU decomposition with partial pivoting; returns (lu, perm, sign) packed
   in a single matrix. Raises [Failure] on (numerically) singular input. *)
let lu_decompose m =
  if m.rows <> m.cols then invalid_arg "Mat.lu_decompose: square matrix required";
  let n = m.rows in
  let lu = copy m in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* pivot selection *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.data.((i * n) + k) > Float.abs lu.data.((!pivot * n) + k) then pivot := i
    done;
    if Float.abs lu.data.((!pivot * n) + k) < 1e-300 then failwith "Mat.lu_decompose: singular matrix";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = lu.data.((k * n) + j) in
        lu.data.((k * n) + j) <- lu.data.((!pivot * n) + j);
        lu.data.((!pivot * n) + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tmp
    end;
    for i = k + 1 to n - 1 do
      let factor = lu.data.((i * n) + k) /. lu.data.((k * n) + k) in
      lu.data.((i * n) + k) <- factor;
      for j = k + 1 to n - 1 do
        lu.data.((i * n) + j) <- lu.data.((i * n) + j) -. (factor *. lu.data.((k * n) + j))
      done
    done
  done;
  (lu, perm)

let lu_solve (lu, perm) b =
  let n = lu.rows in
  if Array.length b <> n then invalid_arg "Mat.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.data.((i * n) + j) *. x.(j))
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.data.((i * n) + j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.data.((i * n) + i)
  done;
  x

let solve a b = lu_solve (lu_decompose a) b

let inverse a =
  let n = a.rows in
  let lu = lu_decompose a in
  let inv = zeros n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let x = lu_solve lu e in
    for i = 0 to n - 1 do
      inv.data.((i * n) + j) <- x.(i)
    done
  done;
  inv

(* Matrix exponential by scaling-and-squaring over a degree-16 Taylor
   kernel. For the tiny matrices here this is accurate to ~1 ulp after
   scaling ||A|| below 0.5. *)
let expm a =
  if a.rows <> a.cols then invalid_arg "Mat.expm: square matrix required";
  let n = a.rows in
  let norm = norm_inf a in
  let squarings = max 0 (int_of_float (ceil (log (Float.max norm 1e-16) /. log 2.0)) + 1) in
  let scaled = scale (1.0 /. Float.of_int (1 lsl squarings)) a in
  let acc = ref (identity n) in
  let term = ref (identity n) in
  for k = 1 to 16 do
    term := scale (1.0 /. float_of_int k) (matmul !term scaled);
    acc := add !acc !term
  done;
  let result = ref !acc in
  for _ = 1 to squarings do
    result := matmul !result !result
  done;
  !result

(* integral_expm a t = ∫_0^t e^{As} ds, computed as the top-right block of
   exp([[A, I]; [0, 0]] t); exact for singular A as well, which matters for
   the ZOH discretisation B_d = (∫_0^δ e^{As} ds) B. *)
let integral_expm a t =
  if a.rows <> a.cols then invalid_arg "Mat.integral_expm: square matrix required";
  let n = a.rows in
  let aug = zeros (2 * n) (2 * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      aug.data.((i * 2 * n) + j) <- t *. a.data.((i * n) + j)
    done;
    aug.data.((i * 2 * n) + n + i) <- t
  done;
  let e = expm aug in
  init n n (fun i j -> e.data.((i * 2 * n) + n + j))

(* Largest singular value via power iteration on A^T A. *)
let spectral_norm ?(iters = 100) m =
  if m.rows = 0 || m.cols = 0 then 0.0
  else begin
    let v = ref (Array.make m.cols (1.0 /. sqrt (float_of_int m.cols))) in
    let sigma = ref 0.0 in
    for _ = 1 to iters do
      let av = matvec m !v in
      let atav = vecmat av m in
      let norm = Vec.norm2 atav in
      if norm > 1e-300 then v := Vec.scale (1.0 /. norm) atav;
      sigma := Vec.norm2 (matvec m !v)
    done;
    !sigma
  end

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && (let ok = ref true in
      Array.iteri (fun k x -> if Float.abs (x -. b.data.(k)) > eps then ok := false) a.data;
      !ok)

let pp ppf m =
  Fmt.pf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Fmt.pf ppf "%a@," Vec.pp (row m i)
  done;
  Fmt.pf ppf "@]"
