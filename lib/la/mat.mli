(** Dense row-major matrices: arithmetic, LU solve, matrix exponential,
    spectral norm. Sized for the small systems of the paper (n = 2..3,
    NN layers up to a few hundred weights). *)

type t

(** [create rows cols x] is a rows*cols matrix filled with [x]. *)
val create : int -> int -> float -> t

val zeros : int -> int -> t
val identity : int -> t

(** [init rows cols f] has entry [(i,j)] equal to [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** Build from a list of row arrays; raises on ragged input. *)
val of_rows : float array list -> t

(** [(rows, cols)]. *)
val dims : t -> int * int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t

(** Copy of row [i]. *)
val row : t -> int -> float array

(** Copy of column [j]. *)
val col : t -> int -> float array

val transpose : t -> t
val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val matmul : t -> t -> t

(** Matrix-vector product. *)
val matvec : t -> float array -> float array

(** [matvec_into m v dst] writes [matvec m v] into [dst], bit for bit,
    without allocating. Raises unless [v] has [cols] entries and [dst]
    has [rows]; [dst] must not be [v]. *)
val matvec_into : t -> float array -> float array -> unit

(** [matvec_affine m v] is [matvec m (Array.append v [| 1.0 |])], bit
    for bit, without the extended vector: the last column is a bias.
    Raises unless [m] has one more column than [v] has entries. *)
val matvec_affine : t -> float array -> float array

(** {2 Flat row-major kernels}

    The loops of {!matmul} and {!matvec} on bare arrays, for kernels
    that keep their matrices in caller-owned buffers: the same sums in
    the same order, so the results are bit for bit those of the
    allocating functions. No dimension checks beyond array bounds. *)

(** [matmul_flat ~rows ~inner ~cols a b dst]: [dst] (rows×cols) :=
    [a] (rows×inner) · [b] (inner×cols), each entry summed from 0.0 in
    [k] order, skipping zero entries of [a] as {!matmul} does. [dst]
    must not share storage with [a] or [b]. *)
val matmul_flat :
  rows:int -> inner:int -> cols:int -> float array -> float array -> float array -> unit

(** [matvec_flat ~rows ~cols m v dst]: [dst] (rows) := [m] (rows×cols)
    · [v]; [dst] must not be [v]. *)
val matvec_flat : rows:int -> cols:int -> float array -> float array -> float array -> unit

(** A copy of the entries, row-major. *)
val to_flat : t -> float array

(** Row-vector-matrix product (vᵀM). *)
val vecmat : float array -> t -> float array

(** Outer product u vᵀ. *)
val outer : float array -> float array -> t

(** Frobenius norm. *)
val norm_fro : t -> float

(** Induced infinity norm (max absolute row sum). *)
val norm_inf : t -> float

(** LU decomposition with partial pivoting; raises [Failure] if singular. *)
val lu_decompose : t -> t * int array

(** Solve with a precomputed decomposition. *)
val lu_solve : t * int array -> float array -> float array

(** Solve [a x = b]. *)
val solve : t -> float array -> float array

(** Matrix inverse; raises [Failure] if singular. *)
val inverse : t -> t

(** Matrix exponential (scaling-and-squaring, degree-16 Taylor kernel). *)
val expm : t -> t

(** [integral_expm a t] is the convolution integral ∫₀ᵗ exp(a s) ds,
    valid for singular [a] (augmented-matrix method). *)
val integral_expm : t -> float -> t

(** Largest singular value by power iteration (default 100 iterations). *)
val spectral_norm : ?iters:int -> t -> float

(** Entrywise comparison with absolute tolerance (default 1e-9). *)
val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
