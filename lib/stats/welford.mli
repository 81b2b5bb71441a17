(** Streaming mean/variance (Welford's algorithm) and Student-t 95 %
    confidence intervals — the error bars of the paper's plots. *)

type t

val create : unit -> t
val add : t -> float -> unit

val of_array : float array -> t
(** The samples added in index order (a table column in seed order). *)

val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val stddev : t -> float

val ci95 : t -> float
(** Half-width of the 95 % confidence interval of the mean; 0 with fewer
    than two samples. *)

val t_critical : df:int -> float
(** Two-sided 95 % Student-t critical value. *)
