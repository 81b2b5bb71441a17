(** Incremental uniform-cell membership index over a fixed arena.

    Cell membership is maintained {e incrementally}: {!update} moves a
    member between cells only when its containing cell actually changed,
    so a refresh sweep over [n] members costs O(changed cells), not a
    wholesale O(n) rebuild.

    Members are small integer ids (node indices).  No coordinates are
    stored: {!iter_disk} visits every member of the cells overlapping the
    query disk's bounding box — a superset of the true disk population —
    and the owner filters against live positions.  [Net.Channel]'s
    candidate handling is superset-invariant (exact distance filter, then
    deterministic ordering), so its outcomes are byte-identical to a
    naive scan. *)

type t

val create : cell:float -> width:float -> height:float -> ids:int -> t
(** [create ~cell ~width ~height ~ids] covers the arena
    [\[0,width\] x \[0,height\]] with square cells of side [cell] and
    accepts member ids in [\[0, ids)].  Positions slightly outside the
    arena clamp to the border cells. *)

val update : t -> int -> x:float -> y:float -> unit
(** [update t i ~x ~y] inserts member [i] at (x, y), or moves it if its
    containing cell changed.  O(1); free when the cell is unchanged. *)

val remove : t -> int -> unit
(** Remove member [i] (no-op when absent) — churn leave/crash. *)

val mem : t -> int -> bool
val population : t -> int

val iter_disk : t -> x:float -> y:float -> radius:float -> (int -> unit) -> unit
(** Visit every member of the cells overlapping the closed disk's
    bounding box — a superset of the members within [radius].  The caller
    filters by live distance.  Visit order is unspecified. *)

type stats = { cells : int; occupied : int; max_occupancy : int }

val stats : t -> stats
(** Arena cell count, occupied cells and largest per-cell population —
    surfaced through [Obs.Telemetry]. *)
