(** Incremental uniform-cell membership index over a fixed arena.

    Cell membership is maintained {e incrementally}: {!update} moves a
    member between cells only when its containing cell actually changed,
    so a refresh sweep over [n] members costs O(changed cells), not a
    wholesale O(n) rebuild.

    Members are small integer ids (node indices).  No coordinates are
    stored: the owner visits every member of the cells overlapping a
    query disk's bounding box — a superset of the true disk population —
    and filters against live positions.  [Net.Channel]'s
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

(** {1 Cell walk}

    Cell [(cx, cy)], [0 <= cx < cols], [0 <= cy < rows], has index
    [cy * cols + cx] and holds the members whose position [(x, y)] has
    [cx = floor (x / cell)] and [cy = floor (y / cell)], clamped to the
    grid.  The owner computes the cell box of a query from the [cell] it
    passed to {!create} and walks it with the accessors below: no
    closure and no float per query. *)

val cols : t -> int
val rows : t -> int

val members : t -> int -> int array
(** [members t c] is cell [c]'s member array; only its first
    [count t c] entries are members, in unspecified order.  The array is
    the index's own: it is valid until the next {!update} or {!remove}. *)

val count : t -> int -> int

type stats = { cells : int; occupied : int; max_occupancy : int }

val stats : t -> stats
(** Arena cell count, occupied cells and largest per-cell population —
    surfaced through [Obs.Telemetry]. *)
