(** The bound functions of Proposition 4.6.

    For an interval representation of width k, the construction produces at
    most [f k] lanes, embeds the weak completion with congestion at most
    [g k], and the completion with congestion at most [h k]:

    - f 1 = 1,  f k = 2 + 2(k-1)·f(k-1)
    - g 1 = 0,  g k = 2 + g(k-1) + 2k·f(k-1)
    - h k = g k + f k - 1 *)

val f : int -> int
val g : int -> int
val h : int -> int

val width_for_lanes : int -> int
(** [width_for_lanes m] is the least [w ≥ 1] with [f w ≥ m], so
    [width_for_lanes (f w) = w]. Values of [m] past [f 16] give 17, the
    first width whose bounds overflow a native int. *)
