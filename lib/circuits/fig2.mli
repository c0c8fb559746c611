(** The paper's scalable example (Figure 2): an n-bit datapath with an
    incrementer ([+1]), a comparator ([=]) and a multiplexer, one n-bit
    state register initialised to 0.

    {v
      x   = s + 1            (the f part: registers move over it)
      sel = (a = b)          (g)
      y   = sel ? x : b      (g)
      s'  = y ;   output y
    v}

    The retiming cut used throughout the paper's Table I is
    [f = {+1}], [g = {=, MUX}]; the retimed initial state is [0 + 1 = 1].

    [rt n] is the RT-level (word) version; [gate n] its bit-blasted
    gate-level expansion (what the verification baselines check);
    [false_cut_gates] reproduces Figure 4's invalid cut
    ([f = {=, MUX}, g = {+1}]). *)

val rt : int -> Circuit.t
val gate : int -> Circuit.t

val false_cut_gates : Circuit.t -> Circuit.signal list
(** The gates of the comparator and multiplexer — the paper's false cut
    (reads primary inputs). *)
