(** Basic derived equality rules, built purely from the kernel rules. *)

type thm = Kernel.thm

val sym : thm -> thm
(** [|- a = b] to [|- b = a]. *)

val ap_term : Term.t -> thm -> thm
(** [|- a = b] to [|- f a = f b]. *)

val ap_thm : thm -> Term.t -> thm
(** [|- f = g] to [|- f x = g x]. *)

val alpha_link : Term.t -> Term.t -> thm
(** [alpha_link t1 t2] is [|- t1 = t2] for alpha-equivalent terms. *)

val beta_conv : Term.t -> thm
(** [beta_conv ((\x. b) s)] is [|- (\x. b) s = b[s/x]]. *)
