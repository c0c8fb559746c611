val self_only : int
val public : int
