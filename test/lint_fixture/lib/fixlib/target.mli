val through_reexport : int
val hidden_by_reexport : int
