val through_include_reexport : int
val hidden_by_include_reexport : int
