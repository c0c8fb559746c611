val through_let_module : int
val hidden_by_let_module : int
