val through_alias : int
val hidden_by_alias : int
