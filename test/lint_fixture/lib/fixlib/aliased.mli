val through_alias : int
