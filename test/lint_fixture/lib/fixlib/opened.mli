val through_open : int
