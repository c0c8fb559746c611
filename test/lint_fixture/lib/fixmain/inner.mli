val inside : int
