val only_from_test : int
