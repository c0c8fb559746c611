let only_from_test = 1
