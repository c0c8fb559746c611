let v = Fixlib.Tested.only_from_test
