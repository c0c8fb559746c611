val through_include : int
