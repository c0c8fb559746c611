val through_functor : int
