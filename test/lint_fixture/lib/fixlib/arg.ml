let through_functor = 1
