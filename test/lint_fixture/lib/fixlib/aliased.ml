let through_alias = 1
