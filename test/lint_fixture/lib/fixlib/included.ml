let through_include = 1
