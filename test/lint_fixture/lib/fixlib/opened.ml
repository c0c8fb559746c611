let through_open = 1
