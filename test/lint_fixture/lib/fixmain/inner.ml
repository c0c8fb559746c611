let inside = 1
