module T = Target
