let through_reexport = 1
let hidden_by_reexport = 2
