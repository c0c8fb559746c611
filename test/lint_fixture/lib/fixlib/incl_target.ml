let through_include_reexport = 1
let hidden_by_include_reexport = 2
