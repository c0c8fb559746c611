let through_let_module = 1
let hidden_by_let_module = 2
