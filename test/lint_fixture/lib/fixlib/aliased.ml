let through_alias = 1
let hidden_by_alias = 2
