let self_only = 1
let public = self_only + 1
