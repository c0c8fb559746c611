let used_qualified = 1
let spelled_unit = 2

module Sub = struct
  let nested = 3
end
