include module type of struct
  include Incl_target
end
