(* [Conv.rewrs_conv] as it stood before it indexed its rewrites by the
   head constant of their left-hand sides, kept as the reference of the
   differential property in test_hash.ml: it tries every rewrite in list
   order.  [first_conv] is a copy of [Conv]'s (not exported); the
   rewrites themselves are the production [Conv.rewr_conv]. *)

open Logic

let rec first_conv cs tm =
  match cs with
  | [] -> failwith "Conv.first_conv: no conversion applied"
  | c :: rest -> ( try c tm with Failure _ -> first_conv rest tm)

let rewrs_conv ths = first_conv (List.map Conv.rewr_conv ths)
