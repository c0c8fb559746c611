(* The traversal proper, over a caller-supplied manager (so the caller can
   snapshot the kernel counters afterwards).  Raises [Common.Out_of_budget]. *)
let traverse m budget ca cb =
  Common.arm_nodes budget m;
  let p = Symbolic.product ~check:(fun () -> Common.check_nodes budget m) m ca cb in
    let k = p.Symbolic.n_regs in
    (* Output-difference predicate over current state: exists an input
       distinguishing the two circuits. *)
    let diff =
      let d = ref (Bdd.zero m) in
      Array.iteri
        (fun j oa ->
          d := Bdd.or_ m !d (Bdd.xor_ m oa p.Symbolic.out_b.(j)))
        p.Symbolic.out_a;
      Common.check_nodes budget m;
      Bdd.exists m (List.init p.Symbolic.n_inputs p.Symbolic.inp_var) !d
    in
    (* Partitioned transition relation: one conjunct per next-state bit,
       conjoined in register order during image computation with {e early
       quantification} — each current-state/input variable is quantified
       out right after the last conjunct whose cone depends on it, so the
       intermediate product never carries a variable longer than needed
       (Burch et al.'s partitioned relations; the monolithic [R] it
       replaces was the peak-size bottleneck). *)
    let bits =
      Array.init k (fun i ->
          let b =
            Bdd.xnor_ m (Bdd.var m (p.Symbolic.nxt_var i)) p.Symbolic.next_fn.(i)
          in
          Common.check_nodes budget m;
          b)
    in
    let quantifiable =
      List.init k p.Symbolic.cur_var
      @ List.init p.Symbolic.n_inputs p.Symbolic.inp_var
    in
    (* last_occ.(v) = index of the last conjunct depending on variable v;
       the schedule is static because the conjunct supports are.  The
       frontier [s] itself only mentions current-state variables and is
       conjoined first, so it never delays a quantification. *)
    let vars_at = Array.make (k + 1) [] in
    let () =
      let last = Hashtbl.create 64 in
      Array.iteri
        (fun i b -> List.iter (fun v -> Hashtbl.replace last v i) (Bdd.support m b))
        bits;
      List.iter
        (fun v ->
          let i = match Hashtbl.find_opt last v with Some i -> i | None -> -1 in
          vars_at.(i + 1) <- v :: vars_at.(i + 1))
        quantifiable
    in
    let rename_next_to_cur f =
      Bdd.compose m f (fun v ->
          if v < 2 * k && v mod 2 = 1 then
            Some (Bdd.var m (v - 1))
          else None)
    in
    let peak_image = ref 0 in
    let image s =
      (* slot 0: variables no conjunct depends on (e.g. a register bit
         feeding nothing) leave the frontier immediately. *)
      let acc = ref (match vars_at.(0) with [] -> s | vs -> Bdd.exists m vs s) in
      Array.iteri
        (fun i b ->
          acc := Bdd.and_ m !acc b;
          Common.check_nodes budget m;
          (match vars_at.(i + 1) with
          | [] -> ()
          | vs -> acc := Bdd.exists m vs !acc);
          peak_image := max !peak_image (Bdd.size m !acc))
        bits;
      rename_next_to_cur !acc
    in
    let init_state =
      let s = ref (Bdd.one m) in
      Array.iteri
        (fun i b ->
          let v = Bdd.var m (p.Symbolic.cur_var i) in
          s := Bdd.and_ m !s (if b then v else Bdd.not_ m v))
        p.Symbolic.init;
      !s
    in
    let rec bfs reached frontier iters peak =
      Common.check_nodes budget m;
      if not (Bdd.is_zero m (Bdd.and_ m frontier diff)) then
        (Common.Not_equivalent "distinguishing reachable state", iters, peak)
      else begin
        let nxt = image frontier in
        let fresh = Bdd.and_ m nxt (Bdd.not_ m reached) in
        if Bdd.is_zero m fresh then (Common.Equivalent, iters, peak)
        else
          let reached' = Bdd.or_ m reached fresh in
          bfs reached' fresh (iters + 1)
            (max peak (Bdd.size m reached'))
      end
    in
    let r, iters, peak = bfs init_state init_state 0 (Bdd.size m init_state) in
    (r, iters, peak, !peak_image)

let equiv budget ca cb =
  Common.observe_bdd ~engine:"smv" (fun m ->
      let r, iters, peak, peak_img = traverse m budget ca cb in
      ( r,
        [
          ("bfs_iterations", float_of_int iters);
          ("peak_reached_size", float_of_int peak);
          ("peak_image_size", float_of_int peak_img);
        ] ))
