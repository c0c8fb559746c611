(* Retiming daemon front end.

     dune exec bin/serve.exe                      -- serve stdio
     dune exec bin/serve.exe -- --socket /tmp/hr.sock
     dune exec bin/serve.exe -- --tcp 127.0.0.1:7391
     dune exec bin/serve.exe -- --socket /tmp/hr.sock --tcp 0.0.0.0:7391 \
                                 --jobs 4 --cache 256 --shards 8

   Protocol: one JSON request per line, one JSON response per line (see
   the serve-protocol section of README.md).  Socket and TCP listeners
   accept concurrent connections and share one pool and proof cache;
   SIGINT/SIGTERM stop accepting, drain in-flight connections, unlink
   the socket path and exit 0. *)

open Cmdliner

let host_port =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
        | _ -> Error (`Msg ("invalid port: " ^ port)))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let run socket tcp jobs cache shards max_conns deadline =
  let jobs = max 1 jobs in
  let cache = max 1 cache in
  let shards = max 1 shards in
  let max_connections = max 1 max_conns in
  let deadline = if deadline > 0.0 then deadline else 30.0 in
  (* In listener mode, block SIGINT/SIGTERM before spawning ANY thread
     or domain — [Serve.create] starts worker domains, and a signal is
     delivered to whichever thread has it unblocked, so masking after
     [create] leaves a window where a worker domain takes the default
     (terminating) action.  The blocked signals are consumed
     synchronously in a dedicated thread below: an asynchronous
     [Sys.Signal_handle] is not guaranteed to run while every thread of
     the daemon is parked in [select]/condition waits, but
     [Thread.wait_signal] is. *)
  let stop_signals = [ Sys.sigint; Sys.sigterm ] in
  if socket <> None || tcp <> None then
    ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals);
  (* Every HASH step frees its normaliser memos when it returns
     ([Logic.Conv.with_step]), so most of what the daemon promotes dies
     when its step ends and the live heap stays small (about 50 MiB on
     the service benchmark's mixed workload).  At the default major-GC
     pace (space_overhead 120) that garbage piled up to four to eight
     times the live heap, by an amount that changed from run to run with
     the timing of requests; at 80 the peak RSS is about half as high
     and varies far less (EXPERIMENTS.md, "Steady peak RSS"). *)
  Gc.set { (Gc.get ()) with space_overhead = 80 };
  let t =
    Serve.create ~jobs ~cache_capacity:cache ~shards
      ~default_deadline_s:deadline ()
  in
  (match (socket, tcp) with
  | None, None -> Serve.run_stdio t
  | _ ->
      let listeners =
        (match socket with
        | Some path ->
            Printf.eprintf "serving on %s (%d jobs, cache %d, %d shards)\n%!"
              path jobs cache shards;
            [ Serve.listen_unix ~max_connections t ~path ]
        | None -> [])
        @
        match tcp with
        | Some (host, port) ->
            let l = Serve.listen_tcp ~max_connections t ~host ~port in
            (match Serve.listener_addr l with
            | Unix.ADDR_INET (a, p) ->
                Printf.eprintf
                  "serving on tcp %s:%d (%d jobs, cache %d, %d shards)\n%!"
                  (Unix.string_of_inet_addr a)
                  p jobs cache shards
            | _ -> ());
            [ l ]
        | None -> []
      in
      ignore
        (Thread.create
           (fun () ->
             let _sg = Thread.wait_signal stop_signals in
             List.iter Serve.request_stop listeners)
           ());
      List.iter Serve.await listeners;
      Printf.eprintf "drained, exiting\n%!");
  Serve.shutdown t;
  0

let cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve on a Unix-domain socket instead of stdio.")
  in
  let tcp =
    Arg.(
      value
      & opt (some host_port) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve on a TCP socket (may be combined with $(b,--socket); \
             both listeners share the cache).  Port 0 picks a free port.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains (1 = run requests inline).")
  in
  let cache =
    Arg.(
      value & opt int 64
      & info [ "cache" ] ~docv:"N"
          ~doc:"Proof-cache capacity (LRU entries, split over the shards).")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N"
          ~doc:"Proof-cache shards (independent locks; 1 = one global LRU).")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent connections per listener; further connections wait \
             in the kernel backlog.")
  in
  let deadline =
    Arg.(
      value & opt float 30.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request deadline.")
  in
  let doc = "proof-caching retiming daemon (newline-delimited JSON)" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket $ tcp $ jobs $ cache $ shards $ max_conns $ deadline)

let () = exit (Cmd.eval' cmd)
