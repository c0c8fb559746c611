(** Retiming as a service: a long-lived daemon over newline-delimited
    JSON (stdio, Unix-domain socket or TCP) with a sharded
    fingerprint-keyed proof cache and concurrent connection handling.

    {2 Protocol}

    One request per line, one response per line, in request order per
    connection.  Request fields: ["blif"] (string, required), ["cut"]
    (["maximal"] (default) or a list of gate signal indices), ["level"]
    (["bit"] (default) or ["rt"]), ["deadline_s"] (positive number,
    server default otherwise; see {!section-deadlines}), ["id"] (any
    JSON value, echoed back), ["echo"] (boolean, default [true];
    [false] elides the ["blif"] and ["theorem"] members from a success
    response — on small circuits the echo dominates the response bytes,
    and a duplicate-heavy client already has the text it sent), and
    ["cert"] (boolean, default [false]; [true] records the synthesis
    proof and attaches an exportable certificate).

    With ["cert": true] a successful response additionally carries a
    ["cert"] member: the full proof certificate text ([Cert] format),
    replayable by [bin/check.exe] in a separate process.  Certificates
    are only produced by an actual kernel run: if the request is
    answered from the proof cache no proof was replayed, and rather
    than fabricate evidence the server answers an error with code
    ["cert_unavailable"] (retry against a cold cache, or via a
    gate-list cut, to force a run).  This holds at both cache levels and
    whatever the spelling of the request line: a certificate request
    that hits the cache always answers ["cert_unavailable"].

    A successful response carries [status = "ok"], the retimed netlist
    as BLIF text (["blif"]), the kernel theorem (["theorem"]),
    gate/flip-flop statistics and a ["cache"] object (hit flag,
    fingerprint digest, hit/miss/eviction counters aggregated over the
    shards).  A failed request carries [status = "error"] and an
    [error] object whose [code] names a {!Protocol.error_code} constructor in
    snake case (["bad_request"], ["deadline_exceeded"], ...) — every
    typed exception of the stack maps to a code; ["internal"] means a
    bug.

    {3:deadlines Deadlines}

    A request's deadline runs from the moment its line is read.  It
    bounds waiting for a worker domain and running on it: every request
    that misses the exact-text cache — fingerprint hits and malformed
    netlists included — is one pool task, and a task that starts after
    the deadline answers ["deadline_exceeded"].  Exact-text
    repeats need no worker and are answered whatever the deadline.

    {3 Batching}

    A line of the form [{"batch": [req, req, ...]}] processes every
    element as its own request and answers with a single line holding a
    JSON {e array} of responses, in order.  Items succeed or fail
    independently (a malformed item yields an error object in its slot)
    and the kernel work of the misses fans out over the pool
    concurrently, so fleets of small circuits pay the per-line protocol
    overhead once per batch instead of once per circuit.  Batches do
    not nest; at most 4096 items per batch.

    {2 Cache semantics}

    Only [maximal]-cut requests are cached; explicit gate-list cuts
    refer to signal indices of one specific representation and always
    run the kernel.  An exact-text level answers repeats of the same
    BLIF text (as decoded from the JSON string, however the request
    line around it is spelled) without parsing it; behind it, a
    fingerprint level answers a structurally identical (isomorphic)
    circuit with the theorem proved for the earlier request.
    {!Proof_cache} states why neither level can answer for a different
    circuit.

    The counters in responses aggregate all [shards] lock-free: [hits]
    counts hits at either level, [evictions] counts LRU drops at either
    level, while [misses], [insertions] and [entries] describe the
    fingerprint cache. *)

type t

val create :
  ?jobs:int ->
  ?cache_capacity:int ->
  ?shards:int ->
  ?default_deadline_s:float ->
  unit ->
  t
(** At most [jobs] worker domains, and no more than the host's CPUs
    minus the connection domain: [max 1 (min jobs
    (Domain.recommended_domain_count () - 1))] when [jobs >= 2], each
    spawned when a request would otherwise wait for one (default 1 =
    inline, serialized across submitting threads); [cache_capacity]
    total LRU entries per level (default 64, split over the shards, each
    shard holding at least 1); [shards] cache shards (default 8, clamped
    to >= 1; [~shards:1] restores a single globally-ordered LRU);
    [default_deadline_s] for requests that carry none (default 30; a
    value that is not positive means the default). *)

val shutdown : t -> unit

val stats : t -> Obs.Json.t
(** Current cache counters and population aggregated over the shards,
    plus a ["shards"] field. *)

(** {2 Request processing} *)

val handle_line : t -> string -> string
(** Parse one request line, process it (through the pool, respecting its
    deadline) and return the response line — a JSON array line for a
    batch request.  Never raises: every failure becomes an error
    response.  Thread- and domain-safe: concurrent callers contend only
    on the cache shards they touch (and on the pool for everything past
    the exact-text cache). *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve newline-delimited requests until EOF.  The calling thread
    parses each line and answers exact-text repeats itself; every other
    request pipelines through the pool (parse, fingerprint, cache
    lookup and kernel work in one task).  Responses are written in
    request order by a per-connection writer thread. *)

val run_stdio : t -> unit

(** {2 Listeners}

    A listener owns a listening socket and an accept-loop thread that
    hands each connection to its own handler thread (bounded by
    [max_connections]; further connections queue in the kernel backlog
    until a slot frees).  Handlers block on IO and shard locks only —
    everything past the exact-text cache goes through the shared domain
    pool.  All listeners of a server share its pool and cache. *)

type listener

val listen_unix : ?max_connections:int -> t -> path:string -> listener
(** Bind a Unix-domain socket (replacing any stale file) and start
    accepting.  [max_connections] bounds concurrent handler threads
    (default 64). *)

val listen_tcp :
  ?max_connections:int -> t -> host:string -> port:int -> listener
(** Bind a TCP socket ([host] may be a dotted quad, [::1]-style IPv6
    literal or a name; [port] 0 picks a free port — see
    {!listener_addr}).  Same protocol and trust-boundary rejections as
    the Unix transport. *)

val listener_addr : listener -> Unix.sockaddr
(** The actual bound address (resolves TCP port 0). *)

val request_stop : listener -> unit
(** Ask the accept loop to stop.  Async-signal-safe (an atomic flag and
    a self-pipe write), so it may be called from a SIGINT/SIGTERM
    handler; returns immediately. *)

val await : listener -> unit
(** Block until the accept loop has stopped (see {!request_stop}), then
    close the listening socket, unlink the Unix path, and drain: every
    live connection is half-closed ([SHUTDOWN_RECEIVE]), so its handler
    finishes the requests already received — responses still go out —
    and an idle client cannot hold the shutdown open.  Connections still
    live after {!drain_deadline_s} are shut down both ways; then wait
    for every handler to exit.  Idempotent. *)

val drain_deadline_s : float
(** How long {!await} lets live connections finish after the half-close
    (2 s).  Then it shuts each remaining connection down both ways, so a
    writer blocked on a client that stopped reading fails and its
    handler exits. *)
