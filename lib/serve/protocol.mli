(** The daemon's wire protocol: the request record and its parser, the
    error taxonomy, and response rendering.  The protocol itself is
    documented in {!Serve}. *)

(** {2 Errors} *)

type error_code =
  | Bad_request
  | Invalid_netlist
  | Invalid_cut
  | Cut_mismatch
  | Join_mismatch
  | Kernel_invariant
  | Unsupported
  | Interface_mismatch
  | Deadline_exceeded
  | Cert_unavailable
      (** ["cert": true] on a request answered from the proof cache:
          no proof was replayed, so no certificate can honestly be
          produced. *)
  | Shutdown
  | Internal

val error_of_exn : exn -> error_code * string
(** Total mapping from the stack's typed exceptions to protocol errors;
    anything outside the taxonomy, [Failure] included, is [Internal]. *)

(** {2 Requests} *)

type cut_spec = Maximal | Gates of int list

type request = {
  id : Obs.Json.t option;  (** echoed back verbatim *)
  blif : string;
  level : Hash.Embed.level;
  cut : cut_spec;
  deadline_s : float;  (** positive, at most an hour *)
  echo : bool;
      (** [false] elides the retimed BLIF and theorem from an ok
          response *)
  cert : bool;
      (** [true] asks for a certificate of a proof this request runs *)
}

val parse_request :
  default_deadline_s:float -> Obs.Json.t -> (request, string) result
(** Validate one request object; [Error] carries the [bad_request]
    message. *)

(** {2 Responses} *)

(** A response stays structural until it is written, so a cache hit
    streams the entry's pre-rendered fields into the output buffer
    without building a response-sized string. *)
type response =
  | Rendered of string
  | Ok_body of {
      ok_id : Obs.Json.t option;
      ok_e : Proof_cache.entry;
      ok_echo : bool;
      ok_hit : bool;
      ok_cacheable : bool;
      ok_digest : string option;  (** hex; needs no JSON escaping *)
      ok_cert : string option;  (** recorded proof certificate text *)
      ok_snap : Proof_cache.totals;
      ok_wall : float;  (** seconds *)
    }

val error_response : ?id:Obs.Json.t -> error_code -> string -> response

val render_entry_fields :
  blif:string ->
  theorem:string ->
  gates:int * int ->
  ffs:int * int ->
  Proof_cache.entry
(** The JSON fragments of an ok response that depend only on the proof:
    gate and flip-flop counts before and after, the retimed BLIF and the
    theorem, escaped once. *)

val add_response : Buffer.t -> response -> unit
(** Append one response, without a trailing newline. *)
