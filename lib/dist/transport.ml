type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp ("127.0.0.1", p))
      | _ -> Error (Printf.sprintf "bad address %S (want unix:PATH or HOST:PORT)" s))
  | Some i ->
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      if scheme = "unix" then
        if rest = "" then Error "unix: address needs a path"
        else Ok (Unix_sock rest)
      else (
        match int_of_string_opt rest with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if scheme = "" then "127.0.0.1" else scheme), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

exception Closed
exception Protocol_failure of string

(* A dead peer must surface as an exception on write, not kill the
   process. Idempotent; set up before the first socket exists. *)
let ignore_sigpipe =
  lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.ADDR_INET (ip, port)

let listen ?(backlog = 64) addr =
  Lazy.force ignore_sigpipe;
  try
    (match addr with
    | Unix_sock path when Sys.file_exists path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ());
    let domain =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (match addr with
    | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix_sock _ -> ());
    Unix.bind fd (sockaddr_of addr);
    Unix.listen fd backlog;
    Ok fd
  with
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "listen %s: %s: %s %s" (addr_to_string addr) fn
               (Unix.error_message e) arg)
  | Failure msg -> Error msg

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (* valid bytes at the front of [rbuf] *)
  wlock : Mutex.t;
  max_payload : int;
  count_rx : int -> unit;
  count_tx : int -> unit;
  mutable closed : bool;
}

let of_fd ?(max_payload = Frame.default_max_payload) ?(count_rx = ignore)
    ?(count_tx = ignore) fd =
  Lazy.force ignore_sigpipe;
  {
    fd;
    rbuf = Bytes.create 4096;
    rlen = 0;
    wlock = Mutex.create ();
    max_payload;
    count_rx;
    count_tx;
    closed = false;
  }

let connect ?max_payload ?count_rx ?count_tx addr =
  Lazy.force ignore_sigpipe;
  try
    let domain =
      match addr with Unix_sock _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (* A refused dial must not keep its socket: a client redialling a
       dead address would run out of select()able descriptors. *)
    (try Unix.connect fd (sockaddr_of addr)
     with e ->
       Unix.close fd;
       raise e);
    Ok (of_fd ?max_payload ?count_rx ?count_tx fd)
  with
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "connect %s: %s: %s %s" (addr_to_string addr) fn
               (Unix.error_message e) arg)
  | Failure msg -> Error msg

let fd c = c.fd

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send c msg =
  let frame = Proto.encode msg in
  Mutex.lock c.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wlock)
    (fun () ->
      let n = String.length frame in
      let pos = ref 0 in
      (try
         while !pos < n do
           match Unix.write_substring c.fd frame !pos (n - !pos) with
           | k -> pos := !pos + k
           | exception Unix.Unix_error (Unix.EINTR, _, _) ->
               (* A signal (timer, SIGCHLD, ...) landed mid-write: the
                  kernel wrote nothing for this call, the frame is still
                  whole — retry the same range. *)
               ()
           | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
             -> (
               (* Non-blocking peers (the coordinator's accepted fds):
                  wait for writability rather than tear the frame. *)
               try ignore (Unix.select [] [ c.fd ] [] 1.0)
               with Unix.Unix_error (Unix.EINTR, _, _) -> ())
         done
       with
      | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise Closed);
      c.count_tx n)

let fill c =
  (* Grow so a read can always make progress; the cap on what we will
     *decode* is [max_payload], enforced in [pop] before the declared
     length influences any allocation here (the buffer grows only as
     fast as bytes actually arrive). *)
  if c.rlen = Bytes.length c.rbuf then begin
    let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 bigger 0 c.rlen;
    c.rbuf <- bigger
  end;
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> false
  | n ->
      c.count_rx n;
      c.rlen <- c.rlen + n;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      (* EINTR: interrupted before any bytes moved — not end-of-stream,
         just "nothing arrived this call"; the caller's loop retries. *)
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      false

let pop c =
  match Frame.decode ~max_payload:c.max_payload c.rbuf ~off:0 ~len:c.rlen with
  | Ok Frame.Incomplete -> None
  | Error e -> raise (Protocol_failure (Frame.error_to_string e))
  | Ok (Frame.Frame { tag; payload; size }) -> (
      Bytes.blit c.rbuf size c.rbuf 0 (c.rlen - size);
      c.rlen <- c.rlen - size;
      match Proto.decode ~tag payload with
      | Ok msg -> Some msg
      | Error e -> raise (Protocol_failure e))

let rec recv c =
  match pop c with
  | Some msg -> msg
  | None -> if fill c then recv c else raise Closed
