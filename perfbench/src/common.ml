(* Small helpers shared by the workloads: clocks, order statistics,
   /proc readers and file-system plumbing. Everything the benchmark
   writes lives under the run directory it was handed. *)

open Psdp_prelude

let now = Timer.now

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. [nan] on an empty array. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile xs 50.0

let mean xs =
  if Array.length xs = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* The highest whole percentile that still has at least ten requests
   beyond it at [n] requests (nearest rank). *)
let tail_percentile n = if n <= 20 then 50 else 100 * (n - 10) / n

(* The tail a workload reports. The requests are cut, in request order,
   into [tail_blocks n] consecutive blocks of at least [tail_block]
   (a run of fewer than two blocks is one block); each block's tail is
   its [tail_percentile], and the run reports the median block's tail.
   The machine the benchmark was defined on has slow spells of a few
   seconds: they set a whole run's p99, which spread 0.39 of its median
   over six seeds of cluster-repeat, while the median of 200-request
   blocks' p95 spread 0.11. A slowdown spread over the run still moves
   every block, so it still moves the median. *)
let tail_block = 200

let tail_blocks n = max 1 (n / tail_block)

let tail xs =
  let n = Array.length xs in
  let b = tail_blocks n in
  Array.init b (fun k ->
      let lo = k * n / b and hi = (k + 1) * n / b in
      percentile (Array.sub xs lo (hi - lo)) (float_of_int (tail_percentile (hi - lo))))
  |> median

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- /proc readers (Linux) ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report length 0, so read them line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop acc =
            match input_line ic with
            | l -> loop (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          loop [])

(* Clock ticks per second for /proc/<pid>/stat; 100 on every Linux
   configuration the benchmark targets (USER_HZ is fixed by the ABI). *)
let clk_tck = 100.0

(* User plus system CPU seconds of a live process. *)
let proc_cpu pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ -> (
      (* The command name (field 2) may contain spaces; fields after
         the closing parenthesis are space-separated. *)
      match String.rindex_opt line ')' with
      | None -> 0.0
      | Some i ->
          let rest = String.sub line (i + 2) (String.length line - i - 2) in
          let f = Array.of_list (String.split_on_char ' ' rest) in
          (* rest starts at field 3 (state); utime and stime are fields
             14 and 15. *)
          if Array.length f > 12 then
            (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck
          else 0.0)
  | [] -> 0.0

(* Peak resident set (VmHWM) of a live process, in MB. *)
let proc_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  List.fold_left
    (fun acc l ->
      if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
        match
          List.filter (( <> ) "")
            (String.split_on_char ' '
               (String.map (fun c -> if c = '\t' then ' ' else c) l))
        with
        | _ :: kb :: _ -> (
            match float_of_string_opt kb with
            | Some kb -> kb /. 1024.0
            | None -> acc)
        | _ -> acc
      else acc)
    0.0 (read_lines path)

(* User plus system CPU of this process, all domains. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- files ---------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let file_bytes path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let line_count path = List.length (read_lines path)

(* Whether [dir] sits on a tmpfs mount, from the longest matching mount
   point in /proc/self/mounts. *)
let on_tmpfs dir =
  let abs =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
    else dir
  in
  let best = ref ("", false) in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: mnt :: fstype :: _ ->
          let len = String.length mnt in
          let prefix =
            mnt = "/"
            || String.length abs >= len
               && String.sub abs 0 len = mnt
               && (String.length abs = len || abs.[len] = '/')
          in
          if prefix && len >= String.length (fst !best) then
            best := (mnt, fstype = "tmpfs")
      | _ -> ())
    (read_lines "/proc/self/mounts");
  snd !best

(* Stable request-local RNG: request [i] of a workload depends on the
   seed and its own index only, never on how many requests precede it. *)
let rng_for ~seed ~salt i =
  Rng.create ((seed * 1_000_003) + (salt * 7_919) + i)
