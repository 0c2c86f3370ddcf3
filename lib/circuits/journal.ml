(** Append-only journal of committed update batches — the durability
    primitive under {!Dyn.replay}: a fresh compile plus a replay of the
    journal reconstructs the exact served state, so a process restart (or
    a repair-from-scratch) never loses committed writes.

    Two record kinds share the commit sequence:

    - {b weight batches} — the input-key assignments of one committed
      propagation wave (the only record kind before structural updates);
    - {b structural ops} — one committed tuple insert or delete, recorded
      by the localized-recompile path so a replay can re-run the same
      splice against a fresh compile.

    Writes to keys the circuit does not read ({!append_unread}) become
    ordinary weight batches too, but one per run of such writes, holding
    the last value per key.

    Each record carries a checksum of its marshalled payload; {!verify}
    and {!load} re-derive the checksum so silent corruption (in memory or
    on disk) is detected before a replay can serve wrong answers. A
    record is held in memory as that payload, not as OCaml values: a
    weight batch costs its marshalled bytes, the GC never scans them, and
    the heap a long-lived journal adds grows with the bytes written
    rather than with the list cells of every write. The
    optional file form is a small length-prefixed binary format:

      magic "SPQJ1\n", then per record
      [4-byte length | 4-byte FNV-1a checksum | payload],

    payload = [Marshal] of the record body, records oldest-first. Weight
    batches keep the pre-structural encoding bit for bit (payload = the
    assignment list, length positive); a structural op is framed with the
    {e negated} payload length — readers from before the extension reject
    the negative length as implausible instead of misdecoding it, and
    weight-only journals written today remain byte-identical to the
    committed golden fixture. *)

(** One committed tuple insert or delete against a relation. *)
type structural_op = {
  s_insert : bool;  (** true = insert, false = delete *)
  s_rel : string;
  s_tup : int list;
}

type 'a record =
  | Weights of (Circuit.input_key * 'a) list  (** committed assignments, oldest first *)
  | Structural of structural_op

type 'a batch = {
  seq : int;  (** 0-based position in commit order *)
  op : 'a record;
  checksum : int;  (** FNV-1a (32-bit) of the marshalled payload *)
}

(** The weight assignments of a batch ([[]] for a structural op) — the
    accessor most consumers of pre-structural journals used. *)
let writes (b : 'a batch) : (Circuit.input_key * 'a) list =
  match b.op with Weights ws -> ws | Structural _ -> []

let structural (b : 'a batch) : structural_op option =
  match b.op with Weights _ -> None | Structural s -> Some s

(* A record as held: its marshalled body, decoded only when read back. *)
type packed = {
  p_seq : int;
  p_structural : bool;
  p_payload : string;
  p_checksum : int;
}

let unpack (p : packed) : 'a batch =
  let op =
    if p.p_structural then Structural (Marshal.from_string p.p_payload 0)
    else Weights (Marshal.from_string p.p_payload 0)
  in
  { seq = p.p_seq; op; checksum = p.p_checksum }

type 'a t = {
  mutable rev_packed : packed list;  (** newest first *)
  mutable count : int;
  mutable total_bytes : int;  (** marshalled payload bytes appended so far *)
  tail : (Circuit.input_key, 'a) Hashtbl.t;
      (** the open batch of {!append_unread}: latest value per key *)
  mutable tail_keys : Circuit.input_key list;  (** its keys, newest first *)
}

(* Durability observables (scope "dyn", next to the update-wave metrics the
   journal shadows): committed batches and their payload volume. *)
let m_journal_batches = Obs.counter ~scope:"dyn" "journal_batches"
let m_journal_bytes = Obs.counter ~scope:"dyn" "journal_bytes"
let m_journal_structural = Obs.counter ~scope:"dyn" "journal_structural_ops"

let create () : 'a t =
  { rev_packed = []; count = 0; total_bytes = 0; tail = Hashtbl.create 8; tail_keys = [] }

(* FNV-1a, 32-bit: cheap, stdlib-only, and stable across runs (unlike
   [Hashtbl.hash] on structured data it is defined on the exact bytes). *)
let checksum_bytes (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

(* The two payload encoders are kept separate (rather than marshalling the
   [record] variant) so weight batches stay byte-compatible with journals
   written before structural ops existed. *)
let encode_record (op : 'a record) : string =
  match op with
  | Weights ws -> Marshal.to_string ws []
  | Structural s -> Marshal.to_string s []

let push (t : 'a t) ~structural ~checksum (payload : string) : unit =
  let p = { p_seq = t.count; p_structural = structural; p_payload = payload; p_checksum = checksum } in
  t.rev_packed <- p :: t.rev_packed;
  t.count <- t.count + 1;
  t.total_bytes <- t.total_bytes + String.length payload;
  Obs.Counter.incr m_journal_batches;
  if structural then Obs.Counter.incr m_journal_structural;
  Obs.Counter.add m_journal_bytes (String.length payload)

let append_record (t : 'a t) (op : 'a record) : unit =
  let payload = encode_record op in
  let structural = match op with Structural _ -> true | Weights _ -> false in
  push t ~structural ~checksum:(checksum_bytes payload) payload

(* Close the open batch of [append_unread] into an ordinary weight batch,
   keys in first-write order. Runs before every other record and every
   read, so the journal never shows a write out of commit order. *)
let seal (t : 'a t) : unit =
  if t.tail_keys <> [] then begin
    let writes = List.rev_map (fun k -> (k, Hashtbl.find t.tail k)) t.tail_keys in
    Hashtbl.clear t.tail;
    t.tail_keys <- [];
    append_record t (Weights writes)
  end

(** Record one committed weight batch (empty batches are kept too: replay
    must preserve commit positions for the seq numbers to line up). *)
let append (t : 'a t) (writes : (Circuit.input_key * 'a) list) : unit =
  seal t;
  append_record t (Weights writes)

(** Record writes to input keys that no circuit reads until the next
    record — writes whose replay only remembers the last value per key,
    in any order. Consecutive calls share one open batch that keeps that
    last value per key, so a stream of such writes costs the journal one
    entry per distinct key rather than one batch per write. *)
let append_unread (t : 'a t) (writes : (Circuit.input_key * 'a) list) : unit =
  List.iter
    (fun (k, v) ->
      if not (Hashtbl.mem t.tail k) then t.tail_keys <- k :: t.tail_keys;
      Hashtbl.replace t.tail k v)
    writes

(** Record one committed structural update (tuple insert/delete). *)
let append_structural (t : 'a t) ~(insert : bool) ~(rel : string) ~(tup : int list) : unit =
  seal t;
  append_record t (Structural { s_insert = insert; s_rel = rel; s_tup = tup })

let packed_oldest_first (t : 'a t) : packed list =
  seal t;
  List.rev t.rev_packed

(** Batches oldest-first (commit order), decoded from their payloads. *)
let batches (t : 'a t) : 'a batch list =
  seal t;
  List.rev_map unpack t.rev_packed

(** [f] on every batch oldest-first, each decoded only for its call:
    unlike {!batches}, a replay never holds the whole journal decoded. *)
let iter (f : 'a batch -> unit) (t : 'a t) : unit =
  List.iter (fun p -> f (unpack p)) (packed_oldest_first t)

let length (t : 'a t) : int =
  seal t;
  t.count

let bytes (t : 'a t) : int =
  seal t;
  t.total_bytes

let structural_count (t : 'a t) : int =
  seal t;
  List.fold_left (fun acc p -> if p.p_structural then acc + 1 else acc) 0 t.rev_packed

(** Re-derive every checksum from the payload a replay would decode;
    [Some seq] is the first corrupt batch. *)
let verify (t : 'a t) : int option =
  List.find_map
    (fun p -> if checksum_bytes p.p_payload <> p.p_checksum then Some p.p_seq else None)
    (packed_oldest_first t)

let magic = "SPQJ1\n"

(** Write the journal to [path] in the length-prefixed binary format. *)
let save (t : 'a t) (path : string) : unit =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc magic;
  List.iter
    (fun p ->
      (* structural ops are framed with the negated length; weight batches
         keep the original positive-length frame *)
      let len = String.length p.p_payload in
      output_binary_int oc (if p.p_structural then -len else len);
      output_binary_int oc p.p_checksum;
      output_string oc p.p_payload)
    (packed_oldest_first t)

(** Read a journal back; every record's checksum is re-derived from the
    payload actually read, so truncation and bit flips surface as
    [Robust.Bad_input] here rather than as a wrong replayed state. *)
let load (path : string) : 'a t =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match really_input_string ic (String.length magic) with
  | m when m = magic -> ()
  | _ -> Robust.bad_input "Journal.load: %s is not an update journal (bad magic)" path
  | exception End_of_file ->
      Robust.bad_input "Journal.load: %s is not an update journal (too short)" path);
  let t = create () in
  let rec loop () =
    match input_binary_int ic with
    | exception End_of_file -> ()
    | tagged_len ->
        let structural = tagged_len < 0 in
        let len = abs tagged_len in
        if len = 0 && structural then
          Robust.bad_input "Journal.load: %s batch %d has implausible length %d" path
            t.count tagged_len;
        if len > 1 lsl 30 then
          Robust.bad_input "Journal.load: %s batch %d has implausible length %d" path
            t.count len;
        let stored = input_binary_int ic land 0xFFFFFFFF in
        let payload =
          try really_input_string ic len
          with End_of_file ->
            Robust.bad_input "Journal.load: %s truncated inside batch %d" path t.count
        in
        if checksum_bytes payload <> stored then
          Robust.bad_input "Journal.load: %s batch %d fails its checksum" path t.count;
        if structural then begin
          let s : structural_op = Marshal.from_string payload 0 in
          if s.s_rel = "" || List.exists (fun v -> v < 0) s.s_tup then
            Robust.bad_input "Journal.load: %s batch %d has a malformed structural op"
              path t.count;
          push t ~structural:true ~checksum:stored payload
        end
        else begin
          (* decoded once here so a payload that is not marshalled data
             fails the load, not a later replay *)
          let (_ : (Circuit.input_key * 'a) list) = Marshal.from_string payload 0 in
          push t ~structural:false ~checksum:stored payload
        end;
        loop ()
  in
  loop ();
  t
