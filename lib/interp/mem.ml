(** Simulated shared memory: a table of blocks (globals, stack frames,
    heap allocations) of value cells.

    Every block carries a schedule-independent {!Runtime.Key.origin} so
    that log events and the final-state hash are comparable between a
    recording and a replay that allocated blocks in a different global
    order.

    Block ids are dense (allocated 1, 2, 3, ...), so the table is a
    growable array indexed by id rather than a hash table: every load and
    store resolves its block with a bounds check and an array read, which
    matters — the interpreter goes through here for each memory access of
    every simulated statement. *)

open Runtime

type block = {
  b_id : int;
  b_origin : Key.origin;
  cells : Value.t array;
  mutable b_freed : bool;
}

type t = {
  mutable blocks : block option array;  (** indexed by block id *)
  mutable next_id : int;
}

let create () = { blocks = Array.make 1024 None; next_id = 1 }

let find_opt (m : t) (id : int) : block option =
  if id >= 0 && id < Array.length m.blocks then Array.unsafe_get m.blocks id
  else None

let alloc (m : t) (origin : Key.origin) (size : int) : block =
  let b =
    {
      b_id = m.next_id;
      b_origin = origin;
      cells = Array.make (max size 0) Value.zero;
      b_freed = false;
    }
  in
  m.next_id <- m.next_id + 1;
  let n = Array.length m.blocks in
  if b.b_id >= n then begin
    let bigger = Array.make (max (2 * n) (b.b_id + 1)) None in
    Array.blit m.blocks 0 bigger 0 n;
    m.blocks <- bigger
  end;
  m.blocks.(b.b_id) <- Some b;
  b

let free (m : t) (id : int) =
  match find_opt m id with Some b -> b.b_freed <- true | None -> ()

let block (m : t) (id : int) : block =
  match find_opt m id with
  | Some b when not b.b_freed -> b
  | Some _ -> Value.fault "use of freed block b%d" id
  | None -> Value.fault "invalid block b%d" id

let load (m : t) (p : Value.ptr) : Value.t =
  let b = block m p.p_block in
  if p.p_off < 0 || p.p_off >= Array.length b.cells then
    Value.fault "out-of-bounds load at %a+%d (size %d)" Key.pp_origin
      b.b_origin p.p_off (Array.length b.cells)
  else Array.unsafe_get b.cells p.p_off

let store (m : t) (p : Value.ptr) (v : Value.t) : unit =
  let b = block m p.p_block in
  if p.p_off < 0 || p.p_off >= Array.length b.cells then
    Value.fault "out-of-bounds store at %a+%d (size %d)" Key.pp_origin
      b.b_origin p.p_off (Array.length b.cells)
  else Array.unsafe_set b.cells p.p_off v

(** Stable address of a pointer, for log keys. *)
let addr_key (m : t) (p : Value.ptr) : Key.addr =
  let b = block m p.p_block in
  { Key.a_origin = b.b_origin; a_off = p.p_off }

(* Injective, self-delimiting encoding for the state hash: every
   integer is 8 fixed-width bytes, every string carries its length, every
   origin and cell starts with a tag, so distinct memories never encode
   alike. *)
let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_origin buf (o : Key.origin) =
  let add_path p =
    add_int buf (List.length p);
    List.iter (add_int buf) p
  in
  match o with
  | Key.OGlobal g ->
      Buffer.add_char buf 'G';
      add_int buf (String.length g);
      Buffer.add_string buf g
  | Key.OFrame (p, n) ->
      Buffer.add_char buf 'F';
      add_path p;
      add_int buf n
  | Key.OHeap (p, n) ->
      Buffer.add_char buf 'H';
      add_path p;
      add_int buf n

(** Deterministic hash of all live global and heap memory, with pointer
    values canonicalized through their origins. Frames are excluded (they
    belong to still-running threads only at non-quiescent points; at
    program end all frames are gone anyway). One pass: the live blocks,
    sorted by origin, are encoded into one buffer whose MD5 gives the
    hash, so every block and every cell counts. *)
let state_hash (m : t) : int =
  let live = ref [] in
  Array.iter
    (function
      | Some ({ b_origin = Key.OGlobal _ | Key.OHeap _; b_freed = false; _ }
              as b) ->
          live := b :: !live
      | _ -> ())
    m.blocks;
  let buf = Buffer.create 4096 in
  List.iter
    (fun b ->
      add_origin buf b.b_origin;
      add_int buf (Array.length b.cells);
      Array.iter
        (function
          | Value.VInt n ->
              Buffer.add_char buf 'i';
              add_int buf n
          | Value.VPtr p -> (
              match find_opt m p.p_block with
              | Some t ->
                  Buffer.add_char buf 'p';
                  add_origin buf t.b_origin;
                  add_int buf p.p_off
              | None -> Buffer.add_char buf 'd')
          | Value.VFun f ->
              Buffer.add_char buf 'f';
              add_int buf (String.length f);
              Buffer.add_string buf f)
        b.cells)
    (List.sort (fun a b -> Key.compare_origin a.b_origin b.b_origin) !live);
  Int64.to_int (String.get_int64_le (Digest.string (Buffer.contents buf)) 0)
