(** A small LZ77 compressor, standing in for gzip when reporting
    compressed log sizes (Table 2) and compressing spilled log segments.
    Round-trips exactly. *)

(** Raised by {!decompress} on a stream no {!compress} output can be: a
    literal run or match header cut short, or a match reaching before
    the start of the output (distance 0 or beyond the bytes decoded so
    far). The payload says which, and at what offset. *)
exception Corrupt of string

val compress : string -> string

(** @raise Corrupt on a malformed stream. *)
val decompress : string -> string

val compressed_size : string -> int
