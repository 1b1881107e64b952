(** 48-bit Ethernet MAC addresses.

    Addresses are stored as immutable 6-byte strings.  All constructors
    validate their input; equality and hashing are structural. *)

type t
(** An Ethernet MAC address. *)

val broadcast : t
(** [ff:ff:ff:ff:ff:ff]. *)

val zero : t
(** [00:00:00:00:00:00], used as a "no address" placeholder. *)

val of_bytes : string -> t
(** [of_bytes s] interprets the 6-byte string [s] as a MAC address.
    @raise Invalid_argument if [String.length s <> 6]. *)

val to_bytes : t -> string
(** [to_bytes t] is the raw 6-byte representation. *)

val of_string : string -> t
(** [of_string "aa:bb:cc:dd:ee:ff"] parses the usual colon notation
    (case-insensitive).
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
(** Like {!of_string} but returning [None] on malformed input. *)

val to_string : t -> string
(** Lower-case colon notation, e.g. ["aa:bb:cc:dd:ee:ff"]. *)

val of_int64 : int64 -> t
(** [of_int64 n] uses the low 48 bits of [n], big-endian. *)

val to_int64 : t -> int64
(** Inverse of {!of_int64}. *)

val to_int : t -> int
(** The 48-bit value as a native [int], big-endian, allocating
    nothing. *)

val make_local : int -> t
(** [make_local i] is a deterministic locally-administered unicast address
    derived from [i]; distinct [i] in [0, 2^32) give distinct addresses. *)

val is_broadcast : t -> bool
val is_multicast : t -> bool
(** True iff the group bit (LSB of first octet) is set; broadcast included. *)

val is_unicast : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
