(** JSONL trace encoding: one flat JSON object per event, ["t"] in
    integer virtual nanoseconds, ints for every payload field, and a
    ["s"] string resolving the interned label for kinds that carry one
    ([tx]/[rx]/[col]/[ifq]: frame class, [drop]: reason, [evt]: name).

    The parser accepts flat objects of number and string fields, which
    is all the trace, telemetry and model-checker files hold — the
    toolchain ships no JSON library. *)

val sink : Bus.t -> out_channel -> Bus.sink
(** A bus sink writing one line per event to [oc].  The caller owns
    [oc] (flush/close when the run ends). *)

val escape : string -> string
(** The body of a JSON string literal for [s]: double quotes and
    backslashes are backslash-escaped, a newline is [\n] and every other
    byte below 0x20 is [\u00XX]; other bytes pass through.
    {!parse_line} decodes it back to [s]. *)

type value = Int of int | Float of float | Str of string

val parse_line : string -> (string * value) list option
(** Parse one flat JSON object; [None] on malformed input.  Numbers
    with a ['.'] or an exponent parse as [Float] (telemetry's
    gauge lines), plain integers as [Int].  Strings decode every JSON
    escape, [\uXXXX] (surrogate pairs included) as UTF-8. *)
