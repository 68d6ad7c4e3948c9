(** The dune build profile this library was compiled under (["dev"] for
    a plain [dune build], ["release"] under [--profile release]). The
    value is generated from dune's [%{profile}] at build time. *)

val name : string
