(** The analysis driver, with the language modules its interface speaks
    of ({!Iolb_lang.Front}, {!Iolb_lang.Diag}), so a client of the driver
    needs no second library to name a parsed source or a diagnostic. *)

module Front = Iolb_lang.Front
module Diag = Iolb_lang.Diag
module Driver = Driver
