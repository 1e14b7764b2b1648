(** Re-export of {!Rhodos_util.Event_bus}, the one hook mechanism. *)
include module type of struct include Rhodos_util.Event_bus end
