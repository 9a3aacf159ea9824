let default_signals = [ Sys.sigint; Sys.sigterm ]

(* Atomic rather than a bare ref: signal handlers run at safe points of
   whichever domain is active, and Atomic keeps the read in the poll
   loop from being hoisted. *)
let flag = Atomic.make false

let install_flag ?(signals = default_signals) () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set flag true)))
    signals

let requested () = Atomic.get flag

let install_exit ?(signals = default_signals) ?(code = 130) ~on_signal () =
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun signal ->
             on_signal signal;
             exit code)))
    signals

(* lint: allow R001 — fixture: the interrupt test undoes install_flag with it *)
let reset ?(signals = default_signals) () =
  List.iter (fun s -> Sys.set_signal s Sys.Signal_default) signals;
  Atomic.set flag false
