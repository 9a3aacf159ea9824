(** Cell-level multiplexing at a switch output port.

    Section III claims that "because all traffic entering the network is
    CBR, RCBR requires minimal buffering and scheduling support in
    switches" — a FIFO and a few cells of buffer suffice.  This
    simulator checks that claim at cell granularity: several sources
    feed one output port, either {e paced} (RCBR-shaped piecewise-CBR,
    cells evenly spaced) or as {e frame bursts} (unshaped VBR, each
    frame's cells back-to-back at link speed), and we measure the FIFO
    occupancy and delay.

    Paced traffic keeps the queue at a handful of cells (one per
    simultaneously colliding source); frame bursts push it to thousands
    — the quantitative content of the paper's "minimal buffering". *)

type source =
  | Paced of { schedule : Rcbr_core.Schedule.t; offset : float }
      (** cells spaced [1 / cell_rate] apart at the schedule's current
          rate; [offset >= 0] delays the first cell (decollision phase) *)
  | Frame_burst of { trace : Rcbr_traffic.Trace.t; line_rate : float }
      (** each frame's cells emitted back-to-back at [line_rate] when
          the frame is produced *)

type stats = {
  cells : int;  (** cells offered *)
  lost : int;  (** cells dropped at a full buffer *)
  max_queue : int;  (** peak FIFO occupancy, cells *)
  mean_queue : float;  (** mean occupancy seen by arriving cells *)
  p99_queue : int;  (** 99th percentile of the same *)
  max_delay : float;  (** worst queueing delay, seconds *)
}

val arrivals :
  sources:source list -> duration:float -> (float * int) Seq.t
(** Merged cell arrival stream: [(time, source index)] pairs in
    chronological order, ending at [duration].  The common front-end of
    {!simulate} and {!Scheduler.simulate}. *)

val simulate :
  port_rate:float ->
  ?buffer_cells:int ->
  sources:source list ->
  duration:float ->
  unit ->
  stats
(** Run the port for [duration] seconds.  [buffer_cells] defaults to
    unbounded.  The FIFO is work-conserving; queue occupancy is sampled
    at every cell arrival (ASTA does not hold for paced traffic, but the
    arrival-sampled figures are exactly what a buffer-dimensioning
    exercise needs).  Requires a positive [port_rate] and [duration]. *)
