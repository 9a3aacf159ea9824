let payload_bits = 384.
let wire_bits = 424.

let cells_of_bits bits =
  assert (bits >= 0.);
  int_of_float (Float.ceil (bits /. payload_bits))

let service_time ~port_rate =
  assert (port_rate > 0.);
  wire_bits /. port_rate

let cell_rate ~rate =
  assert (rate >= 0.);
  rate /. payload_bits
