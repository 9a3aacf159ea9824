#!/usr/bin/env bash
# Daemon smoke: rcbr_switchd + rcbr_loadgen end to end (DESIGN.md §11).
#
# Four daemons on temp Unix sockets:
#   1. clean   — no faults; loadgen must exit 0 (switch empty + conserving).
#                The daemon polls for 50 us after each frame it serves and
#                then blocks, so over a 1 s idle gap after the storm it must
#                spend under 5 clock ticks of CPU (utime + stime from
#                /proc/PID/stat).  A second storm on the same daemon after
#                the gap (the path that blocks after polling) must print
#                the first storm's outcome hash.
#   2. one CPU — the clean storm with daemon and loadgen pinned to CPU 0
#                (taskset), where the daemon does not poll; same hash.
#   3. lossy A — drop/duplicate/reorder/delay/corrupt storm, seeded
#   4. lossy B — same seed; must print the SAME outcome hash as A
# Every daemon is stopped with SIGTERM and must drain gracefully:
# exit 0 with a "drained: ... violations=0" line.
#
# Usage: tools/daemon_smoke.sh   (Linux, after dune build; override BIN to
# point elsewhere, e.g. BIN=_build/default/bin)

set -euo pipefail

BIN=${BIN:-_build/default/bin}
TMP=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$TMP"' EXIT

TOPO="linear:3"
CAPACITY="1e6"
PIN=() # command prefix for both processes, e.g. (taskset -c 0)

start_daemon() { # $1: run tag
  SOCK="$TMP/rcbr-$1.sock"
  "${PIN[@]}" "$BIN/rcbr_switchd.exe" --socket "$SOCK" --topology "$TOPO" \
    --capacity "$CAPACITY" >"$TMP/switchd-$1.log" 2>&1 &
  DPID=$!
  for _ in $(seq 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "FAIL: daemon for run $1 never bound its socket" >&2
  cat "$TMP/switchd-$1.log" >&2
  return 1
}

stop_daemon() { # $1: run tag — graceful drain must succeed
  kill -TERM "$DPID"
  if ! wait "$DPID"; then
    echo "FAIL: daemon for run $1 exited nonzero (dirty drain)" >&2
    cat "$TMP/switchd-$1.log" >&2
    return 1
  fi
  DPID=""
  if ! grep -q "drained: .*violations=0" "$TMP/switchd-$1.log"; then
    echo "FAIL: daemon for run $1 reported violations at drain" >&2
    cat "$TMP/switchd-$1.log" >&2
    return 1
  fi
}

loadgen() { # $1: run tag, rest: extra flags — exit 0 = clean audit
  if ! "${PIN[@]}" "$BIN/rcbr_loadgen.exe" --socket "$SOCK" --topology "$TOPO" \
    --capacity "$CAPACITY" --calls 10 --rounds 4 --conns 3 --seed 99 \
    "${@:2}" >"$TMP/loadgen-$1.log" 2>&1; then
    echo "FAIL: loadgen run $1 reported a dirty switch" >&2
    cat "$TMP/loadgen-$1.log" >&2
    return 1
  fi
  grep "outcome-hash" "$TMP/loadgen-$1.log"
}

outcome_hash() { # $1: run tag
  grep -o 'outcome-hash=[0-9a-f]*' "$TMP/loadgen-$1.log"
}

same_hash() { # $1, $2: run tags whose storms must agree
  if [ "$(outcome_hash "$1")" != "$(outcome_hash "$2")" ]; then
    echo "FAIL: runs $1 and $2 diverged: $(outcome_hash "$1") vs $(outcome_hash "$2")" >&2
    exit 1
  fi
}

cpu_ticks() { # $1: pid — utime + stime, in clock ticks
  local fields
  # Fields 14 and 15 of /proc/PID/stat; the name in field 2 may hold
  # spaces, so count from its closing parenthesis.
  fields=$(sed 's/^.*) //' "/proc/$1/stat")
  set -- $fields
  echo $((${12} + ${13}))
}

echo "== clean run"
start_daemon clean
loadgen clean
before=$(cpu_ticks "$DPID")
sleep 1
idle=$(($(cpu_ticks "$DPID") - before))
if [ "$idle" -ge 5 ]; then
  echo "FAIL: idle daemon spent $idle clock ticks of CPU in 1 s — still polling?" >&2
  exit 1
fi
echo "idle daemon: $idle clock ticks in 1 s"
echo "== clean run, second storm on the same daemon"
loadgen clean-again
same_hash clean clean-again
stop_daemon clean

echo "== clean run on one CPU"
PIN=(taskset -c 0)
start_daemon clean-one-cpu
loadgen clean-one-cpu
stop_daemon clean-one-cpu
PIN=()
same_hash clean clean-one-cpu

LOSSY=(--drop 0.15 --duplicate 0.05 --reorder 0.05 --delay 0.05 --corrupt 0.08)

echo "== lossy run A"
start_daemon lossy-a
loadgen lossy-a "${LOSSY[@]}"
stop_daemon lossy-a

echo "== lossy run B (same seed)"
start_daemon lossy-b
loadgen lossy-b "${LOSSY[@]}"
stop_daemon lossy-b

same_hash lossy-a lossy-b

# The lossy plan must actually have exercised the fault machinery.
if ! grep -q "mangler: .*dropped=[1-9]" "$TMP/loadgen-lossy-a.log"; then
  echo "FAIL: lossy run dropped nothing — fault plan not applied?" >&2
  cat "$TMP/loadgen-lossy-a.log" >&2
  exit 1
fi

echo "daemon smoke OK: clean + lossy drained with violations=0," \
  "$(outcome_hash clean) reproduced twice, $(outcome_hash lossy-a) reproduced"
