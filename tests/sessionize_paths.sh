#!/bin/sh
# Every ts_sessionize input runs the same live kernel, so on one archive the
# report is byte-identical across --in at 1 and 4 workers and --connect to a
# ts_log_server serving that archive, at --inactivity_s=0 (no idle split)
# and at a finite window.
#
# Usage: sessionize_paths.sh TOOLS_DIR
set -eu
TOOLS=$1
WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$TOOLS/ts_trace_gen" --rate=2000 --seconds=6 --seed=11 \
  --out="$WORK/trace.log" 2>/dev/null

for window in 0 2; do
  for workers in 1 4; do
    "$TOOLS/ts_sessionize" --in="$WORK/trace.log" --workers=$workers \
      --top=10 --inactivity_s=$window > "$WORK/in_$workers.txt"
  done
  "$TOOLS/ts_log_server" --port=0 --in="$WORK/trace.log" --once --quiet \
    > "$WORK/port.txt" < /dev/null &
  SERVER_PID=$!
  tries=0
  until [ -s "$WORK/port.txt" ]; do
    tries=$((tries + 1))
    if [ $tries -gt 300 ]; then
      echo "FAIL: ts_log_server printed no port" >&2
      exit 1
    fi
    sleep 0.1
  done
  "$TOOLS/ts_sessionize" --connect=127.0.0.1:"$(head -1 "$WORK/port.txt")" \
    --workers=2 --top=10 --inactivity_s=$window > "$WORK/connect.txt"
  wait "$SERVER_PID"
  SERVER_PID=
  rm -f "$WORK/port.txt"

  grep -q '^sessions:' "$WORK/in_1.txt"
  for other in in_4 connect; do
    if ! cmp -s "$WORK/in_1.txt" "$WORK/$other.txt"; then
      echo "FAIL: --inactivity_s=$window: $other report differs from --in" \
           "at 1 worker" >&2
      diff "$WORK/in_1.txt" "$WORK/$other.txt" >&2 || true
      exit 1
    fi
  done
  echo "--inactivity_s=$window: $(head -2 "$WORK/in_1.txt" | tr '\n' ' ')"
done
