#!/bin/sh
# ts_sessionize flag rules that need more than an exit code to check.
#
# Usage: sessionize_flags.sh TOOLS_DIR CASE
#   serve-host-port-zero  --serve=127.0.0.1:0 binds an ephemeral port, as bare
#                         --serve=0 does, and SIGINT ends the process with 0.
#   checkpoint-needs-connect  --in=F --checkpoint-dir=D warns that the flag
#                         is ignored and writes nothing to D.
set -eu
TOOLS=$1
WORK=$(mktemp -d)
PID=
cleanup() {
  if [ -n "$PID" ]; then
    kill "$PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT
"$TOOLS/ts_trace_gen" --rate=500 --seconds=2 --seed=5 \
  --out="$WORK/trace.log" 2>/dev/null

case $2 in
serve-host-port-zero)
  "$TOOLS/ts_sessionize" --in="$WORK/trace.log" --serve=127.0.0.1:0 \
    --workers=1 > /dev/null 2> "$WORK/err.txt" < /dev/null &
  PID=$!
  tries=0
  until grep -q '^serving ' "$WORK/err.txt"; do
    tries=$((tries + 1))
    if [ $tries -gt 300 ] || ! kill -0 "$PID" 2>/dev/null; then
      echo "FAIL: no serving banner" >&2
      cat "$WORK/err.txt" >&2
      exit 1
    fi
    sleep 0.1
  done
  port=$(sed -n 's/^serving [0-9]* sessions on port \([0-9]*\) .*/\1/p' \
         "$WORK/err.txt")
  if [ -z "$port" ] || [ "$port" -eq 0 ]; then
    echo "FAIL: bound port '$port'" >&2
    exit 1
  fi
  kill -INT "$PID"
  status=0
  wait "$PID" || status=$?
  PID=
  test "$status" -eq 0
  ;;
checkpoint-needs-connect)
  mkdir "$WORK/ckpt"
  "$TOOLS/ts_sessionize" --in="$WORK/trace.log" --workers=1 \
    --checkpoint-dir="$WORK/ckpt" > /dev/null 2> "$WORK/err.txt"
  grep -q -- '--checkpoint-dir needs --connect; ignoring' "$WORK/err.txt"
  test -z "$(ls -A "$WORK/ckpt")"
  ;;
*)
  echo "unknown case $2" >&2
  exit 2
  ;;
esac
