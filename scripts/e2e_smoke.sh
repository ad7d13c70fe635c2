#!/usr/bin/env bash
# End-to-end smoke of the three-process serving pipeline on loopback:
#
#   ts_log_server  ->  ts_sessionize --connect --serve  ->  ts_query
#
# Asserts a non-empty STATS and a GET wire round trip against the live
# query server. With --chaos, the same stream then runs a second time
# through the ts_chaos fault-injecting proxy (seeded kills + stalls) and
# the chaos run must converge to exactly the fault-free ingest and store
# counts — the shell-level version of the fault conformance suite.
#
# With --crash, the stream runs a third time with --checkpoint-dir: the
# sessionizer is kill -9'd mid-stream, restarted against the same directory,
# and must recover from its snapshot and converge to exactly the fault-free
# ingest and store counts — the shell-level version of the CrashRecovery
# conformance suite (see docs/RECOVERY.md).
#
# With --templates, a fourth run streams free-text payloads through
# ts_sessionize --mine-templates and asserts the TEMPLATES verb serves a
# non-empty ranked dictionary (see docs/ARCHITECTURE.md, ts_parse).
#
# With --cold, the same stream runs again through a deliberately tiny hot
# window (--store_mb=1 --cold-dir), so most sessions spill to cold segments,
# and a full-span RANGE plus a GET of the oldest (certainly cold) session
# must be byte-identical to the unbounded fault-free run — the shell-level
# version of the tiered-store serving contract (see docs/STORE.md).
#
# With --diskfault, the tiered + checkpointed pipeline runs once more with a
# deterministic disk-fault plan installed (--disk-fault-plan: ENOSPC windows
# and failed fsyncs against every snapshot and cold-segment write). The
# checkpointer must enter degraded mode and recover, nothing may shed, the
# served bytes must stay identical to the fault-free run, and a restart from
# the surviving snapshots + segments must restore the same state — the
# shell-level version of the DiskFaultConformance suite (docs/FAULT_TESTING.md).
#
# With --loadgen, the open-loop generator replaces the log server:
#
#   ts_loadgen  ->  ts_sessionize --connect --serve --shed-policy=oldest-open
#
# The generator subscribes to the consumer's query port for close latencies,
# and after the drain the STATS gauges must reconcile exactly:
# ingest_records == live_records_emitted + live_open_records +
# live_shed_records, and the wire total (ingest_records + live_shed_lines)
# must cover every scheduled record (see docs/LOADGEN.md).
#
# Usage: scripts/e2e_smoke.sh [build-dir] [--chaos] [--crash] [--templates]
#                             [--loadgen] [--cold] [--diskfault]
#   CHAOS_SEED=n   picks the fault plan for the chaos run (default 7; the
#                  effective plan is echoed to the chaos proxy's stderr).
set -euo pipefail

BUILD_DIR="build"
CHAOS=0
CRASH=0
TEMPLATES=0
LOADGEN=0
COLD=0
DISKFAULT=0
for arg in "$@"; do
  case "$arg" in
    --chaos) CHAOS=1 ;;
    --crash) CRASH=1 ;;
    --templates) TEMPLATES=1 ;;
    --loadgen) LOADGEN=1 ;;
    --cold) COLD=1 ;;
    --diskfault) DISKFAULT=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
TOOLS="$BUILD_DIR/tools"
# Every temp artifact this script creates — tool stdout/stderr captures, port
# files, checkpoint dirs, query dumps — lives under the single $WORK dir, and
# the EXIT trap is armed BEFORE mktemp runs so no early-exit path (set -e
# failures included) can leak it. cleanup() must therefore tolerate an empty
# $WORK: the trap can fire before the directory exists.
WORK=""
cleanup() {
  trap - EXIT
  kill $(jobs -p) >/dev/null 2>&1 || true
  # Belt and braces: no ts_log_server / ts_sessionize / ts_chaos child may
  # outlive the smoke run — a stray one (e.g. after a mid-script failure
  # while a kill -9'd sessionizer's server keeps serving) holds its port and
  # wedges CI until the job timeout. -P $$ scopes the sweep to our children.
  pkill -9 -P $$ -f 'ts_log_server|ts_sessionize|ts_chaos|ts_loadgen' \
    2>/dev/null || true
  if [ -n "$WORK" ]; then
    rm -rf "$WORK"
  fi
}
trap cleanup EXIT
WORK="$(mktemp -d)"

# Both runs must see the identical archive: same seed, rate, and duration.
GEN_ARGS=(--rate=20000 --seconds=3 --seed=11 --quiet)

# Reads the ephemeral port a tool prints first, alone on a line.
wait_port_file() {
  local port=""
  for _ in $(seq 100); do
    port="$(head -n1 "$1" 2>/dev/null || true)"
    [ -n "$port" ] && break
    sleep 0.1
  done
  echo "$port"
}

# stat_gauge <query-port> <gauge> — one STATS gauge value, empty on error.
stat_gauge() {
  "$TOOLS/ts_query" --connect=127.0.0.1:"$1" STATS 2>/dev/null \
    | awk -v g="$2" '$1==g{print $2}'
}

# start_sessionize <upstream-port> <tag> [extra flags...] — sets SESS_PID and
# QPORT.
start_sessionize() {
  local port="$1" tag="$2"
  shift 2
  "$TOOLS/ts_sessionize" --connect=127.0.0.1:"$port" --serve=0 \
    --inactivity_s=1 --workers=2 "$@" >"$WORK/$tag.out" 2>"$WORK/$tag.err" &
  SESS_PID=$!
  QPORT=""
  for _ in $(seq 100); do
    QPORT="$(sed -n 's/.*query server listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
      "$WORK/$tag.err" | head -n1)"
    [ -n "$QPORT" ] && break
    sleep 0.1
  done
  [ -n "$QPORT" ] || {
    echo "FAIL: $tag sessionizer reported no query port"
    cat "$WORK/$tag.err"
    exit 1
  }
}

# settle_counts <query-port> — waits for the ingest to drain and the store to
# stop moving (5 consecutive identical polls); sets RECORDS and SESSIONS.
settle_counts() {
  local last="" cur="" stable=0
  RECORDS=""
  SESSIONS=""
  for _ in $(seq 300); do
    RECORDS="$(stat_gauge "$1" ingest_records || true)"
    SESSIONS="$(stat_gauge "$1" store_sessions || true)"
    cur="$RECORDS/$SESSIONS"
    if [ -n "$RECORDS" ] && [ "$RECORDS" -gt 0 ] && [ "$cur" = "$last" ]; then
      stable=$((stable + 1))
      [ "$stable" -ge 5 ] && return 0
    else
      stable=0
    fi
    last="$cur"
    sleep 0.2
  done
  return 1
}

# ---- Fault-free run ---------------------------------------------------------

# 1. Log server on an ephemeral port (printed first, alone on a line).
"$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" --once \
  >"$WORK/ls.out" 2>"$WORK/ls.err" &
PORT="$(wait_port_file "$WORK/ls.out")"
[ -n "$PORT" ] || { echo "FAIL: log server reported no port"; exit 1; }

# 2. Sessionizer consuming the stream, serving ts_query on an ephemeral port.
# --workers=2 exercises the sharded live path (hash-partitioned LivePipeline).
start_sessionize "$PORT" sess

# 3. STATS round trip, non-empty once the stream drains.
COUNT=0
for _ in $(seq 150); do
  COUNT="$(stat_gauge "$QPORT" store_sessions || true)"
  [ -n "$COUNT" ] && [ "$COUNT" -gt 0 ] && break
  sleep 0.2
done
[ -n "$COUNT" ] && [ "$COUNT" -gt 0 ] || {
  echo "FAIL: store stayed empty"; cat "$WORK/sess.err"; exit 1; }

# In chaos/crash mode the fault-free totals are the reference: wait for the
# full drain, not just the first session.
BASE_RECORDS=""
BASE_SESSIONS=""
if [ "$CHAOS" -eq 1 ] || [ "$CRASH" -eq 1 ] || [ "$COLD" -eq 1 ] \
  || [ "$DISKFAULT" -eq 1 ]; then
  settle_counts "$QPORT" || {
    echo "FAIL: fault-free run never settled"; cat "$WORK/sess.err"; exit 1; }
  BASE_RECORDS="$RECORDS"
  BASE_SESSIONS="$SESSIONS"
  COUNT="$BASE_SESSIONS"
fi

# 4. GET round trip: pick any served session id, fetch it as a wire block.
# Capture to files before grepping: piping ts_query into an early-exiting
# reader (grep -q / awk exit) races SIGPIPE against pipefail.
"$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw \
  RANGE 0 99999999999999 1 >"$WORK/range.out"
ID="$(awk '/^#SESSION /{print $NF; exit}' "$WORK/range.out")"
[ -n "$ID" ] || { echo "FAIL: RANGE returned no session"; exit 1; }
"$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw GET "$ID" >"$WORK/get.out"
grep -q '^#SESSION ' "$WORK/get.out" || {
  echo "FAIL: GET $ID returned no block"; cat "$WORK/get.out"; exit 1; }

# In cold/diskfault mode this unbounded run is the byte-identity reference:
# dump the full-span RANGE (oldest-first) while the server is still up. $ID
# above came from `RANGE ... 1`, so it is the oldest session — guaranteed
# cold later.
if [ "$COLD" -eq 1 ] || [ "$DISKFAULT" -eq 1 ]; then
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw \
    RANGE 0 99999999999999 10000 >"$WORK/range_ref.out"
  grep -q '^#SESSION ' "$WORK/range_ref.out" || {
    echo "FAIL: reference RANGE returned no sessions"; exit 1; }
fi

kill -INT "$SESS_PID" 2>/dev/null || true
wait "$SESS_PID" 2>/dev/null || true
echo "e2e smoke OK: $COUNT sessions served on loopback; GET $ID round-tripped"

[ "$CHAOS" -eq 1 ] || [ "$CRASH" -eq 1 ] || [ "$TEMPLATES" -eq 1 ] \
  || [ "$LOADGEN" -eq 1 ] || [ "$COLD" -eq 1 ] || [ "$DISKFAULT" -eq 1 ] \
  || exit 0

# ---- Cold-tier run: tiny hot window, spill to segments, byte-identity -------

if [ "$COLD" -eq 1 ]; then
  # Fresh log server, same archive (same seed/rate/duration).
  "$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" --once \
    >"$WORK/lsc.out" 2>"$WORK/lsc.err" &
  CPORT="$(wait_port_file "$WORK/lsc.out")"
  [ -n "$CPORT" ] || { echo "FAIL: cold log server reported no port"; exit 1; }

  # A 1 MiB hot window forces most of the stream through the eviction ->
  # cold-segment path; 1 MiB segments keep several files on disk.
  start_sessionize "$CPORT" cold \
    --store_mb=1 --cold-dir="$WORK/cold" --cold_segment_mb=1

  settle_counts "$QPORT" || {
    echo "FAIL: cold run never settled"; cat "$WORK/cold.err"; exit 1; }
  [ "$RECORDS" = "$BASE_RECORDS" ] || {
    echo "FAIL: cold run ingested $RECORDS records, reference $BASE_RECORDS"
    cat "$WORK/cold.err"; exit 1; }

  COLD_SEGMENTS="$(stat_gauge "$QPORT" store_cold_segments || true)"
  COLD_SESSIONS="$(stat_gauge "$QPORT" store_cold_sessions || true)"
  [ -n "$COLD_SEGMENTS" ] && [ "$COLD_SEGMENTS" -ge 1 ] || {
    echo "FAIL: nothing spilled (store_cold_segments=${COLD_SEGMENTS:-empty})"
    cat "$WORK/cold.err"; exit 1; }

  # The serving contract: a RANGE spanning hot + cold and a GET that must be
  # answered from a cold segment are byte-identical to the unbounded run.
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw \
    RANGE 0 99999999999999 10000 >"$WORK/range_cold.out"
  cmp -s "$WORK/range_ref.out" "$WORK/range_cold.out" || {
    echo "FAIL: tiered RANGE differs from the unbounded reference"
    diff <(head -5 "$WORK/range_ref.out") <(head -5 "$WORK/range_cold.out") \
      || true
    exit 1; }
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw GET "$ID" \
    >"$WORK/get_cold.out"
  cmp -s "$WORK/get.out" "$WORK/get_cold.out" || {
    echo "FAIL: cold GET $ID differs from the unbounded reference"
    exit 1; }
  COLD_HITS="$(stat_gauge "$QPORT" store_cold_hits || true)"
  [ -n "$COLD_HITS" ] && [ "$COLD_HITS" -ge 1 ] || {
    echo "FAIL: queries never touched the cold tier (store_cold_hits=0)"
    exit 1; }

  kill -INT "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  echo "e2e cold OK: $COLD_SESSIONS sessions across $COLD_SEGMENTS cold" \
       "segment(s); RANGE and cold GET byte-identical to the unbounded run" \
       "($COLD_HITS cold hits)"
fi

# ---- Disk-fault run: ENOSPC/fsync storms on the durability layers, heal,
# ---- restart from the surviving snapshots + segments ------------------------

if [ "$DISKFAULT" -eq 1 ]; then
  # A deterministic plan (grammar: docs/FAULT_TESTING.md). The spill thread
  # coalesces the eviction queue into one large batch while it is in backoff,
  # so a single WriteColdSegment retry sequence can sweep through EVERY window
  # below — the window args must sum to < 8 (the default spill_retry_limit) or
  # the batch would be shed and the served bytes would no longer be comparable.
  # Here the worst case is 6 consecutive spill failures: degrade, retry, heal.
  DF_PLAN="$WORK/disk_plan.txt"
  cat >"$DF_PLAN" <<'EOF'
# ts_fault plan v1
seed 0
profile manual
enospc at=0 arg=2
fsyncfail at=0 arg=1
enospc at=2000000 arg=2
eio at=4000000 arg=1
EOF

  # No --once: the restart leg below reconnects to resume from its snapshot.
  "$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" \
    >"$WORK/lsd.out" 2>"$WORK/lsd.err" &
  DPORT="$(wait_port_file "$WORK/lsd.out")"
  [ -n "$DPORT" ] || {
    echo "FAIL: diskfault log server reported no port"; exit 1; }

  DF_CKPT="$WORK/df_ckpt"
  DF_COLD="$WORK/df_cold"
  start_sessionize "$DPORT" dfault \
    --store_mb=1 --cold-dir="$DF_COLD" --cold_segment_mb=1 \
    --checkpoint-dir="$DF_CKPT" --ckpt_interval_s=0.05 \
    --disk-fault-plan="$DF_PLAN"

  settle_counts "$QPORT" || {
    echo "FAIL: diskfault run never settled"; cat "$WORK/dfault.err"; exit 1; }
  [ "$RECORDS" = "$BASE_RECORDS" ] || {
    echo "FAIL: diskfault run ingested $RECORDS records, reference" \
         "$BASE_RECORDS"
    cat "$WORK/dfault.err"; exit 1; }

  # The ingest settles while the spill thread may still be deep in its retry
  # backoff (each failed write costs up to 2 s of backoff). End of stream
  # rides those retries out: the final checkpoint waits on the cold tier's
  # FlushPending barrier, and says so on stderr if the barrier never drained.
  # So the heal evidence is, after the `serving` banner that follows it: the
  # barrier drained (every session evicted before the final checkpoint is in
  # a segment), that checkpoint landed, the plan fired, and segments exist.
  # (The spill queue itself need not be empty by then: the sessions Finish()
  # force-closes after the final checkpoint may stay queued below one
  # segment's worth, so sampling for an empty queue raced with them.)
  for _ in $(seq 300); do
    grep -q '^serving ' "$WORK/dfault.err" && break
    sleep 0.1
  done
  DF_ENOSPC="$(stat_gauge "$QPORT" fault_disk_enospc_failures || true)"
  DF_SEGMENTS="$(stat_gauge "$QPORT" store_cold_segments || true)"
  grep -q '^serving ' "$WORK/dfault.err" \
    && ! grep -q 'barrier did not drain' "$WORK/dfault.err" \
    && grep -q '^final checkpoint at offset' "$WORK/dfault.err" \
    && [ -n "$DF_ENOSPC" ] && [ "$DF_ENOSPC" -ge 1 ] \
    && [ -n "$DF_SEGMENTS" ] && [ "$DF_SEGMENTS" -ge 1 ] || {
    echo "FAIL: degraded window never healed:" \
         "enospc=${DF_ENOSPC:-empty} segments=${DF_SEGMENTS:-empty}"
    cat "$WORK/dfault.err"; exit 1; }
  # Finite fault windows must never reach the shed threshold.
  DF_SHED="$(stat_gauge "$QPORT" store_cold_shed_sessions || true)"
  [ "$DF_SHED" = "0" ] || {
    echo "FAIL: finite fault windows shed sessions" \
         "(store_cold_shed_sessions=${DF_SHED:-empty})"
    cat "$WORK/dfault.err"; exit 1; }

  # Storage degradation must never change the served bytes: RANGE over
  # hot + cold and a certainly-cold GET stay identical to the unbounded
  # fault-free reference.
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw \
    RANGE 0 99999999999999 10000 >"$WORK/range_df.out"
  cmp -s "$WORK/range_ref.out" "$WORK/range_df.out" || {
    echo "FAIL: disk-faulted RANGE differs from the unbounded reference"
    diff <(head -5 "$WORK/range_ref.out") <(head -5 "$WORK/range_df.out") \
      || true
    exit 1; }
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw GET "$ID" \
    >"$WORK/get_df.out"
  cmp -s "$WORK/get.out" "$WORK/get_df.out" || {
    echo "FAIL: disk-faulted GET $ID differs from the unbounded reference"
    exit 1; }

  # Graceful shutdown writes the final checkpoint (the disk has healed).
  kill -TERM "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  grep -q "final checkpoint" "$WORK/dfault.err" || {
    echo "FAIL: diskfault sessionizer wrote no final checkpoint"
    tail -20 "$WORK/dfault.err"; exit 1; }

  # Restart with a healthy disk against the same directories: every file the
  # faulted run published must be fully valid — restore, rediscover the
  # segments, and serve the identical bytes again.
  start_sessionize "$DPORT" dfault2 \
    --store_mb=1 --cold-dir="$DF_COLD" --cold_segment_mb=1 \
    --checkpoint-dir="$DF_CKPT" --ckpt_interval_s=0.05
  DF_RESTORED=0
  for _ in $(seq 100); do
    if grep -q "restored $DF_CKPT/" "$WORK/dfault2.err"; then
      DF_RESTORED=1
      break
    fi
    sleep 0.1
  done
  [ "$DF_RESTORED" -eq 1 ] || {
    echo "FAIL: restart restored no snapshot"; cat "$WORK/dfault2.err"; exit 1; }
  # In tiered mode store_sessions is the hot window only — converge on the
  # ingest total, then prove the content below with the RANGE byte-identity.
  DF_CONVERGED=0
  for _ in $(seq 300); do
    REC="$(stat_gauge "$QPORT" ingest_records || true)"
    if [ "$REC" = "$BASE_RECORDS" ]; then
      DF_CONVERGED=1
      break
    fi
    sleep 0.2
  done
  [ "$DF_CONVERGED" -eq 1 ] || {
    echo "FAIL: restart did not converge: records ${REC:-?}/$BASE_RECORDS"
    cat "$WORK/dfault2.err"; exit 1; }
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw \
    RANGE 0 99999999999999 10000 >"$WORK/range_df2.out"
  cmp -s "$WORK/range_ref.out" "$WORK/range_df2.out" || {
    echo "FAIL: restored RANGE differs from the unbounded reference"
    diff <(head -5 "$WORK/range_ref.out") <(head -5 "$WORK/range_df2.out") \
      || true
    exit 1; }

  kill -INT "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  echo "e2e diskfault OK: $DF_ENOSPC ENOSPC hit(s) absorbed," \
       "$DF_SEGMENTS cold segment(s), nothing shed;" \
       "served bytes identical before and after restart"
fi

[ "$CHAOS" -eq 1 ] || [ "$CRASH" -eq 1 ] || [ "$TEMPLATES" -eq 1 ] \
  || [ "$LOADGEN" -eq 1 ] || exit 0

# ---- Load-generator run: open-loop schedule, shed policy, exact STATS -------

if [ "$LOADGEN" -eq 1 ]; then
  # The generator is the TS1 server; it discovers the consumer's query port
  # through a file we write once the sessionizer has printed it.
  "$TOOLS/ts_loadgen" --rate=40000 --seconds=3 --seed=5 --inactivity_s=1 \
    --subscribe-port-file="$WORK/lg_qport" --subscribe-wait=30 \
    >"$WORK/lg.out" 2>"$WORK/lg.err" &
  LG_PID=$!
  LPORT="$(wait_port_file "$WORK/lg.out")"
  [ -n "$LPORT" ] || {
    echo "FAIL: loadgen reported no port"; cat "$WORK/lg.err"; exit 1; }

  # Tag must differ from the generator's lg.out/lg.err file pair.
  start_sessionize "$LPORT" lgsess --shed-policy=oldest-open
  echo "$QPORT" >"$WORK/lg_qport"

  # The generator paces the schedule, drains, waits for pending closes, and
  # exits nonzero on any transport failure or missed schedule.
  wait "$LG_PID" || {
    echo "FAIL: ts_loadgen exited nonzero"
    cat "$WORK/lg.out" "$WORK/lg.err"; exit 1; }
  settle_counts "$QPORT" || {
    echo "FAIL: loadgen run never settled"; cat "$WORK/lgsess.err"; exit 1; }

  SENT="$(sed -n 's/^loadgen sent=\([0-9]*\).*/\1/p' "$WORK/lg.out" | head -n1)"
  [ -n "$SENT" ] && [ "$SENT" -gt 0 ] || {
    echo "FAIL: loadgen reported no sent count"; cat "$WORK/lg.out"; exit 1; }
  EMITTED="$(stat_gauge "$QPORT" live_records_emitted)"
  OPEN="$(stat_gauge "$QPORT" live_open_records)"
  SHED_REC="$(stat_gauge "$QPORT" live_shed_records)"
  SHED_LINES="$(stat_gauge "$QPORT" live_shed_lines)"
  PFAIL="$(stat_gauge "$QPORT" ingest_parse_failures)"
  WM="$(stat_gauge "$QPORT" sessionize_watermark_ms)"

  [ "$PFAIL" = "0" ] || {
    echo "FAIL: parse failures: ${PFAIL:-empty}"; cat "$WORK/lgsess.err"; exit 1; }
  [ -n "$WM" ] && [ "$WM" -gt 0 ] || {
    echo "FAIL: watermark did not advance: ${WM:-empty}"; exit 1; }

  # Exact accounting, including the shed counters: every parsed record is in
  # the store, still open, or shed — nothing unaccounted.
  TOTAL=$((EMITTED + OPEN + SHED_REC))
  [ "$RECORDS" = "$TOTAL" ] || {
    echo "FAIL: STATS do not reconcile: ingest_records=$RECORDS !=" \
         "emitted=$EMITTED + open=$OPEN + shed_records=$SHED_REC"
    cat "$WORK/lgsess.err"; exit 1; }

  # Cross-process: every scheduled record reached the consumer (the drain
  # tail adds a handful of watermark-advancing records on top).
  WIRE=$((RECORDS + SHED_LINES))
  [ "$WIRE" -ge "$SENT" ] && [ "$WIRE" -le $((SENT + 50)) ] || {
    echo "FAIL: wire total $WIRE outside [$SENT, $((SENT + 50))]"
    cat "$WORK/lg.out"; exit 1; }

  kill -INT "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  echo "e2e loadgen OK: $SENT scheduled records reconciled exactly" \
       "(emitted=$EMITTED open=$OPEN shed_records=$SHED_REC" \
       "shed_lines=$SHED_LINES)"
fi

[ "$CHAOS" -eq 1 ] || [ "$CRASH" -eq 1 ] || [ "$TEMPLATES" -eq 1 ] || exit 0

# ---- Template-mining run: free-text payloads, TEMPLATES query ---------------

if [ "$TEMPLATES" -eq 1 ]; then
  # Free-text payload stream: multi-token log lines the miner can structure.
  "$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" --free_text --once \
    >"$WORK/lst.out" 2>"$WORK/lst.err" &
  TPORT="$(wait_port_file "$WORK/lst.out")"
  [ -n "$TPORT" ] || {
    echo "FAIL: template log server reported no port"; exit 1; }

  start_sessionize "$TPORT" tmpl --mine-templates

  # Wait for the stream to drain into the store before reading the dictionary.
  settle_counts "$QPORT" || {
    echo "FAIL: template run never settled"; cat "$WORK/tmpl.err"; exit 1; }

  # The dictionary gauge and the TEMPLATES verb must both see mined state.
  NTEMPL="$(stat_gauge "$QPORT" live_templates || true)"
  [ -n "$NTEMPL" ] && [ "$NTEMPL" -gt 0 ] || {
    echo "FAIL: live_templates gauge stayed ${NTEMPL:-empty}"
    cat "$WORK/tmpl.err"; exit 1; }

  # ts_query exits nonzero on #ERR (set -e catches it); --raw prints the
  # dictionary as wire-format TMPL lines.
  "$TOOLS/ts_query" --connect=127.0.0.1:"$QPORT" --raw TEMPLATES 5 \
    >"$WORK/tmpl_query.out"
  TMPL_LINES="$(grep -c '^TMPL ' "$WORK/tmpl_query.out" || true)"
  [ -n "$TMPL_LINES" ] && [ "$TMPL_LINES" -ge 1 ] || {
    echo "FAIL: TEMPLATES served no TMPL lines"
    cat "$WORK/tmpl_query.out"; cat "$WORK/tmpl.err"; exit 1; }

  kill -INT "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  echo "e2e templates OK: $NTEMPL templates mined from $RECORDS records," \
       "TEMPLATES 5 served $TMPL_LINES entries"
fi

[ "$CHAOS" -eq 1 ] || [ "$CRASH" -eq 1 ] || exit 0

# ---- Crash run: kill -9 mid-stream, restart from the checkpoint dir ---------

if [ "$CRASH" -eq 1 ]; then
  CKPT_DIR="$WORK/ckpt"

  # Fresh log server, same archive. No --once: the killed client's severed
  # connection must not end the server before the restart replays the tail.
  "$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" \
    >"$WORK/ls3.out" 2>"$WORK/ls3.err" &
  KPORT="$(wait_port_file "$WORK/ls3.out")"
  [ -n "$KPORT" ] || { echo "FAIL: crash log server reported no port"; exit 1; }

  start_sessionize "$KPORT" crash1 \
    --checkpoint-dir="$CKPT_DIR" --ckpt_interval_s=0.05

  # SIGKILL the instant the first snapshot lands — typically mid-stream, and
  # never with any chance for a shutdown checkpoint.
  SNAPPED=0
  for _ in $(seq 200); do
    SNAPS="$(stat_gauge "$QPORT" ckpt_snapshots || true)"
    if [ -n "$SNAPS" ] && [ "$SNAPS" -ge 1 ]; then SNAPPED=1; break; fi
    sleep 0.05
  done
  [ "$SNAPPED" -eq 1 ] || {
    echo "FAIL: no snapshot before kill"; cat "$WORK/crash1.err"; exit 1; }
  KILL_RECORDS="$(stat_gauge "$QPORT" ingest_records || true)"
  kill -9 "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true

  # Restart against the same directory: it must restore a snapshot, resume
  # the stream at its offset, and converge to exactly the fault-free totals.
  start_sessionize "$KPORT" crash2 \
    --checkpoint-dir="$CKPT_DIR" --ckpt_interval_s=0.05
  # The restore banner prints after the query-server banner; give it a beat.
  RESTORED=0
  for _ in $(seq 100); do
    if grep -q "restored $CKPT_DIR/" "$WORK/crash2.err"; then
      RESTORED=1
      break
    fi
    sleep 0.1
  done
  [ "$RESTORED" -eq 1 ] || {
    echo "FAIL: restart restored no snapshot"; cat "$WORK/crash2.err"; exit 1; }

  CONVERGED=0
  for _ in $(seq 300); do
    REC="$(stat_gauge "$QPORT" ingest_records || true)"
    SES="$(stat_gauge "$QPORT" store_sessions || true)"
    if [ "$REC" = "$BASE_RECORDS" ] && [ "$SES" = "$BASE_SESSIONS" ]; then
      CONVERGED=1
      break
    fi
    sleep 0.2
  done
  [ "$CONVERGED" -eq 1 ] || {
    echo "FAIL: crash recovery did not converge:" \
         "records ${REC:-?}/${BASE_RECORDS} sessions ${SES:-?}/${BASE_SESSIONS}"
    echo "-- first incarnation (killed at ${KILL_RECORDS:-?} records):"
    tail -20 "$WORK/crash1.err"
    echo "-- restarted incarnation:"
    tail -20 "$WORK/crash2.err"
    exit 1
  }

  # Graceful shutdown: SIGTERM stops serving after a final checkpoint.
  kill -TERM "$SESS_PID" 2>/dev/null || true
  wait "$SESS_PID" 2>/dev/null || true
  grep -q "final checkpoint" "$WORK/crash2.err" || {
    echo "FAIL: restarted sessionizer wrote no final checkpoint"
    tail -20 "$WORK/crash2.err"
    exit 1
  }

  echo "e2e crash OK: killed at ${KILL_RECORDS:-?}/$BASE_RECORDS records," \
       "recovered and converged to $BASE_SESSIONS sessions /" \
       "$BASE_RECORDS records"
fi

[ "$CHAOS" -eq 1 ] || exit 0

# ---- Chaos run: the same stream through a fault-injecting proxy -------------

CHAOS_SEED="${CHAOS_SEED:-7}"

# Fresh log server, same archive. No --once here: injected kills sever its
# accepted connection and the ingest client reconnects (through the proxy) to
# resume — with --once the first kill would end the server instead.
"$TOOLS/ts_log_server" --port=0 "${GEN_ARGS[@]}" \
  >"$WORK/ls2.out" 2>"$WORK/ls2.err" &
UPORT="$(wait_port_file "$WORK/ls2.out")"
[ -n "$UPORT" ] || { echo "FAIL: chaos log server reported no port"; exit 1; }

# The proxy draws a seeded plan; --stream_kb spreads the fault offsets over
# roughly the archive's wire volume so kills land mid-stream, not just early.
"$TOOLS/ts_chaos" --upstream=127.0.0.1:"$UPORT" --port=0 \
  --seed="$CHAOS_SEED" --profile=mild --stream_kb=3000 \
  >"$WORK/chaos.out" 2>"$WORK/chaos.err" &
CHAOS_PID=$!
CPORT="$(wait_port_file "$WORK/chaos.out")"
[ -n "$CPORT" ] || {
  echo "FAIL: ts_chaos reported no port"; cat "$WORK/chaos.err"; exit 1; }

start_sessionize "$CPORT" chaos_sess

# The conformance assertion: despite kills and stalls, the pipeline must
# converge to exactly the fault-free totals — same records in, same sessions.
CONVERGED=0
for _ in $(seq 300); do
  REC="$(stat_gauge "$QPORT" ingest_records || true)"
  SES="$(stat_gauge "$QPORT" store_sessions || true)"
  if [ "$REC" = "$BASE_RECORDS" ] && [ "$SES" = "$BASE_SESSIONS" ]; then
    CONVERGED=1
    break
  fi
  sleep 0.2
done
[ "$CONVERGED" -eq 1 ] || {
  echo "FAIL: chaos run (seed $CHAOS_SEED) did not converge:" \
       "records ${REC:-?}/${BASE_RECORDS} sessions ${SES:-?}/${BASE_SESSIONS}"
  echo "-- chaos proxy (replay with CHAOS_SEED=$CHAOS_SEED):"
  cat "$WORK/chaos.err"
  echo "-- sessionizer:"
  tail -20 "$WORK/chaos_sess.err"
  exit 1
}

kill -INT "$SESS_PID" 2>/dev/null || true
wait "$SESS_PID" 2>/dev/null || true
kill -INT "$CHAOS_PID" 2>/dev/null || true
wait "$CHAOS_PID" 2>/dev/null || true
FAULTS="$(sed -n 's/^chaos: //p' "$WORK/chaos.err" | head -n1)"
echo "e2e chaos OK: seed $CHAOS_SEED converged to $BASE_SESSIONS sessions /" \
     "$BASE_RECORDS records (${FAULTS:-no stats})"
