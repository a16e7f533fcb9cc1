#!/usr/bin/env bash
# Persistent-cache smoke test, as run by the CI `cache` job:
#
#   1. dump the PolyBench suite as IR and start a daemon with
#      --cache-dir over a fresh store,
#   2. cold pass: decompile every module (nothing may come from cache),
#   3. SIGTERM the daemon — drain flushes the store — and restart it
#      over the same directory,
#   4. warm pass: every function must answer from the persistent tier,
#      and the daemon-wide disk-tier hit rate must exceed 90%,
#   5. crash simulation: append torn garbage to the newest segment,
#      then prove recovery — `splendid cache verify` exits 0, reports
#      the dropped tail, and a fresh daemon still serves the store warm,
#   6. the C of every module is byte-identical across the cold, warm and
#      post-recovery passes (`diff -r` of the three output directories).
#
# Usage: scripts/cache_smoke.sh [--addr HOST:PORT]
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${2:-127.0.0.1:7893}"
SPLENDID=./target/release/splendid

cargo build --release -p splendid

WORK="$(mktemp -d)"
CACHE="$WORK/store"
IRDIR="$WORK/ir"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$SPLENDID" dump-polybench "$IRDIR"

start_daemon() {
  "$SPLENDID" daemon --addr "$ADDR" --cache-dir "$CACHE" &
  DAEMON_PID=$!
  for _ in $(seq 1 50); do
    if "$SPLENDID" connect --addr "$ADDR" --stats >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "daemon never came up on $ADDR" >&2
  exit 1
}

# `connect --stats FILE` prints the module's C on stdout, kept as
# $WORK/<pass>/<module>.c, and reports "# session N: F function(s),
# C cached" on stderr; sum F and C across the suite.
run_suite() {
  local pass="$1" functions=0 cached=0 line
  mkdir -p "$WORK/$pass"
  for ir in "$IRDIR"/*.ir; do
    line="$("$SPLENDID" connect --addr "$ADDR" --stats "$ir" 2>&1 >"$WORK/$pass/$(basename "$ir" .ir).c")"
    functions=$((functions + $(sed -n 's/.*: \([0-9]*\) function(s).*/\1/p' <<<"$line")))
    cached=$((cached + $(sed -n 's/.* \([0-9]*\) cached.*/\1/p' <<<"$line")))
  done
  echo "$functions $cached"
}

stop_daemon() {
  kill -TERM "$DAEMON_PID"
  local status=0
  wait "$DAEMON_PID" || status=$?
  DAEMON_PID=""
  if [ "$status" -ne 0 ]; then
    echo "daemon exited with status $status (want 0: clean drain)" >&2
    exit 1
  fi
}

echo "== cold pass: fresh store, everything decompiles for real =="
start_daemon
read -r COLD_FUNCTIONS COLD_CACHED <<<"$(run_suite cold)"
echo "cold: $COLD_FUNCTIONS function(s), $COLD_CACHED cached"
if [ "$COLD_FUNCTIONS" -eq 0 ] || [ "$COLD_CACHED" -ne 0 ]; then
  echo "cold pass must decompile everything from scratch" >&2
  exit 1
fi
stop_daemon

echo "== warm restart: every function answers from the disk tier =="
start_daemon
read -r WARM_FUNCTIONS WARM_CACHED <<<"$(run_suite warm)"
echo "warm: $WARM_FUNCTIONS function(s), $WARM_CACHED cached"
if [ "$WARM_CACHED" -ne "$WARM_FUNCTIONS" ]; then
  echo "warm restart served only $WARM_CACHED/$WARM_FUNCTIONS from cache" >&2
  exit 1
fi

STATS="$("$SPLENDID" connect --addr "$ADDR" --stats)"
echo "$STATS" | grep "tier:"
DISK_RATE="$(echo "$STATS" | sed -n 's/.*tier:disk .*(\([0-9.]*\)% hit rate).*/\1/p')"
if [ -z "$DISK_RATE" ]; then
  echo "stats are missing the disk tier line:" >&2
  echo "$STATS" >&2
  exit 1
fi
if ! awk -v r="$DISK_RATE" 'BEGIN { exit !(r > 90.0) }'; then
  echo "disk-tier hit rate $DISK_RATE% (want > 90%)" >&2
  exit 1
fi
echo "disk-tier hit rate $DISK_RATE% (> 90%)"
stop_daemon

echo "== crash simulation: torn tail on the newest segment =="
SEGMENT="$(ls "$CACHE"/seg-*.spc | sort | tail -1)"
printf 'SREC torn tail \xDE\xAD\xBE\xEF' >> "$SEGMENT"
"$SPLENDID" cache verify --cache-dir "$CACHE"
"$SPLENDID" cache stat --cache-dir "$CACHE"

echo "== post-recovery: the store still serves warm =="
start_daemon
read -r POST_FUNCTIONS POST_CACHED <<<"$(run_suite post-recovery)"
echo "post-recovery: $POST_FUNCTIONS function(s), $POST_CACHED cached"
if [ "$POST_CACHED" -ne "$POST_FUNCTIONS" ]; then
  echo "recovery lost intact records: $POST_CACHED/$POST_FUNCTIONS cached" >&2
  exit 1
fi
stop_daemon

echo "== the same C from every pass =="
diff -r "$WORK/cold" "$WORK/warm"
diff -r "$WORK/cold" "$WORK/post-recovery"
echo "$(ls "$WORK/cold" | wc -l) module(s), $(cat "$WORK"/cold/*.c | wc -c) bytes of C," \
  "printed identically cold, warm and after recovery"

echo "cache smoke passed"
