#!/usr/bin/env bash
# Daemon smoke test, as run by the CI `daemon` job:
#
#   1. start `splendid daemon` in the background on a loopback port,
#   2. decompile every PolyBench module through it with `splendid connect`,
#   3. replay the malformed-frame corpus, proving the daemon survives
#      every file,
#   4. print the daemon-wide stats,
#   5. SIGTERM the daemon *while* four background loops of
#      `splendid connect` decompile the PolyBench modules against it, and
#      assert it still drains cleanly (exit 0): admitted work completes,
#      late work is refused, nothing hangs.
#
# The incremental edit/decompile loop is an in-process test:
# crates/daemon/tests/daemon.rs (one_constant_edit_redecompiles_exactly_one_function).
#
# Usage: scripts/daemon_smoke.sh [--addr HOST:PORT]
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${2:-127.0.0.1:7877}"
SPLENDID=./target/release/splendid

cargo build --release -p splendid

IR_DIR="$(mktemp -d)"
"$SPLENDID" dump-polybench "$IR_DIR"

"$SPLENDID" daemon --addr "$ADDR" &
DAEMON_PID=$!
LOAD_PIDS=()
cleanup() {
  kill "$DAEMON_PID" "${LOAD_PIDS[@]}" 2>/dev/null || true
  rm -rf "$IR_DIR"
}
trap cleanup EXIT

# Wait for the daemon to accept connections (the PING path).
for _ in $(seq 1 50); do
  if "$SPLENDID" connect --addr "$ADDR" --stats >/dev/null 2>&1; then
    break
  fi
  sleep 0.2
done

echo "== every PolyBench module through the daemon =="
for ir in "$IR_DIR"/*.ir; do
  "$SPLENDID" connect --addr "$ADDR" "$ir" >/dev/null
done
echo "$(ls "$IR_DIR" | wc -l) modules decompiled"

echo "== malformed-frame corpus replay =="
"$SPLENDID" connect --addr "$ADDR" --malformed crates/daemon/tests/malformed

echo "== daemon-wide stats =="
"$SPLENDID" connect --addr "$ADDR" --stats

echo "== graceful drain on SIGTERM under load =="
for _ in 1 2 3 4; do
  while true; do
    for ir in "$IR_DIR"/*.ir; do
      "$SPLENDID" connect --addr "$ADDR" "$ir" >/dev/null 2>&1 || true
    done
  done &
  LOAD_PIDS+=($!)
done
sleep 1 # mid-burst
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "daemon exited with status $STATUS (want 0: clean drain)" >&2
  exit 1
fi
echo "daemon drained cleanly"
