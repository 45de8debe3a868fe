#!/bin/sh
# Durable-path cost gate. Runs `rts-cli run --wal` at the CLI's durability
# defaults (fsync every call, checkpoint floor 1024) over a generated sheet
# whose live queries outnumber the checkpoint floor, then holds the run's
# deterministic --stats counters to the group-commit and checkpoint-cadence
# bounds documented in lib/resilience/durable.mli. No wall clock is read.
#
#   tools/check_durable_cost.sh [RTS_CLI]      (default: the dune build)
set -eu

cli=${1:-_build/default/bin/rts_cli.exe}
queries=5000
elements=10000
batch=1024
checkpoint_every=1024

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

"$cli" genqueries --dim 1 --count "$queries" --seed 1 > "$tmp/queries.csv"
"$cli" generate --dim 1 --count "$elements" --seed 2 > "$tmp/elements.csv"
"$cli" run --dim 1 --queries "$tmp/queries.csv" --wal "$tmp/wal" --batch "$batch" \
  --checkpoint-every "$checkpoint_every" --quiet --stats \
  < "$tmp/elements.csv" 2> "$tmp/stats"

counter() {
  v=$(awk -v k="rts_$1" '$1 == k { print $2 }' "$tmp/stats")
  if [ -z "$v" ]; then
    echo "check-durable-cost: counter rts_$1 missing from --stats" >&2
    exit 1
  fi
  echo "$v"
}

records=$(counter wal_records_total)
fsyncs=$(counter wal_fsyncs_total)
checkpoints=$(counter checkpoints_total)
entries=$(counter checkpoint_entries_total)
# one register_batch for the sheet, then one feed_batch per full or final batch
calls=$((1 + (elements + batch - 1) / batch))

status=0
check() {
  if [ "$1" -gt "$2" ]; then
    echo "check-durable-cost: FAIL $3: $1 > $2" >&2
    status=1
  fi
}
check "$records" "$((queries + elements))" "wal records vs ops"
check "$((queries + elements))" "$records" "ops vs wal records"
check "$fsyncs" "$((calls + checkpoints))" "fsyncs vs batch calls + checkpoints"
check "$checkpoints" "$((records / checkpoint_every))" "checkpoints vs ops / checkpoint_every"
check "$entries" "$((2 * records + checkpoint_every))" \
  "checkpoint entries vs 2 x ops + checkpoint_every"

echo "check-durable-cost: ops=$records calls=$calls fsyncs=$fsyncs checkpoints=$checkpoints" \
  "checkpoint_entries=$entries"
exit "$status"
