#!/bin/sh
# Session smoke through the real binary. Pipes the README's session
# transcript, one unparseable line and one batch one element larger than
# the default 64-element ingest ring into `rts-serve session --dim 1`,
# then `shutdown`, and diffs stdout against the expected replies. Every
# frame must get a final answer: the oversize batch a `rejected`, not a
# `retry` loop, so a session that spins fails the 10 s timeout.
#
#   tools/check_session.sh [RTS_SERVE]      (default: the dune build)
set -eu

serve=${1:-_build/default/bin/rts_serve.exe}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

batch=$(awk 'BEGIN { printf "batch,t0,20,1"; for (i = 2; i <= 65; i++) printf ";20,1"; print "" }')
cat > "$tmp/in" <<EOF
sub,t0
op,t0,R,1,3,0,10
op,t0,E,5,2
op,t0,E,7,2
bogus
$batch
shutdown
EOF

cat > "$tmp/expected" <<'EOF'
accepted,t0,0
accepted,t0,1
accepted,t0,1
accepted,t0,1
matured,t0,2,1
rejected,"unknown frame \"bogus\""
rejected,"batch of 65 ops exceeds the ingest ring (64)"
bye
EOF

status=0
timeout 10 "$serve" session --dim 1 < "$tmp/in" > "$tmp/out" 2> "$tmp/err" || status=$?
if [ "$status" -ne 0 ]; then
  echo "check-session: FAIL rts-serve session exited with status $status (124 = timed out)" >&2
  cat "$tmp/err" >&2
  exit 1
fi
if ! diff -u "$tmp/expected" "$tmp/out" >&2; then
  echo "check-session: FAIL transcript differs (expected vs got above)" >&2
  exit 1
fi
echo "check-session: OK ($(wc -l < "$tmp/out") replies)"
