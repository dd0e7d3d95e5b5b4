#!/bin/sh
# serve smoke: a seeded spool drained with --once must answer every
# registered pass with bytes identical (cmp) to the standalone CLI command,
# honor per-request options, enforce the memory guardrail, time out
# runaway requests without dying, and run as a polling daemon.
#
# Usage: serve_smoke_test.sh <lockdoc-binary> <scratch-dir>
set -u

LOCKDOC="$1"
DIR="$2"

rm -rf "$DIR"
mkdir -p "$DIR"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# Publishes $1 at path $2 inside a live daemon's spool the way producers
# must: written in full under a staging name, then renamed into place, so
# no scan sees a partial file. The staging name is in $DIR (the same
# filesystem, so the rename is atomic), not in the spool directory: a
# daemon still starting up sweeps .tmp.* names there and could unlink the
# file mid-copy.
publish() {
  cp "$1" "$DIR/.tmp.publish" && mv "$DIR/.tmp.publish" "$2"
}

"$LOCKDOC" simulate --out "$DIR/web.trace" --ops 1500 --seed 3 > /dev/null || exit 1
"$LOCKDOC" simulate --out "$DIR/base.trace" --ops 1500 --seed 3 --clean > /dev/null || exit 1
"$LOCKDOC" import "$DIR/web.trace" --out "$DIR/web.lockdb" > /dev/null || exit 1

# --- every pass, byte-identical to the CLI ---
SPOOL="$DIR/spool"
mkdir -p "$SPOOL/incoming" "$SPOOL/requests"
cp "$DIR/web.trace" "$SPOOL/incoming/web.trace"
cp "$DIR/base.trace" "$SPOOL/incoming/base.trace"
cp "$DIR/web.lockdb" "$SPOOL/incoming/db.lockdb"
for pass in check derive violations lock-order modes report; do
  printf 'pass=%s\ninput=web\n' "$pass" > "$SPOOL/requests/$pass.req"
done
printf 'pass=diff\ninput=web\nbaseline=base\n' > "$SPOOL/requests/diff.req"
# Per-request knobs must mirror the CLI flags exactly.
printf 'pass=violations\ninput=web\nlimit=2\n' > "$SPOOL/requests/viol2.req"
printf 'pass=modes\ninput=web\nall=1\n' > "$SPOOL/requests/modesall.req"
printf 'pass=report\ninput=web\nfull=1\n' > "$SPOOL/requests/reportfull.req"
printf 'pass=derive\ninput=web\ntac=0.5\n' > "$SPOOL/requests/tac.req"
# format= mirrors the CLI's --format: same renderer, same bytes.
printf 'pass=violations\ninput=web\nformat=json\n' > "$SPOOL/requests/violjson.req"
printf 'pass=report\ninput=web\nformat=json\n' > "$SPOOL/requests/reportjson.req"
printf 'pass=report\ninput=web\nformat=html\n' > "$SPOOL/requests/reporthtml.req"
printf 'pass=check\ninput=web\nformat=text\n' > "$SPOOL/requests/checktext.req"
# Typed errors, not crashes.
printf 'pass=nope\ninput=web\n' > "$SPOOL/requests/badpass.req"
printf 'pass=check\ninput=ghost\n' > "$SPOOL/requests/badinput.req"
printf 'pass=check\ninput=../../etc/passwd\n' > "$SPOOL/requests/escape.req"
printf 'pass=check\ninput=web\nformat=bogus\n' > "$SPOOL/requests/badformat.req"

"$LOCKDOC" serve "$SPOOL" --once > /dev/null || fail "serve --once failed"

# Serve's ingest is `lockdoc import`: a trace drop publishes the import's
# bytes, a .lockdb drop publishes the dropped bytes.
cmp -s "$DIR/web.lockdb" "$SPOOL/state/snapshots/web.lockdb" \
  || fail "published web.lockdb != lockdoc import bytes"
cmp -s "$DIR/web.lockdb" "$SPOOL/state/snapshots/db.lockdb" \
  || fail "published db.lockdb != the dropped .lockdb"

for pass in check derive violations lock-order modes report; do
  "$LOCKDOC" "$pass" "$DIR/web.trace" > "$DIR/expect.out" || fail "CLI $pass failed"
  cmp -s "$DIR/expect.out" "$SPOOL/responses/$pass.out" || fail "$pass response != CLI bytes"
done
"$LOCKDOC" diff "$DIR/base.trace" "$DIR/web.trace" > "$DIR/expect.out" || fail "CLI diff failed"
cmp -s "$DIR/expect.out" "$SPOOL/responses/diff.out" || fail "diff response != CLI bytes"
"$LOCKDOC" violations "$DIR/web.trace" --limit 2 > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/viol2.out" || fail "limit=2 response != CLI bytes"
"$LOCKDOC" modes "$DIR/web.trace" --all > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/modesall.out" || fail "all=1 response != CLI bytes"
"$LOCKDOC" report "$DIR/web.trace" --full > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/reportfull.out" || fail "full=1 response != CLI bytes"
"$LOCKDOC" derive "$DIR/web.trace" --tac 0.5 > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/tac.out" || fail "tac=0.5 response != CLI bytes"

for req in violjson reportjson; do
  pass=violations; [ "$req" = "reportjson" ] && pass=report
  "$LOCKDOC" "$pass" "$DIR/web.trace" --format json > "$DIR/expect.out"
  cmp -s "$DIR/expect.out" "$SPOOL/responses/$req.out" || fail "format=json $pass != CLI bytes"
done
"$LOCKDOC" report "$DIR/web.trace" --format html > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/reporthtml.out" || fail "format=html != CLI bytes"
"$LOCKDOC" check "$DIR/web.trace" > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL/responses/checktext.out" || fail "format=text != CLI bytes"
grep -q '^format=json$' "$SPOOL/responses/violjson.meta" || fail "format=json missing from meta"

grep -q '^kind=unknown-pass$' "$SPOOL/responses/badpass.meta" || fail "bad pass not typed unknown-pass"
grep -q '^kind=unknown-input$' "$SPOOL/responses/badinput.meta" || fail "bad input not typed unknown-input"
grep -q '^kind=bad-request$' "$SPOOL/responses/escape.meta" || fail "path escape not typed bad-request"
grep -q '^kind=bad-request$' "$SPOOL/responses/badformat.meta" || fail "bad format not typed bad-request"
[ -f "$SPOOL/responses/badpass.out" ] && fail "error response must not carry an .out"
[ -f "$SPOOL/responses/badformat.out" ] && fail "bad-format response must not carry an .out"

# A second --once run on the drained spool is a clean no-op.
"$LOCKDOC" serve "$SPOOL" --once > "$DIR/stats2.txt" || fail "idle serve --once failed"
grep -q 'answered_ok=0' "$DIR/stats2.txt" || fail "idle run answered something"

# --- memory guardrail: --max-resident 1 with two snapshots must evict ---
SPOOL2="$DIR/spool_lru"
mkdir -p "$SPOOL2/incoming" "$SPOOL2/requests"
cp "$DIR/web.trace" "$SPOOL2/incoming/web.trace"
cp "$DIR/base.trace" "$SPOOL2/incoming/base.trace"
printf 'pass=check\ninput=web\n' > "$SPOOL2/requests/a.req"
printf 'pass=check\ninput=base\n' > "$SPOOL2/requests/b.req"
printf 'pass=lock-order\ninput=web\n' > "$SPOOL2/requests/c.req"
"$LOCKDOC" serve "$SPOOL2" --once --max-resident 1 > "$DIR/lru_stats.txt" || fail "LRU serve failed"
grep -Eq 'evictions=[1-9]' "$DIR/lru_stats.txt" || fail "max-resident 1 never evicted"
"$LOCKDOC" check "$DIR/web.trace" > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL2/responses/a.out" || fail "evicted-and-reloaded response differs"

# --- deadline: a 1 ms budget must produce a typed timeout, not a hang or
# --- a dead service; the same spool then answers fine without a deadline.
SPOOL3="$DIR/spool_deadline"
mkdir -p "$SPOOL3/incoming" "$SPOOL3/requests"
"$LOCKDOC" simulate --out "$SPOOL3/incoming/big.trace" --ops 20000 --seed 1 > /dev/null
printf 'pass=report\ninput=big\n' > "$SPOOL3/requests/slow.req"
"$LOCKDOC" serve "$SPOOL3" --once --deadline-ms 1 > /dev/null || fail "serve died on timeout"
grep -q '^kind=timeout$' "$SPOOL3/responses/slow.meta" || fail "no typed timeout response"
printf 'pass=check\ninput=big\n' > "$SPOOL3/requests/after.req"
"$LOCKDOC" serve "$SPOOL3" --once > /dev/null || fail "serve dead after timeout"
grep -q '^status=ok$' "$SPOOL3/responses/after.meta" || fail "input unanswerable after a timeout"

# --- concurrency matrix: answers are byte-identical at any --workers and
# --- --jobs combination (the scheduler must not change a single byte) ---
for workers in 1 2 4; do
  for jobs in 1 8; do
    SPOOLM="$DIR/spool_w${workers}_j${jobs}"
    mkdir -p "$SPOOLM/incoming" "$SPOOLM/requests"
    cp "$DIR/web.trace" "$SPOOLM/incoming/web.trace"
    cp "$DIR/base.trace" "$SPOOLM/incoming/base.trace"
    printf 'pass=check\ninput=web\n' > "$SPOOLM/requests/check.req"
    printf 'pass=report\ninput=web\n' > "$SPOOLM/requests/report.req"
    printf 'pass=diff\ninput=web\nbaseline=base\n' > "$SPOOLM/requests/diff.req"
    printf 'pass=violations\ninput=web\nlimit=2\n' > "$SPOOLM/requests/viol2.req"
    "$LOCKDOC" serve "$SPOOLM" --once --workers "$workers" --jobs "$jobs" > /dev/null \
      || fail "serve --workers $workers --jobs $jobs failed"
    "$LOCKDOC" check "$DIR/web.trace" > "$DIR/expect.out"
    cmp -s "$DIR/expect.out" "$SPOOLM/responses/check.out" \
      || fail "check differs at workers=$workers jobs=$jobs"
    "$LOCKDOC" report "$DIR/web.trace" > "$DIR/expect.out"
    cmp -s "$DIR/expect.out" "$SPOOLM/responses/report.out" \
      || fail "report differs at workers=$workers jobs=$jobs"
    "$LOCKDOC" diff "$DIR/base.trace" "$DIR/web.trace" > "$DIR/expect.out"
    cmp -s "$DIR/expect.out" "$SPOOLM/responses/diff.out" \
      || fail "diff differs at workers=$workers jobs=$jobs"
    "$LOCKDOC" violations "$DIR/web.trace" --limit 2 > "$DIR/expect.out"
    cmp -s "$DIR/expect.out" "$SPOOLM/responses/viol2.out" \
      || fail "violations differs at workers=$workers jobs=$jobs"
  done
done

# --- socket front-end: the same bytes over TCP, sharing one scheduler ---
SPOOL6="$DIR/spool_socket"
mkdir -p "$SPOOL6/incoming"
cp "$DIR/web.trace" "$SPOOL6/incoming/web.trace"
cp "$DIR/base.trace" "$SPOOL6/incoming/base.trace"
"$LOCKDOC" serve "$SPOOL6" --listen 127.0.0.1:0 --workers 4 --poll-ms 25 \
  > "$DIR/socket_stats.txt" 2> "$DIR/socket_err.txt" &
SOCKD=$!
tries=0
while ! grep -q 'listening on' "$DIR/socket_err.txt" 2> /dev/null && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$DIR/socket_err.txt" | head -1)
[ -n "$PORT" ] || fail "socket daemon never announced its port"
# Wait for the ingest so queries find the snapshots.
tries=0
while { [ ! -f "$SPOOL6/responses/base.ingest.meta" ] || \
        [ ! -f "$SPOOL6/responses/web.ingest.meta" ]; } && [ "$tries" -lt 200 ]; do
  tries=$((tries + 1)); sleep 0.1
done
if [ -n "$PORT" ]; then
  for pass in check report; do
    printf 'pass=%s\ninput=web\n' "$pass" > "$DIR/sockq.req"
    "$LOCKDOC" query "127.0.0.1:$PORT" "$DIR/sockq.req" \
      > "$DIR/sockq.out" 2> "$DIR/sockq.meta" || fail "socket query $pass failed"
    "$LOCKDOC" "$pass" "$DIR/web.trace" > "$DIR/expect.out"
    cmp -s "$DIR/expect.out" "$DIR/sockq.out" || fail "socket $pass != CLI bytes"
    grep -q '^status=ok$' "$DIR/sockq.meta" || fail "socket $pass meta not ok"
  done
  printf 'pass=diff\ninput=web\nbaseline=base\n' > "$DIR/sockq.req"
  "$LOCKDOC" query "127.0.0.1:$PORT" "$DIR/sockq.req" \
    > "$DIR/sockq.out" 2> "$DIR/sockq.meta" || fail "socket diff failed"
  "$LOCKDOC" diff "$DIR/base.trace" "$DIR/web.trace" > "$DIR/expect.out"
  cmp -s "$DIR/expect.out" "$DIR/sockq.out" || fail "socket diff != CLI bytes"
  # Structured formats cross the wire byte-identically too.
  printf 'pass=violations\ninput=web\nformat=json\n' > "$DIR/sockq.req"
  "$LOCKDOC" query "127.0.0.1:$PORT" "$DIR/sockq.req" \
    > "$DIR/sockq.out" 2> "$DIR/sockq.meta" || fail "socket format=json query failed"
  "$LOCKDOC" violations "$DIR/web.trace" --format json > "$DIR/expect.out"
  cmp -s "$DIR/expect.out" "$DIR/sockq.out" || fail "socket format=json != CLI bytes"
  # Typed errors cross the wire with the same taxonomy as the spool.
  printf 'pass=nope\ninput=web\n' > "$DIR/sockq.req"
  "$LOCKDOC" query "127.0.0.1:$PORT" "$DIR/sockq.req" \
    > "$DIR/sockq.out" 2> "$DIR/sockq.meta" && fail "bad socket query exited 0"
  grep -q '^kind=unknown-pass$' "$DIR/sockq.meta" || fail "socket error not typed"
  [ -s "$DIR/sockq.out" ] && fail "socket error carried response bytes"
  # While the socket is live the spool transport still answers (one scheduler).
  printf 'pass=check\ninput=web\n' > "$DIR/spool_live.req"
  publish "$DIR/spool_live.req" "$SPOOL6/requests/spool_live.req"
  tries=0
  while [ ! -f "$SPOOL6/responses/spool_live.meta" ] && [ "$tries" -lt 200 ]; do
    tries=$((tries + 1)); sleep 0.1
  done
  "$LOCKDOC" check "$DIR/web.trace" > "$DIR/expect.out"
  cmp -s "$DIR/expect.out" "$SPOOL6/responses/spool_live.out" \
    || fail "spool transport broken while socket live"
fi
kill -TERM "$SOCKD" 2> /dev/null
wait "$SOCKD"
rc=$?
[ "$rc" -eq 0 ] || fail "socket daemon exited $rc on SIGTERM"

# --- daemon mode: poll loop picks up late arrivals, stops on SIGTERM ---
SPOOL4="$DIR/spool_daemon"
mkdir -p "$SPOOL4/incoming"
"$LOCKDOC" serve "$SPOOL4" --poll-ms 25 > "$DIR/daemon_stats.txt" 2>&1 &
DAEMON=$!
publish "$DIR/web.trace" "$SPOOL4/incoming/web.trace"
mkdir -p "$SPOOL4/requests"
printf 'pass=check\ninput=web\n' > "$DIR/late.req"
publish "$DIR/late.req" "$SPOOL4/requests/late.req"
tries=0
while [ ! -f "$SPOOL4/responses/late.meta" ] && [ "$tries" -lt 200 ]; do
  tries=$((tries + 1))
  sleep 0.1
done
kill -TERM "$DAEMON" 2> /dev/null
wait "$DAEMON"
rc=$?
[ "$rc" -eq 0 ] || fail "daemon exited $rc on SIGTERM"
[ -f "$SPOOL4/responses/late.meta" ] || fail "daemon never answered the late request"
"$LOCKDOC" check "$DIR/web.trace" > "$DIR/expect.out"
cmp -s "$DIR/expect.out" "$SPOOL4/responses/late.out" || fail "daemon response != CLI bytes"

if [ "$failures" -ne 0 ]; then
  echo "$failures serve smoke expectations failed" >&2
  exit 1
fi
echo "serve smoke OK"
