#!/bin/sh
# Deterministic chaos harness for `lockdoc serve` (the PR's three pinned
# invariants, checked across every scenario):
#
#   1. no wrong answer is ever emitted: any response meta that says ok has
#      an .out byte-identical to the equivalent standalone CLI command,
#   2. every dropped input ends in exactly one terminal state — answered
#      (ingest ack) XOR quarantined — and every request gets a meta,
#   3. the service always restarts cleanly: after any kill, a fresh
#      `serve --once` exits 0 and leaves incoming/, requests/ and the
#      journal empty, with no atomic-temp debris anywhere.
#
# Scenarios are generated from a seed counter: kills at seeded crash points
# mid-import and mid-response (LOCKDOC_SERVE_CRASH_AT), corrupted /
# truncated / zero-byte / oversized drops, damaged snapshot drops, and
# kill+corruption combinations. Everything — corruption sites, crash
# points, request passes — derives from the seed, so a failure reproduces
# exactly.
#
# Usage: chaos_test.sh <lockdoc-binary> <chaos-driver> <scratch-dir> [scenarios]
set -u

LOCKDOC="$1"
DRIVER="$2"
DIR="$3"
SCENARIOS="${4:-200}"

rm -rf "$DIR"
mkdir -p "$DIR/ref"
failures=0
scenario=0

fail() {
  echo "FAIL(scenario $scenario): $*" >&2
  failures=$((failures + 1))
}

# --- fixtures (built once; every scenario damages copies of these) ---
"$LOCKDOC" simulate --out "$DIR/fixture.trace" --ops 400 --seed 7 > /dev/null || exit 1
"$LOCKDOC" import "$DIR/fixture.trace" --out "$DIR/fixture.lockdb" > /dev/null || exit 1
FIXTURE_SIZE=$(wc -c < "$DIR/fixture.trace")
PASSES="check violations lock-order modes report derive"
for pass in $PASSES; do
  "$LOCKDOC" "$pass" "$DIR/fixture.trace" > "$DIR/ref/$pass.out" || exit 1
done
# Reference snapshot: what a crash-free import of the fixture publishes.
mkdir -p "$DIR/refspool/incoming"
cp "$DIR/fixture.trace" "$DIR/refspool/incoming/web.trace"
"$LOCKDOC" serve "$DIR/refspool" --once --workers 4 > /dev/null || exit 1
REF_SNAPSHOT="$DIR/refspool/state/snapshots/web.lockdb"
[ -f "$REF_SNAPSHOT" ] || exit 1

pick_pass() {
  # Deterministic pass choice from the seed: the n-th word of $PASSES.
  n=$(( ($1 / 64) % 6 + 1 ))
  echo "$PASSES" | tr ' ' '\n' | sed -n "${n}p"
}

# Invariants 2 + 3 for the scenario spool. $1 = spool, $2 = dropped input
# file name (empty if none), $3 = request id (empty if none).
check_invariants() {
  spool="$1"
  input="$2"
  req="$3"
  "$LOCKDOC" serve "$spool" --once --workers 4 > /dev/null 2>&1 || fail "restart not clean"
  [ -n "$(ls -A "$spool/incoming" 2> /dev/null)" ] && fail "incoming not drained"
  [ -n "$(ls -A "$spool/requests" 2> /dev/null)" ] && fail "requests not drained"
  [ -n "$(ls -A "$spool/state/journal" 2> /dev/null)" ] && fail "journal not empty"
  find "$spool" -name '.tmp.*' 2> /dev/null | grep -q . && fail "atomic temp debris left behind"
  if [ -n "$input" ]; then
    name="${input%.*}"
    ack=0
    quar=0
    [ -f "$spool/responses/$name.ingest.meta" ] && ack=1
    [ -f "$spool/state/quarantine/$input.reason" ] && quar=1
    [ $((ack + quar)) -eq 1 ] || fail "input '$input' in $((ack + quar)) terminal states (want exactly 1)"
  fi
  if [ -n "$req" ]; then
    [ -f "$spool/responses/$req.meta" ] || fail "request '$req' never answered"
  fi
}

# Invariant 1: if the request was answered ok, its bytes must equal the
# standalone CLI's. $1 = spool, $2 = request id, $3 = pass, $4 = source
# file, $5 = extra CLI flag (--salvage for damaged sources, empty else).
check_answer() {
  spool="$1"
  req="$2"
  pass="$3"
  source="$4"
  flag="${5:-}"
  [ -f "$spool/responses/$req.meta" ] || return 0
  if grep -q '^status=ok$' "$spool/responses/$req.meta"; then
    if [ -n "$flag" ]; then
      "$LOCKDOC" "$pass" "$source" "$flag" > "$DIR/expected.out" 2> /dev/null \
        || fail "serve answered ok but CLI cannot ($pass $source $flag)"
    else
      "$LOCKDOC" "$pass" "$source" > "$DIR/expected.out" 2> /dev/null \
        || fail "serve answered ok but CLI cannot ($pass $source)"
    fi
    cmp -s "$DIR/expected.out" "$spool/responses/$req.out" \
      || fail "WRONG ANSWER: $pass response differs from CLI bytes"
  fi
}

# A crash run ($1 = its exit code) that died at its armed hit ($2) must
# name that crash point on stderr ($DIR/crash.err); $3, if given, lists the
# tags the hit may carry.
check_crash_point() {
  [ "$1" -eq 42 ] || return 0
  line=$(grep "armed crash point #$2 (" "$DIR/crash.err")
  if [ -z "$line" ]; then
    fail "crash run exited 42 without naming crash point #$2"
    return 0
  fi
  [ -n "${3:-}" ] || return 0
  tag=$(echo "$line" | sed -n 's/.*(\(.*\))$/\1/p')
  case " $3 " in
    *" $tag "*) ;;
    *) fail "crash point #$2 is '$tag' (want one of: $3)" ;;
  esac
}

seed=0
while [ "$seed" -lt "$SCENARIOS" ]; do
  seed=$((seed + 1))
  scenario=$seed
  spool="$DIR/spool"
  rm -rf "$spool"
  mkdir -p "$spool/incoming"
  kind=$(( (seed / 8) % 6 ))
  pass=$(pick_pass "$seed")

  case $((seed % 8)) in
    0)
      # Kill mid-import at a seeded crash point; the journal must replay to
      # a snapshot byte-identical to the crash-free import.
      p=$(( (seed / 8) % 12 + 1 ))
      cp "$DIR/fixture.trace" "$spool/incoming/web.trace"
      mkdir -p "$spool/requests"
      printf 'pass=%s\ninput=web\n' "$pass" > "$spool/requests/q.req"
      LOCKDOC_SERVE_CRASH_AT=$p "$LOCKDOC" serve "$spool" --once --workers 4 \
        > /dev/null 2> "$DIR/crash.err"
      rc=$?
      [ "$rc" -eq 42 ] || [ "$rc" -eq 0 ] || fail "crash run exited $rc (want 42 or 0)"
      check_crash_point "$rc" "$p"
      check_invariants "$spool" web.trace q
      cmp -s "$REF_SNAPSHOT" "$spool/state/snapshots/web.lockdb" \
        || fail "recovered snapshot differs from crash-free import"
      check_answer "$spool" q "$pass" "$DIR/fixture.trace"
      ;;
    1)
      # Corrupted trace: salvaged-and-answered or quarantined, never wrong.
      # (The damaged original is kept outside the spool: when serve answers,
      # the bytes must match the CLI running --salvage on the same damage.)
      "$DRIVER" corrupt "$DIR/fixture.trace" "$DIR/damaged.trace" "$kind" "$seed" > /dev/null || fail "corruptor failed"
      cp "$DIR/damaged.trace" "$spool/incoming/web.trace"
      mkdir -p "$spool/requests"
      printf 'pass=%s\ninput=web\n' "$pass" > "$spool/requests/q.req"
      "$LOCKDOC" serve "$spool" --once --workers 4 > /dev/null 2>&1 || fail "serve crashed on corrupted input"
      check_invariants "$spool" web.trace q
      check_answer "$spool" q "$pass" "$DIR/damaged.trace" --salvage
      ;;
    2)
      # Truncated trace (always keeps the magic, may cut mid-frame).
      keep=$(( (seed * 997) % (FIXTURE_SIZE - 8) + 8 ))
      "$DRIVER" truncate "$DIR/fixture.trace" "$DIR/damaged.trace" "$keep" || fail "truncate failed"
      cp "$DIR/damaged.trace" "$spool/incoming/web.trace"
      mkdir -p "$spool/requests"
      printf 'pass=%s\ninput=web\n' "$pass" > "$spool/requests/q.req"
      "$LOCKDOC" serve "$spool" --once --workers 4 > /dev/null 2>&1 || fail "serve crashed on truncated input"
      check_invariants "$spool" web.trace q
      check_answer "$spool" q "$pass" "$DIR/damaged.trace" --salvage
      ;;
    3)
      # Zero-byte drop: typed quarantine, not a crash and not a loop.
      : > "$spool/incoming/web.trace"
      "$LOCKDOC" serve "$spool" --once --workers 4 > /dev/null 2>&1 || fail "serve crashed on empty file"
      check_invariants "$spool" web.trace ''
      grep -q '^kind=empty$' "$spool/state/quarantine/web.trace.reason" 2> /dev/null \
        || fail "zero-byte file not quarantined as kind=empty"
      ;;
    4)
      # Oversized drop: rejected by the guardrail before a byte is parsed.
      cp "$DIR/fixture.trace" "$spool/incoming/web.trace"
      "$LOCKDOC" serve "$spool" --once --workers 4 --max-trace-bytes 1000 > /dev/null 2>&1 \
        || fail "serve crashed on oversized file"
      check_invariants "$spool" web.trace ''
      grep -q '^kind=oversized$' "$spool/state/quarantine/web.trace.reason" 2> /dev/null \
        || fail "oversized file not quarantined as kind=oversized"
      ;;
    5)
      # Damaged .lockdb drop: validated before publication, so the resident
      # store never sees it.
      "$DRIVER" corrupt "$DIR/fixture.lockdb" "$spool/incoming/web.lockdb" "$kind" "$seed" > /dev/null || fail "corruptor failed"
      "$LOCKDOC" serve "$spool" --once --workers 4 > /dev/null 2>&1 || fail "serve crashed on damaged snapshot"
      check_invariants "$spool" web.lockdb ''
      ;;
    6)
      # Kill mid-response: the request is re-answered deterministically.
      p=$(( (seed / 8) % 3 + 8 ))
      cp "$DIR/fixture.trace" "$spool/incoming/web.trace"
      mkdir -p "$spool/requests"
      printf 'pass=%s\ninput=web\n' "$pass" > "$spool/requests/q.req"
      LOCKDOC_SERVE_CRASH_AT=$p "$LOCKDOC" serve "$spool" --once --workers 4 \
        > /dev/null 2> "$DIR/crash.err"
      rc=$?
      [ "$rc" -eq 42 ] || [ "$rc" -eq 0 ] || fail "crash run exited $rc (want 42 or 0)"
      # Hits 8-10 follow a 7-hit trace ingest: the three response points.
      check_crash_point "$rc" "$p" "response-out-written response-meta-written request-removed"
      check_invariants "$spool" web.trace q
      check_answer "$spool" q "$pass" "$DIR/fixture.trace"
      grep -q '^status=ok$' "$spool/responses/q.meta" || fail "clean input not answered ok"
      ;;
    7)
      # Corruption AND a kill: the worst day. Still: one terminal state,
      # clean restart, no wrong answer.
      p=$(( (seed / 8) % 10 + 1 ))
      "$DRIVER" corrupt "$DIR/fixture.trace" "$DIR/damaged.trace" "$kind" "$seed" > /dev/null || fail "corruptor failed"
      cp "$DIR/damaged.trace" "$spool/incoming/web.trace"
      mkdir -p "$spool/requests"
      printf 'pass=%s\ninput=web\n' "$pass" > "$spool/requests/q.req"
      LOCKDOC_SERVE_CRASH_AT=$p "$LOCKDOC" serve "$spool" --once --workers 4 \
        > /dev/null 2> "$DIR/crash.err"
      rc=$?
      [ "$rc" -eq 42 ] || [ "$rc" -eq 0 ] || fail "crash run exited $rc (want 42 or 0)"
      check_crash_point "$rc" "$p"
      check_invariants "$spool" web.trace q
      check_answer "$spool" q "$pass" "$DIR/damaged.trace" --salvage
      ;;
  esac
done

# --- socket chaos: abusive TCP peers against a live daemon. After every
# --- abuse round a well-formed query must still get CLI-identical bytes —
# --- a misbehaving peer can cost itself, never the service.
scenario=socket
SPOOLS="$DIR/spool_socket"
rm -rf "$SPOOLS"
mkdir -p "$SPOOLS/incoming"
cp "$DIR/fixture.trace" "$SPOOLS/incoming/web.trace"
"$LOCKDOC" serve "$SPOOLS" --listen 127.0.0.1:0 --workers 4 --poll-ms 25 \
  --max-trace-bytes 10000000 > "$DIR/socket_stats.txt" 2> "$DIR/socket_err.txt" &
SOCKD=$!
tries=0
while ! grep -q 'listening on' "$DIR/socket_err.txt" 2> /dev/null && [ "$tries" -lt 100 ]; do
  tries=$((tries + 1)); sleep 0.1
done
PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$DIR/socket_err.txt" | head -1)
tries=0
while [ ! -f "$SPOOLS/responses/web.ingest.meta" ] && [ "$tries" -lt 200 ]; do
  tries=$((tries + 1)); sleep 0.1
done
if [ -n "$PORT" ]; then
  printf 'pass=check\ninput=web\n' > "$DIR/good.req"
  round=0
  for mode in partial-header partial-frame kill-mid-read oversized-frame \
              partial-frame oversized-frame kill-mid-read partial-header; do
    round=$((round + 1))
    scenario="socket-$round-$mode"
    "$DRIVER" abuse "127.0.0.1:$PORT" "$mode" || fail "abuse $mode misbehaved"
    "$LOCKDOC" query "127.0.0.1:$PORT" "$DIR/good.req" \
      > "$DIR/good.out" 2> /dev/null || fail "service wedged after $mode"
    cmp -s "$DIR/ref/check.out" "$DIR/good.out" \
      || fail "WRONG ANSWER over socket after $mode"
  done
else
  fail "socket daemon never announced its port"
fi
kill -TERM "$SOCKD" 2> /dev/null
wait "$SOCKD"
rc=$?
scenario=socket
[ "$rc" -eq 0 ] || fail "socket daemon exited $rc on SIGTERM"
check_invariants "$SPOOLS" web.trace ''

if [ "$failures" -ne 0 ]; then
  echo "$failures chaos invariant violations across $SCENARIOS scenarios" >&2
  exit 1
fi
echo "chaos: $SCENARIOS scenarios OK at --workers 4 (+ socket abuse; no wrong answers, one terminal state each, clean restarts)"
