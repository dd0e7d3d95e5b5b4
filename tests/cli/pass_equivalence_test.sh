#!/bin/sh
# Golden equivalence: `lockdoc analyze INPUT --passes P` must be
# byte-identical (cmp) to the standalone `lockdoc P INPUT` command, for
# every registered pass, on both a raw trace and a .lockdb snapshot, and
# a multi-pass run must equal the concatenation of the standalone outputs
# at --jobs 1, 2 and 8. The tables exported from a trace and from its
# .lockdb must be identical too.
#
# Usage: pass_equivalence_test.sh <lockdoc-binary> <scratch-dir>
set -eu

LOCKDOC="$1"
DIR="$2"
mkdir -p "$DIR"

"$LOCKDOC" simulate --out "$DIR/eq.trace" --ops 2000 --seed 7
"$LOCKDOC" simulate --out "$DIR/eq_old.trace" --ops 2000 --seed 7 --clean
"$LOCKDOC" import "$DIR/eq.trace" --out "$DIR/eq.lockdb"
"$LOCKDOC" import "$DIR/eq_old.trace" --out "$DIR/eq_old.lockdb"

# Every single-input pass, standalone vs analyze, trace and snapshot.
for input in "$DIR/eq.trace" "$DIR/eq.lockdb"; do
  for pass in check derive violations lock-order modes report; do
    "$LOCKDOC" "$pass" "$input" > "$DIR/standalone.txt"
    "$LOCKDOC" analyze "$input" --passes "$pass" > "$DIR/via_analyze.txt"
    cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt" || {
      echo "FAIL: analyze --passes $pass differs from standalone $pass on $input" >&2
      exit 1
    }
  done
done

# Pass flags are honored identically.
"$LOCKDOC" violations "$DIR/eq.trace" --limit 3 > "$DIR/standalone.txt"
"$LOCKDOC" analyze "$DIR/eq.trace" --passes violations --limit 3 > "$DIR/via_analyze.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt"
"$LOCKDOC" modes "$DIR/eq.trace" --all > "$DIR/standalone.txt"
"$LOCKDOC" analyze "$DIR/eq.trace" --passes modes --all > "$DIR/via_analyze.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt"
"$LOCKDOC" report "$DIR/eq.trace" --full > "$DIR/standalone.txt"
"$LOCKDOC" analyze "$DIR/eq.trace" --passes report --full > "$DIR/via_analyze.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt"

# The diff pass against a baseline input equals the standalone diff.
"$LOCKDOC" diff "$DIR/eq_old.trace" "$DIR/eq.trace" > "$DIR/standalone.txt"
"$LOCKDOC" analyze "$DIR/eq.trace" --passes diff --baseline "$DIR/eq_old.trace" \
  > "$DIR/via_analyze.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt"
"$LOCKDOC" analyze "$DIR/eq.lockdb" --passes diff --baseline "$DIR/eq_old.lockdb" \
  > "$DIR/via_analyze_db.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze_db.txt"

# A multi-pass run is the concatenation of the standalone outputs, and is
# byte-identical at any thread count.
"$LOCKDOC" check "$DIR/eq.lockdb" > "$DIR/concat.txt"
"$LOCKDOC" violations "$DIR/eq.lockdb" >> "$DIR/concat.txt"
"$LOCKDOC" report "$DIR/eq.lockdb" >> "$DIR/concat.txt"
for jobs in 1 2 8; do
  "$LOCKDOC" analyze "$DIR/eq.lockdb" --passes check,violations,report --jobs "$jobs" \
    > "$DIR/multi_j$jobs.txt"
  cmp "$DIR/concat.txt" "$DIR/multi_j$jobs.txt" || {
    echo "FAIL: multi-pass analyze at --jobs $jobs differs" >&2
    exit 1
  }
done

# A full-suite run (no --passes) covers every pass except diff, in
# registry order, at any jobs value.
"$LOCKDOC" analyze "$DIR/eq.lockdb" --jobs 1 > "$DIR/full_j1.txt"
"$LOCKDOC" analyze "$DIR/eq.lockdb" --jobs 8 > "$DIR/full_j8.txt"
cmp "$DIR/full_j1.txt" "$DIR/full_j8.txt"

# --out-dir: per-pass files match the stdout of the standalone command.
"$LOCKDOC" analyze "$DIR/eq.lockdb" --passes check,lock-order --out-dir "$DIR/passes_out" \
  > /dev/null
"$LOCKDOC" check "$DIR/eq.lockdb" > "$DIR/standalone.txt"
cmp "$DIR/standalone.txt" "$DIR/passes_out/check.txt"
"$LOCKDOC" lock-order "$DIR/eq.lockdb" > "$DIR/standalone.txt"
cmp "$DIR/standalone.txt" "$DIR/passes_out/lock-order.txt"

# --timings-json emits machine-readable timings without disturbing stdout.
"$LOCKDOC" analyze "$DIR/eq.lockdb" --passes check --timings-json "$DIR/timings.json" \
  > "$DIR/via_analyze.txt" 2> /dev/null
"$LOCKDOC" check "$DIR/eq.lockdb" > "$DIR/standalone.txt"
cmp "$DIR/standalone.txt" "$DIR/via_analyze.txt"
grep -q '"phases"' "$DIR/timings.json"

# Salvage x snapshot: importing a damaged trace with --salvage must produce
# a snapshot whose analysis is byte-identical to analyzing the damaged
# trace directly in salvage mode, for every pass, at any thread count. The
# damage: the trace is cut short and one byte in its middle is overwritten,
# so salvage skips a bad frame, resynchronizes and keeps about ten event
# frames, which it decodes on --jobs lanes into the same .lockdb bytes.
head -c 900000 "$DIR/eq.trace" > "$DIR/eq_damaged.trace"
printf '\377' | dd of="$DIR/eq_damaged.trace" bs=1 seek=400000 conv=notrunc 2> /dev/null
"$LOCKDOC" import "$DIR/eq_damaged.trace" --out "$DIR/eq_salvaged.lockdb" --salvage \
  --jobs 1 > /dev/null
for jobs in 2 8; do
  "$LOCKDOC" import "$DIR/eq_damaged.trace" --out "$DIR/eq_salvaged_j$jobs.lockdb" --salvage \
    --jobs "$jobs" > /dev/null
  cmp "$DIR/eq_salvaged.lockdb" "$DIR/eq_salvaged_j$jobs.lockdb" || {
    echo "FAIL: import --salvage at --jobs $jobs differs from --jobs 1" >&2
    exit 1
  }
done
for pass in check derive violations lock-order modes report; do
  "$LOCKDOC" "$pass" "$DIR/eq_damaged.trace" --salvage > "$DIR/standalone.txt"
  for jobs in 1 2 8; do
    "$LOCKDOC" analyze "$DIR/eq_salvaged.lockdb" --passes "$pass" --jobs "$jobs" \
      > "$DIR/via_snapshot.txt"
    cmp "$DIR/standalone.txt" "$DIR/via_snapshot.txt" || {
      echo "FAIL: $pass on salvaged snapshot differs from --salvage trace at --jobs $jobs" >&2
      exit 1
    }
  done
done

# Snapshot equivalence: the snapshot must analyze byte-identically to the
# trace itself, for every pass, at any thread count.
for pass in check derive violations lock-order modes report; do
  "$LOCKDOC" "$pass" "$DIR/eq.trace" > "$DIR/standalone.txt"
  for jobs in 1 2 8; do
    "$LOCKDOC" analyze "$DIR/eq.lockdb" --passes "$pass" --jobs "$jobs" \
      > "$DIR/via_snapshot.txt"
    cmp "$DIR/standalone.txt" "$DIR/via_snapshot.txt" || {
      echo "FAIL: $pass on eq.lockdb differs from the trace at --jobs $jobs" >&2
      exit 1
    }
  done
done

# Range workload: the mm mix exercises range locks (instance-qualified
# mmap_lock spans). Every pass must be byte-identical between the trace
# and its .lockdb snapshot, at any thread count.
"$LOCKDOC" simulate --workload mm --out "$DIR/eq_mm.trace" --ops 2500 --seed 11
"$LOCKDOC" import "$DIR/eq_mm.trace" --out "$DIR/eq_mm.lockdb" > /dev/null
for pass in check derive violations lock-order modes report; do
  "$LOCKDOC" "$pass" "$DIR/eq_mm.trace" > "$DIR/standalone.txt"
  for input in "$DIR/eq_mm.trace" "$DIR/eq_mm.lockdb"; do
    for jobs in 1 2 8; do
      "$LOCKDOC" analyze "$input" --passes "$pass" --jobs "$jobs" > "$DIR/via_mm.txt"
      cmp "$DIR/standalone.txt" "$DIR/via_mm.txt" || {
        echo "FAIL: mm $pass on $input differs from the trace at --jobs $jobs" >&2
        exit 1
      }
    done
  done
done

# Structured formats: every renderer must be deterministic across thread
# counts and byte-identical between a trace and its snapshot, and `analyze
# --format F` must equal the standalone command's --format F output.
for fmt in text json html; do
  for pass in violations report; do
    "$LOCKDOC" "$pass" "$DIR/eq.trace" --format "$fmt" > "$DIR/fmt_ref.out"
    for input in "$DIR/eq.trace" "$DIR/eq.lockdb"; do
      for jobs in 1 2 8; do
        "$LOCKDOC" "$pass" "$input" --format "$fmt" --jobs "$jobs" > "$DIR/fmt_got.out"
        cmp "$DIR/fmt_ref.out" "$DIR/fmt_got.out" || {
          echo "FAIL: $pass --format $fmt on $input differs at --jobs $jobs" >&2
          exit 1
        }
      done
    done
    "$LOCKDOC" analyze "$DIR/eq.lockdb" --passes "$pass" --format "$fmt" \
      > "$DIR/fmt_got.out"
    cmp "$DIR/fmt_ref.out" "$DIR/fmt_got.out" || {
      echo "FAIL: analyze --passes $pass --format $fmt differs from standalone" >&2
      exit 1
    }
  done
done

# --out-dir names files by the format's extension and writes the same bytes
# the standalone command prints.
"$LOCKDOC" analyze "$DIR/eq.lockdb" --passes violations --format json \
  --out-dir "$DIR/fmt_out" > /dev/null
"$LOCKDOC" violations "$DIR/eq.lockdb" --format json > "$DIR/fmt_ref.out"
cmp "$DIR/fmt_ref.out" "$DIR/fmt_out/violations.json"
"$LOCKDOC" analyze "$DIR/eq.lockdb" --passes check --format html \
  --out-dir "$DIR/fmt_out" > /dev/null
"$LOCKDOC" check "$DIR/eq.lockdb" --format html > "$DIR/fmt_ref.out"
cmp "$DIR/fmt_ref.out" "$DIR/fmt_out/check.html"

# --filter-config suppression is deterministic and reported, never silent.
cat > "$DIR/filt.conf" <<'EOF'
[ignored-functions]
vfs_write
EOF
"$LOCKDOC" violations "$DIR/eq.trace" --filter-config "$DIR/filt.conf" > "$DIR/filt1.out"
"$LOCKDOC" violations "$DIR/eq.lockdb" --filter-config "$DIR/filt.conf" --jobs 8 \
  > "$DIR/filt2.out"
cmp "$DIR/filt1.out" "$DIR/filt2.out"
grep -q "blacklist suppressed" "$DIR/filt1.out" || {
  echo "FAIL: --filter-config suppressed nothing (workload drift?)" >&2
  exit 1
}

# The full suite derives rules exactly once.
derivations=$("$LOCKDOC" analyze "$DIR/eq.lockdb" --timings 2>&1 > /dev/null |
  grep -c "rule derivation (interned)")
if [ "$derivations" -ne 1 ]; then
  echo "FAIL: expected exactly 1 rule derivation in full analyze, got $derivations" >&2
  exit 1
fi

# Every table value survives the .lockdb: the CSV bundle exported from each
# snapshot equals the one exported from its trace, so every column comes
# back from its stored width exactly, the nulls in locks.owner_* included.
for name in eq eq_mm eq_salvaged; do
  trace="$DIR/$name.trace"
  salvage=""
  if [ "$name" = eq_salvaged ]; then
    trace="$DIR/eq_damaged.trace"
    salvage="--salvage"
  fi
  rm -rf "$DIR/csv_${name}_trace" "$DIR/csv_${name}_lockdb"
  # shellcheck disable=SC2086
  "$LOCKDOC" export-csv "$trace" $salvage --dir "$DIR/csv_${name}_trace" > /dev/null
  "$LOCKDOC" export-csv "$DIR/$name.lockdb" --dir "$DIR/csv_${name}_lockdb" > /dev/null
  diff -r "$DIR/csv_${name}_trace" "$DIR/csv_${name}_lockdb" > /dev/null || {
    echo "FAIL: export-csv of $name.lockdb differs from its trace's" >&2
    exit 1
  }
done

echo "pass equivalence OK"
