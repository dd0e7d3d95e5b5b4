#!/bin/sh
# CLI exit-code matrix: every analysis command against a good trace, a good
# .lockdb snapshot, a damaged input, and a missing path — plus the strict
# flag-validation contract (unknown or inapplicable flag = usage error 64).
#
# Exit codes: 0 ok, 1 input/analysis error, 2 bad command line (usage),
# 64 strict usage error (bad flag, bad pass name, doctor misuse).
#
# Usage: exit_code_matrix_test.sh <lockdoc-binary> <scratch-dir>
set -u

LOCKDOC="$1"
DIR="$2"
TESTDATA="$(dirname "$0")/../core/testdata"
mkdir -p "$DIR"
failures=0

expect() {
  want="$1"
  shift
  "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*" >&2
    failures=$((failures + 1))
  fi
}

# Fixtures: good trace + snapshot, damaged trace (truncated), damaged
# snapshot (flipped bytes), garbage file, missing path.
"$LOCKDOC" simulate --out "$DIR/mx.trace" --ops 1500 --seed 5 || exit 1
"$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/mx.lockdb" || exit 1
head -c 50000 "$DIR/mx.trace" > "$DIR/mx_damaged.trace"
cp "$DIR/mx.lockdb" "$DIR/mx_damaged.lockdb"
printf '\377\377\377\377' | dd of="$DIR/mx_damaged.lockdb" bs=1 seek=4000 conv=notrunc 2> /dev/null
echo garbage > "$DIR/mx_garbage.trace"
MISSING="$DIR/does_not_exist.trace"

# Every analysis command: good inputs succeed, damaged and missing fail 1.
for cmd in stats derive check violations lock-order modes report analyze; do
  expect 0 "$LOCKDOC" "$cmd" "$DIR/mx.trace"
  expect 0 "$LOCKDOC" "$cmd" "$DIR/mx.lockdb"
  expect 1 "$LOCKDOC" "$cmd" "$DIR/mx_damaged.trace"
  expect 1 "$LOCKDOC" "$cmd" "$DIR/mx_damaged.lockdb"
  expect 1 "$LOCKDOC" "$cmd" "$MISSING"
done
expect 0 "$LOCKDOC" export-csv "$DIR/mx.trace" --dir "$DIR/mx_csv"
expect 1 "$LOCKDOC" export-csv "$MISSING" --dir "$DIR/mx_csv"
expect 0 "$LOCKDOC" diff "$DIR/mx.trace" "$DIR/mx.lockdb"
expect 1 "$LOCKDOC" diff "$MISSING" "$DIR/mx.trace"
expect 1 "$LOCKDOC" import "$MISSING" --out "$DIR/x.lockdb"
expect 1 "$LOCKDOC" import "$DIR/mx_damaged.trace" --out "$DIR/x.lockdb"

# Damaged traces are salvageable; damaged snapshots are not (checksums).
expect 0 "$LOCKDOC" stats "$DIR/mx_damaged.trace" --salvage
expect 1 "$LOCKDOC" stats "$DIR/mx_damaged.lockdb" --salvage

# doctor: 0 clean, 1 salvageable damage, 2 unreadable, 64 usage.
expect 0 "$LOCKDOC" doctor "$DIR/mx.trace"
expect 0 "$LOCKDOC" doctor "$DIR/mx.lockdb"
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.trace"
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.lockdb"
expect 2 "$LOCKDOC" doctor "$DIR/mx_garbage.trace"
expect 2 "$LOCKDOC" doctor "$MISSING"
expect 64 "$LOCKDOC" doctor
# Snapshot repair: salvageable damage still reports 1, and the repaired
# container comes out structurally clean (doctor exit 0 modulo payload).
expect 1 "$LOCKDOC" doctor "$DIR/mx_damaged.lockdb" --repair "$DIR/mx_repaired.lockdb"
[ -f "$DIR/mx_repaired.lockdb" ] || {
  echo "FAIL: doctor --repair did not write the repaired snapshot" >&2
  failures=$((failures + 1))
}

# The retired containers — v1 (magic LOCKDB01) and the full-width v2
# (LOCKDB02, a real file frozen from before v3) — are typed errors, never
# read as a trace: analysis exits 1, doctor calls them unreadable (2) and
# --repair writes nothing.
printf 'LOCKDB01\253LD\363' > "$DIR/mx_v1.lockdb"
cp "$TESTDATA/legacy_v2.lockdb" "$DIR/mx_v2.lockdb"
for version in 1 2; do
  old="$DIR/mx_v$version.lockdb"
  expect 1 "$LOCKDOC" check "$old"
  expect 1 "$LOCKDOC" stats "$old"
  expect 2 "$LOCKDOC" doctor "$old"
  expect 2 "$LOCKDOC" doctor "$old" --repair "$DIR/mx_v${version}_repaired.lockdb"
  [ ! -e "$DIR/mx_v${version}_repaired.lockdb" ] || {
    echo "FAIL: doctor --repair wrote a file for a v$version container" >&2
    failures=$((failures + 1))
  }
  "$LOCKDOC" check "$old" 2>&1 |
    grep -q "container v$version (LOCKDB0$version).*lockdoc import" || {
    echo "FAIL: a v$version container does not name itself and the re-import" >&2
    failures=$((failures + 1))
  }
  # Doctor cannot read or repair a retired container, so the CLI's hint
  # must not point there.
  if "$LOCKDOC" check "$old" 2>&1 | grep -q 'doctor'; then
    echo "FAIL: the CLI sends a v$version container to doctor" >&2
    failures=$((failures + 1))
  fi
done
# A damaged v3 container keeps the doctor hint.
"$LOCKDOC" check "$DIR/mx_damaged.lockdb" 2>&1 | grep -q 'try `lockdoc doctor' || {
  echo "FAIL: a damaged v3 container lost its doctor hint" >&2
  failures=$((failures + 1))
}

# CRC-clean forgeries must fail to load (1) and be unreadable to doctor (2),
# never abort: the last observation-groups key naming a subclass the
# registry lacks, a column width outside {1, 2, 4, 8} in a table and in the
# groups section, a group lock sequence at the sequence count, and group
# counts that do not sum to the group total.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$DIR/mx.lockdb" "$DIR/mx_forged" <<'PY'
import struct, sys, zlib

def varint(buf, i):
    value, shift = 0, 0
    while True:
        byte = buf[i]
        i += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, i

def padded(n):
    return (n + 7) & ~7

def forge(out, kind_wanted, edit):
    """Applies edit(payload) to the first section of kind_wanted and fixes
    both CRCs; without an edit, returns that section's payload."""
    data = bytearray(open(sys.argv[1], "rb").read())
    pos = 8
    while pos < len(data):
        kind = data[pos + 4]
        length = struct.unpack_from("<Q", data, pos + 12)[0]
        start = pos + 32
        if kind == kind_wanted:
            payload = data[start:start + length]
            if edit is None:
                return payload
            edit(payload)
            data[start:start + length] = payload
            struct.pack_into("<I", data, pos + 20,
                             zlib.crc32(bytes(data[start:start + padded(length)])))
            struct.pack_into("<I", data, pos + 28, zlib.crc32(bytes(data[pos + 4:pos + 28])))
            break
        pos = start + padded(length)
    open(sys.argv[2] + "_" + out + ".lockdb", "wb").write(data)

# Groups: u64 K | u64 G | u64 S | u8 width[10], padded to 8, then
# type[K] | subclass[K] | member[K] | groups_per_key[K] | lockseq[G] | ...,
# each padded to 8.
def groups_array(payload, index):
    counts = struct.unpack_from("<QQQ", payload, 0)
    offset = 40
    for i in range(index):
        offset += padded(counts[0 if i < 4 else 1 if i < 9 else 2] * payload[24 + i])
    return offset, payload[24 + index]

def set_value(payload, index, row, value):
    offset, width = groups_array(payload, index)
    at = offset + row * width
    payload[at:at + width] = value.to_bytes(width, "little")

def get_value(payload, index, row):
    offset, width = groups_array(payload, index)
    return int.from_bytes(payload[offset + row * width:offset + (row + 1) * width], "little")

def table_width(payload):
    """Sets the first numeric column's width byte of a table header to 3."""
    n, i = varint(payload, 0)
    _, i = varint(payload, i + n)  # Column count.
    n, i = varint(payload, i)
    i += n
    if payload[i] != 2:  # Not a string column: its width byte follows.
        payload[i + 1] = 3

def groups_width(payload):
    payload[24 + 4] = 16  # The lockseq array's width.

seq_count = struct.unpack_from("<Q", forge(None, 5, None), 0)[0]
keys = lambda payload: struct.unpack_from("<Q", payload, 0)[0]
forge("subclass", 6, lambda p: set_value(p, 1, keys(p) - 1, 77))
forge("table_width", 3, table_width)
forge("groups_width", 6, groups_width)
forge("lockseq", 6, lambda p: set_value(p, 4, 0, seq_count))
forge("group_count", 6, lambda p: set_value(p, 3, 0, get_value(p, 3, 0) - 1))
PY
  expect 0 "$LOCKDOC" doctor "$DIR/mx.lockdb"
  for forged in subclass table_width groups_width lockseq group_count; do
    expect 1 "$LOCKDOC" report "$DIR/mx_forged_$forged.lockdb"
    expect 1 "$LOCKDOC" check "$DIR/mx_forged_$forged.lockdb"
    expect 2 "$LOCKDOC" doctor "$DIR/mx_forged_$forged.lockdb"
  done
fi

# No command line at all / unknown command: usage, exit 2.
expect 2 "$LOCKDOC"
expect 2 "$LOCKDOC" frobnicate "$DIR/mx.trace"

# Strict flag validation: a flag the command does not accept is exit 64,
# even when the input is perfectly fine.
expect 64 "$LOCKDOC" stats "$DIR/mx.trace" --tac 0.9
expect 64 "$LOCKDOC" derive "$DIR/mx.trace" --limit 3
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --full
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --rules /dev/null
expect 64 "$LOCKDOC" lock-order "$DIR/mx.trace" --all
expect 64 "$LOCKDOC" modes "$DIR/mx.trace" --spec
expect 64 "$LOCKDOC" report "$DIR/mx.trace" --out-dir "$DIR/x"
expect 64 "$LOCKDOC" simulate --out "$DIR/x.trace" --salvage
expect 64 "$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/x.lockdb" --bogus-flag
expect 64 "$LOCKDOC" doctor "$DIR/mx.trace" --jobs 2
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --unknown-flag 1
# import has no container choice any more: --format is an unknown flag.
expect 64 "$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/x.lockdb" --format v1
expect 64 "$LOCKDOC" import "$DIR/mx.trace" --out "$DIR/x.lockdb" --format v2

# Strict positional arguments: one past the synopsis is exit 64.
expect 64 "$LOCKDOC" check "$DIR/mx.trace" "$DIR/mx.lockdb"
expect 64 "$LOCKDOC" stats "$DIR/mx.trace" "$DIR/mx.trace"
expect 64 "$LOCKDOC" import "$DIR/mx.trace" "$DIR/mx.trace" --out "$DIR/x.lockdb"
expect 64 "$LOCKDOC" doctor "$DIR/mx.trace" "$DIR/mx.trace"
expect 64 "$LOCKDOC" diff "$DIR/mx.trace" "$DIR/mx.lockdb" "$DIR/mx.trace"
expect 64 "$LOCKDOC" simulate extra --out "$DIR/x.trace"

# analyze-specific usage errors.
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --passes bogus
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --passes diff
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --baseline
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --timings-json

# --format: good values work everywhere the flag exists; a bad or bare
# value is exit 64; commands without a report document reject it.
expect 0 "$LOCKDOC" violations "$DIR/mx.trace" --format json
expect 0 "$LOCKDOC" report "$DIR/mx.lockdb" --format html
expect 0 "$LOCKDOC" analyze "$DIR/mx.trace" --format json
expect 0 "$LOCKDOC" diff "$DIR/mx.trace" "$DIR/mx.lockdb" --format json
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --format bogus
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --format
expect 64 "$LOCKDOC" analyze "$DIR/mx.trace" --format xml
expect 64 "$LOCKDOC" stats "$DIR/mx.trace" --format json

# --filter-config: a missing or malformed file is exit 64 before any input
# is loaded; a well-formed one is accepted.
printf '[ignored-functions]\nvfs_write\n' > "$DIR/mx_filter_ok.conf"
printf 'orphan-name\n' > "$DIR/mx_filter_bad.conf"
printf '[no-such-section]\n' > "$DIR/mx_filter_badsec.conf"
expect 0 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"
expect 0 "$LOCKDOC" report "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$MISSING"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_bad.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config "$DIR/mx_filter_badsec.conf"
expect 64 "$LOCKDOC" violations "$DIR/mx.trace" --filter-config
expect 64 "$LOCKDOC" check "$DIR/mx.trace" --filter-config "$DIR/mx_filter_ok.conf"

# serve: strict usage validation up front (64), clean --once runs exit 0.
mkdir -p "$DIR/mx_spool/incoming"
expect 0 "$LOCKDOC" serve "$DIR/mx_spool" --once
expect 64 "$LOCKDOC" serve
expect 64 "$LOCKDOC" serve "$DIR/mx_missing_spool" --once
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --state
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --state "$DIR/mx_garbage.trace/state" --once
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --poll-ms 50
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --max-resident 0
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --max-resident abc
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --deadline-ms -5
expect 64 "$LOCKDOC" serve "$DIR/mx_spool" --once --bogus-flag 1

if [ "$failures" -ne 0 ]; then
  echo "$failures exit-code expectations failed" >&2
  exit 1
fi
echo "exit-code matrix OK"
