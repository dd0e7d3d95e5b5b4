#!/usr/bin/env python3
"""Memory gate for importing a trace: peak RSS over the trace it reads.

Simulates the vfs mix at 15k ops (seed 7, an 8,403,473-byte trace) and
measures the peak RSS (ru_maxrss of the child, via os.wait4) of one-job
runs, each divided by the size of that trace. At one job the memory is
deterministic, unlike wall time on a shared host, so the ratios are stable
gates. The divisor is the trace, not the .lockdb: the LOCKDB03 container is
about 3.8x smaller than the LOCKDB02 one, and a gate divided by it would
loosen as the file shrinks.

Each bound started as the old bound per .lockdb byte converted exactly at
the LOCKDB02 file's 51,043,968 bytes and rounded down: 2.88 became 17.49
for the import, 1.72 became 10.44 for the .lockdb drop. Where the LOCKDB03
code measured + 15% is lower, that is the bound.

`lockdoc import --jobs 1`: the peak comes while the tables, the observation
store and the trace are all alive, so the gate fails if the import gathers
the file into a whole-file buffer again or keeps a second copy of the
trace's events alive into the import. It measured 14.22 (114.0 MB) with
flat group arrays; the LOCKDB02 import, with one heap vector per group,
read 15.17 (121.5 MB).

`lockdoc import --jobs 1 --salvage` on the same, undamaged trace: one v2
reader serves both modes and decodes in place, so the salvage import may
peak at most 1% above the strict import; it measured 113.9 MB against
113.8 MB. A salvage reader that staged every event in a second array read
+2.2% (Release) to +6.7% (unoptimized).

`lockdoc serve SPOOL --once --jobs 1 --workers 1` with the trace dropped
in: serve reads the trace once with that salvage reader and then imports as
`lockdoc import` does, so it is held to the import's bound. It measured
14.24 (114.1 MB); with the staging salvage reader it read 14.67 (117.6 MB)
under a bound of 16.87.

The same serve run with the trace's .lockdb dropped in: the drop is staged
and validated by the snapshot loader, which maps the staged file; it
measured 2.39 (19.1 MB). The LOCKDB02 loader, which mapped a 3.8x larger
file and decoded one heap vector per observation group, read 9.11
(73.0 MB) and fails this bound.

`lockdoc import HOSTILE --salvage --jobs 1`, where HOSTILE is a 98-byte v2
trace whose string table fails its CRC and whose one event names string id
2^24 - 1: salvage gives that one reference a placeholder, so the run must
peak under 64 MB; it measured 14.0 MB. A placeholder for every id up to the
largest reference peaked at 3.8 GB and wrote a 224 MB .lockdb.

Register this only in builds without sanitizers: shadow memory inflates RSS.

Usage: import_rss_test.py <lockdoc-binary> <scratch-dir>
"""
import os
import shutil
import struct
import subprocess
import sys
import zlib

MAX_IMPORT_RSS_PER_TRACE_BYTE = 16.35
MAX_SALVAGE_OVER_STRICT_IMPORT = 1.01
MAX_LOCKDB_DROP_RSS_PER_TRACE_BYTE = 2.74
MAX_HOSTILE_IMPORT_RSS_BYTES = 64 * 2**20


def peak_rss(label, argv, spool=None):
    """Runs argv (which ingests into `spool`, if given); its peak RSS in
    bytes, or None if it failed."""
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print("%s failed with exit code %d" % (label, code))
        return None
    if spool is not None:
        with open(os.path.join(spool, "responses", "web.ingest.meta")) as ack:
            if not ack.read().startswith("status=ok"):
                print("%s was not acknowledged" % label)
                return None
    return usage.ru_maxrss * 1024  # Linux reports kilobytes.


def within_bound(label, peak, trace, bound):
    """Prints `peak` over the size of `trace`; True when it is within
    `bound`."""
    if peak is None:
        return False
    size = os.path.getsize(trace)
    ratio = peak / size
    print("%s peak RSS %.1f MB, trace %.1f MB, ratio %.2f (bound %.2f)"
          % (label, peak / 2**20, size / 2**20, ratio, bound))
    return ratio <= bound


def within_limit(label, peak, limit, what):
    """Prints `peak` against an absolute `limit`; True when within it."""
    if peak is None:
        return False
    print("%s peak RSS %.1f MB (limit %.1f MB, %s)"
          % (label, peak / 2**20, limit / 2**20, what))
    return peak <= limit


def serve_once(lockdoc, spool, drop):
    """A fresh spool with `drop` in incoming/; the serve argv that ingests it."""
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(os.path.join(spool, "incoming"))
    shutil.copyfile(drop, os.path.join(spool, "incoming", "web" + os.path.splitext(drop)[1]))
    return [lockdoc, "serve", spool, "--once", "--jobs", "1", "--workers", "1"]


def varint(value):
    out = b""
    while value >= 0x80:
        out += bytes([(value & 0x7F) | 0x80])
        value >>= 7
    return out + bytes([value])


def frame(frame_type, seq, payload):
    """A v2 trace frame: marker, then type, seq and length, the payload and
    the CRC-32 of everything after the marker."""
    body = bytes([frame_type]) + struct.pack("<II", seq, len(payload)) + payload
    return b"\xabLD\xf2" + body + struct.pack("<I", zlib.crc32(body))


def write_hostile_trace(path):
    """The 98-byte trace: one read event naming string id 2^24 - 1, and a
    string table (only the empty string) whose CRC is broken."""
    # kind read, context, task, addr, size, type, subclass, lock type, mode,
    # name, file, line, stack.
    fields = [4, 0, 0, 0x1000, 8, 0, 0, 0, 0, (1 << 24) - 1, 0, 0, 0]
    event = b"".join(varint(f) for f in fields)
    data = bytearray(b"LDTRACE2" + frame(1, 0, varint(1) + varint(0)) + frame(2, 1, varint(0)) +
                     frame(3, 2, varint(1) + event) + frame(4, 3, varint(1)))
    data[8 + 13 + 2] ^= 0x01  # The string frame's CRC, after its 2-byte payload.
    with open(path, "wb") as out:
        out.write(data)


def main():
    lockdoc, scratch = sys.argv[1], sys.argv[2]
    os.makedirs(scratch, exist_ok=True)
    trace = os.path.join(scratch, "rss.trace")
    lockdb = os.path.join(scratch, "rss.lockdb")
    subprocess.run([lockdoc, "simulate", "--out", trace, "--ops", "15000", "--seed", "7"],
                   check=True, stdout=subprocess.DEVNULL)
    strict = peak_rss("import", [lockdoc, "import", trace, "--out", lockdb, "--jobs", "1"])
    if not within_bound("import", strict, trace, MAX_IMPORT_RSS_PER_TRACE_BYTE):
        return 1
    ok = True
    salvage = peak_rss("import --salvage",
                       [lockdoc, "import", trace, "--out", os.path.join(scratch, "salvage.lockdb"),
                        "--jobs", "1", "--salvage"])
    ok = within_limit("import --salvage", salvage, strict * MAX_SALVAGE_OVER_STRICT_IMPORT,
                      "strict import + 1%") and ok
    for label, drop, bound in (
            ("serve trace ingest", trace, MAX_IMPORT_RSS_PER_TRACE_BYTE),
            ("serve .lockdb ingest", lockdb, MAX_LOCKDB_DROP_RSS_PER_TRACE_BYTE)):
        spool = os.path.join(scratch, "spool" + os.path.splitext(drop)[1])
        peak = peak_rss(label, serve_once(lockdoc, spool, drop), spool)
        ok = within_bound(label, peak, trace, bound) and ok
    hostile = os.path.join(scratch, "hostile.trace")
    write_hostile_trace(hostile)
    if os.path.getsize(hostile) != 98:
        print("hostile trace is %d bytes, not 98" % os.path.getsize(hostile))
        return 1
    peak = peak_rss("import HOSTILE --salvage",
                    [lockdoc, "import", hostile, "--out", os.path.join(scratch, "hostile.lockdb"),
                     "--jobs", "1", "--salvage"])
    ok = within_limit("import HOSTILE --salvage", peak, MAX_HOSTILE_IMPORT_RSS_BYTES,
                      "98-byte trace") and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
