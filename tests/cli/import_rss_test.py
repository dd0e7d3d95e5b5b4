#!/usr/bin/env python3
"""Memory gate for importing a trace: peak RSS over the trace it reads.

Simulates the vfs mix at 15k ops (seed 7, an 8,403,473-byte trace) and
measures the peak RSS (ru_maxrss of the child, via os.wait4) of three
one-job runs, each divided by the size of that trace. At one job the memory
is deterministic, unlike wall time on a shared host, so the ratios are
stable gates. The divisor is the trace, not the .lockdb: the LOCKDB03
container is about 3.8x smaller than the LOCKDB02 one, and a gate divided
by it would loosen as the file shrinks.

Each bound started as the old bound per .lockdb byte converted exactly at
the LOCKDB02 file's 51,043,968 bytes and rounded down: 2.88 became 17.49
for the import and serve's trace ingest, 1.72 became 10.44 for the
.lockdb drop. Where the LOCKDB03 code measured + 15% is lower, that is the
bound.

`lockdoc import --jobs 1`: the peak comes while the tables, the observation
store and the trace are all alive, so the gate fails if the import gathers
the file into a whole-file buffer again or keeps a second copy of the
trace's events alive into the import. It measured 14.22 (114.0 MB) with
flat group arrays; the LOCKDB02 import, with one heap vector per group,
read 15.17 (121.5 MB).

`lockdoc serve SPOOL --once --jobs 1 --workers 1` with the trace dropped
in: serve's ingest is the import plus its salvage read; it measured 14.67
(117.6 MB), against 16.21 (129.9 MB) for LOCKDB02.

The same serve run with the trace's .lockdb dropped in: the drop is staged
and validated by the snapshot loader, which maps the staged file; it
measured 2.39 (19.1 MB). The LOCKDB02 loader, which mapped a 3.8x larger
file and decoded one heap vector per observation group, read 9.11
(73.0 MB) and fails this bound.

Register this only in builds without sanitizers: shadow memory inflates RSS.

Usage: import_rss_test.py <lockdoc-binary> <scratch-dir>
"""
import os
import shutil
import subprocess
import sys

MAX_IMPORT_RSS_PER_TRACE_BYTE = 16.35
MAX_SERVE_TRACE_RSS_PER_TRACE_BYTE = 16.87
MAX_LOCKDB_DROP_RSS_PER_TRACE_BYTE = 2.74


def within_bound(label, argv, trace, bound, spool=None):
    """Runs argv (which ingests into `spool`, if given) and prints its peak
    RSS over the size of `trace`; True when the run succeeded within
    `bound`."""
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        print("%s failed with exit code %d" % (label, code))
        return False
    if spool is not None:
        with open(os.path.join(spool, "responses", "web.ingest.meta")) as ack:
            if not ack.read().startswith("status=ok"):
                print("%s was not acknowledged" % label)
                return False
    peak = usage.ru_maxrss * 1024  # Linux reports kilobytes.
    size = os.path.getsize(trace)
    ratio = peak / size
    print("%s peak RSS %.1f MB, trace %.1f MB, ratio %.2f (bound %.2f)"
          % (label, peak / 2**20, size / 2**20, ratio, bound))
    return ratio <= bound


def serve_once(lockdoc, spool, drop):
    """A fresh spool with `drop` in incoming/; the serve argv that ingests it."""
    shutil.rmtree(spool, ignore_errors=True)
    os.makedirs(os.path.join(spool, "incoming"))
    shutil.copyfile(drop, os.path.join(spool, "incoming", "web" + os.path.splitext(drop)[1]))
    return [lockdoc, "serve", spool, "--once", "--jobs", "1", "--workers", "1"]


def main():
    lockdoc, scratch = sys.argv[1], sys.argv[2]
    os.makedirs(scratch, exist_ok=True)
    trace = os.path.join(scratch, "rss.trace")
    lockdb = os.path.join(scratch, "rss.lockdb")
    subprocess.run([lockdoc, "simulate", "--out", trace, "--ops", "15000", "--seed", "7"],
                   check=True, stdout=subprocess.DEVNULL)
    if not within_bound("import", [lockdoc, "import", trace, "--out", lockdb, "--jobs", "1"],
                        trace, MAX_IMPORT_RSS_PER_TRACE_BYTE):
        return 1
    ok = True
    for label, drop, bound in (
            ("serve trace ingest", trace, MAX_SERVE_TRACE_RSS_PER_TRACE_BYTE),
            ("serve .lockdb ingest", lockdb, MAX_LOCKDB_DROP_RSS_PER_TRACE_BYTE)):
        spool = os.path.join(scratch, "spool" + os.path.splitext(drop)[1])
        ok = within_bound(label, serve_once(lockdoc, spool, drop), trace, bound, spool) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
