#!/usr/bin/env python3
"""Memory gate for importing a trace: peak RSS over the .lockdb it yields.

Simulates the vfs mix at 15k ops (seed 7) and measures the peak RSS
(ru_maxrss of the child, via os.wait4) of three one-job runs, each divided
by the size of the .lockdb that `lockdoc import` writes for the trace. At
one job the memory is deterministic, unlike wall time on a shared host, so
the ratios are stable gates.

`lockdoc import --jobs 1`: the peak comes while the tables, the observation
store and the trace are all alive, so the gate fails if the import gathers
the file into a whole-file buffer again (that reads 4.51) or keeps a second
copy of the trace's events alive into the import (3.30). A copy made and
dropped inside the trace read stays below that peak and passes (2.49). The
import frames the file straight from the tables' column memory and decodes
events in place, which measured 2.50 (121.5 MB peak for a 48.7 MB .lockdb,
Release and RelWithDebInfo alike); the bound is that plus 15%. The import
that staged every section in payload strings and a whole-file buffer, and
merged per-frame event vectors, measured 3.95 (192.5 MB) and fails it.

`lockdoc serve SPOOL --once --jobs 1 --workers 1` with the trace dropped
in: serve's ingest is the import, so it takes the import's bound; it
measured 2.66 (129.6 MB). An ingest that serializes the whole .lockdb into
one string before writing it reads 3.83 and fails.

The same serve run with the trace's .lockdb dropped in: the drop is staged
and validated by the snapshot loader, which maps the staged file; that
measured 1.49 (72.7 MB), and the bound is that plus 15%. Validating a full
aligned copy of the dropped bytes beside the read buffer reads 2.49 and
fails.

Register this only in builds without sanitizers: shadow memory inflates RSS.

Usage: import_rss_test.py <lockdoc-binary> <scratch-dir>
"""
import os
import shutil
import subprocess
import sys

MAX_IMPORT_RSS_PER_LOCKDB_BYTE = 2.88
MAX_LOCKDB_DROP_RSS_PER_LOCKDB_BYTE = 1.72


def within_bound(label, argv, lockdb, bound, spool=None):
    """Runs argv (which ingests into `spool`, if given) and prints its peak
    RSS over the size of `lockdb`; True when the run succeeded within
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
    size = os.path.getsize(lockdb)
    ratio = peak / size
    print("%s peak RSS %.1f MB, .lockdb %.1f MB, ratio %.2f (bound %.2f)"
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
                        lockdb, MAX_IMPORT_RSS_PER_LOCKDB_BYTE):
        return 1
    ok = True
    for label, drop, bound in (
            ("serve trace ingest", trace, MAX_IMPORT_RSS_PER_LOCKDB_BYTE),
            ("serve .lockdb ingest", lockdb, MAX_LOCKDB_DROP_RSS_PER_LOCKDB_BYTE)):
        spool = os.path.join(scratch, "spool" + os.path.splitext(drop)[1])
        ok = within_bound(label, serve_once(lockdoc, spool, drop), lockdb, bound, spool) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
