#!/usr/bin/env python3
"""Memory gate for `lockdoc import`: peak RSS over the .lockdb it writes.

Simulates the vfs mix at 15k ops (seed 7), imports it with `--jobs 1`, and
divides the import's peak RSS (ru_maxrss of the child, via os.wait4) by the
size of the .lockdb it wrote. At one job the import's memory is
deterministic, unlike its wall time on a shared host, so the ratio is a
stable gate. The peak comes while the tables, the observation store and
the trace are all alive, so the gate fails if the import gathers the file
into a whole-file buffer again (that reads 4.51) or keeps a second copy of
the trace's events alive into the import (3.30). A copy made and dropped
inside the trace read stays below that peak and passes (2.49).

The import frames the file straight from the tables' column memory and
decodes events in place, which measured 2.50 (121.5 MB peak for a 48.7 MB
.lockdb, Release and RelWithDebInfo alike); the bound is that plus 15%. The
import that staged every section in payload strings and a whole-file
buffer, and merged per-frame event vectors, measured 3.95 (192.5 MB) and
fails it.

Register this only in builds without sanitizers: shadow memory inflates RSS.

Usage: import_rss_test.py <lockdoc-binary> <scratch-dir>
"""
import os
import subprocess
import sys

MAX_RSS_PER_LOCKDB_BYTE = 2.88


def main():
    lockdoc, scratch = sys.argv[1], sys.argv[2]
    os.makedirs(scratch, exist_ok=True)
    trace = os.path.join(scratch, "rss.trace")
    lockdb = os.path.join(scratch, "rss.lockdb")
    subprocess.run([lockdoc, "simulate", "--out", trace, "--ops", "15000", "--seed", "7"],
                   check=True, stdout=subprocess.DEVNULL)
    child = subprocess.Popen([lockdoc, "import", trace, "--out", lockdb, "--jobs", "1"],
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        print("import failed with exit code %d" % child.returncode)
        return 1
    peak = usage.ru_maxrss * 1024  # Linux reports kilobytes.
    size = os.path.getsize(lockdb)
    ratio = peak / size
    print("import peak RSS %.1f MB, .lockdb %.1f MB, ratio %.2f (bound %.2f)"
          % (peak / 2**20, size / 2**20, ratio, MAX_RSS_PER_LOCKDB_BYTE))
    return 0 if ratio <= MAX_RSS_PER_LOCKDB_BYTE else 1


if __name__ == "__main__":
    sys.exit(main())
