import os
import re

# One BLAS thread for the whole suite, set before anything imports numpy:
# the Tier-1 command leaves OpenBLAS at one thread per core, so a second
# numpy process beside the suite oversubscribes the machine and the
# wall-clock gates of c02 and c05 fail.  A pool size set explicitly, through
# a pool variable or LIGHTCONE_THREADS, wins.
_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in (*_POOLS, "LIGHTCONE_THREADS")):
    for var in _POOLS:
        os.environ[var] = "1"

_ACCEPTANCE = re.compile(r"test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in rep.nodeid:
                continue
            m = _ACCEPTANCE.search(rep.nodeid)
            if m is None:
                continue
            status = "PASS" if outcome == "passed" else "FAIL"
            rows[int(m.group(1))] = (m.group(2).replace("_", " "), status)
    if not rows:
        return
    terminalreporter.section("acceptance")
    for num in sorted(rows):
        label, status = rows[num]
        terminalreporter.write_line(f"criterion {num:2d} {status}  ({label})")
