#!/usr/bin/env python3
"""Run the acceptance criteria and self-checks (all, or the ids given);
nonzero exit on the first failure."""

import sys

from lightcone.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["check"] + (sys.argv[1:] or ["all"])))
