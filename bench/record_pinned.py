#!/usr/bin/env python3
"""Record the cycle-0 ``audit_exhaustive`` worst ratios for the default
workload seed into pinned_audit_exhaustive.json.

Run it only on a commit whose audit kernel is trusted; ``run.py`` compares
every later run of the default seed against these values (relative
tolerance 1e-9; an infinite ratio must stay infinite).

    python3 bench/record_pinned.py
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import fedrobust  # noqa: E402
from workloads import DEFAULT_SEED, PINNED_FILE, AuditExhaustive, Checks  # noqa: E402

workload = AuditExhaustive(fedrobust, DEFAULT_SEED, None, Checks())
workload.generate()
ratios = workload.cycle_zero_ratios()
PINNED_FILE.write_text(json.dumps({"seed": DEFAULT_SEED, "worst_ratio": ratios}, indent=0) + "\n")
print(f"pinned {len(ratios)} ratios to {PINNED_FILE.name}")
