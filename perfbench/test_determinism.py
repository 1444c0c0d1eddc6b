#!/usr/bin/env python3
"""Determinism self-check of the benchmark's counts.

Run from the repository root (takes a few minutes):

    python3 perfbench/test_determinism.py

For one seed, two traced `search` runs must report exactly the same
counts; a third run under another seed must change them. The counts are
the ones that depend only on the inputs, never on the machine: fp_ratio,
the returned-rid count and sdds.msgs_per_search from the searches, and
disk_bytes_per_user_byte and sdds.splits from the traced ingest round the
run ends with. The split count only has to repeat: it follows the record
count and the bucket capacities, not the keys, and came to 574 under every
seed tried (1, 2, 3, 11 to 15, 99 and 500). Exits 0 when every check holds,
1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED, OTHER_SEED = 11, 12
# The first pass and the ingest round always run whole, and the counts are
# taken from them, so a short run suffices.
SECONDS = "1"
SEED_INVARIANT = {"sdds.splits"}


def counts(seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "search",
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    detail_line, result_line = out.stdout.strip().splitlines()[-2:]
    detail = json.loads(detail_line)["detail"]["metrics"]
    layers = json.loads(result_line)["metrics"]
    return {
        "fp_ratio": detail["fp_ratio"]["value"],
        "returned_rids": detail["returned_rids"]["value"],
        "sdds.msgs_per_search": layers["sdds.msgs_per_search"]["value"],
        "disk_bytes_per_user_byte":
            detail["ingest.disk_bytes_per_user_byte"]["value"],
        "sdds.splits": layers["sdds.splits"]["value"],
    }


def main():
    ok = True
    first = counts(SEED)
    again = counts(SEED)
    other = counts(OTHER_SEED)
    for name, value in first.items():
        repeats = again[name] == value
        moves = other[name] != value or name in SEED_INVARIANT
        ok &= repeats and moves
        if name in SEED_INVARIANT:
            other_note = "seed-invariant"
        else:
            other_note = "changes" if moves else "SAME"
        print(f"{name:26s} seed {SEED}: {value} / {again[name]} "
              f"({'repeats' if repeats else 'DIFFERS'}); "
              f"seed {OTHER_SEED}: {other[name]} ({other_note})")
    print("determinism check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
