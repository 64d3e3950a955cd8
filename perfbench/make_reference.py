"""Write reference.json: the certified outputs of the first operations of
every workload at the default seed, which the correctness gate compares
each run against.

    python3 perfbench/make_reference.py

Regenerate it only in a change that means to alter certified values, and say
so in that change.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Enough operations to cover a run of BENCHMARK.json's length; later
# operations of a run are gated without a stored reference.
OPERATIONS = {"rscan-dense": 3, "block-small": 16, "slice-levels": 8, "sim-walk": 40}


def main():
    out = {}
    for name, count in OPERATIONS.items():
        out[name] = []
        for index in range(count):
            prep = workloads.Prepared(name, workloads.DEFAULT_SEED, index)
            _, _, _, certified, xval = workloads.run_op(prep)
            rec = workloads.record(prep, certified, xval)
            found = workloads.problems(prep, rec, xval, None)
            if found:
                raise SystemExit(f"{name} operation {index} failed: {found}")
            out[name].append(rec)
            print(name, index, file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
