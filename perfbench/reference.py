"""Measure the coverage reference that the coverage-tar gate centres on.

Runs the coverage-tar cell with R replications in one coverage_experiment
call and prints the coverage of the zero mean and its binomial standard
error.  Run it from the repository root:

    python3 perfbench/reference.py --R 4000 --seed 0
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--R", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hdts import experiments
    from workloads import CoverageTar

    wl = CoverageTar(R=args.R)
    wl.setup(args.seed, workdir=None)     # coverage-tar writes no files
    row = experiments.coverage_experiment(wl.config(args.seed)).rows[0]
    cov = row["coverage"]
    print(f"coverage={cov:.4f} se={math.sqrt(cov * (1 - cov) / args.R):.4f} R={args.R}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
