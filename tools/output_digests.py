"""SHA-256 digests of every file the hdts CLI writes, and of the panels
the library simulates, at fixed seeds and small shapes, for checking that
a change keeps every output byte.

Runs, in process and into a temporary directory, at --threads 1 and 2:
`simulate` (a linear and a threshold-AR panel), `estimate`, `ci`,
`covtest` with and without `--null`, `check-conditions --out` (also at
q = 400 on an iid p = 5 config, whose condition terms lie beyond the
float range in linear space, and with `--nu 1.0` on that config, the
sub-exponential regime), and
`experiment` for all five kinds with `--dump-ecdf` (`rate` and `ga`
twice: at h = 0, and at h = 2, where the closed-form profile would draw
its Monte Carlo omega and every sum passes through the cross mixer;
`coverage` and `ga` also on threshold-AR, whose replications share
stacked paths).  Prints one line per
output, `<sha256>  t<threads>/<file>`.  Manifests are hashed with
`created_utc` dropped and `report.meta.json` with `cell_runtimes_sec`
dropped, since those hold wall-clock values.  Then one line per library
case, `<sha256>  lib/<case>/<sampler>`: the `panel.data` bytes of
`simulate`, of `simulate_many` over 9 streams (several threshold-AR
stacks), of the `simulate_coupled` pair of one stream and of
`simulate_coupled` over 9 streams (`simulate_coupled_many`: 18 panels,
panel then copy, stepped as threshold-AR stacks of several pairs), for
iid, linear (K, h > 0) and threshold-AR specs (Gaussian; shell-pareto,
whose zero runs force segment repairs, at theta1 > theta2 and at
theta1 < theta2; and a path short enough for fewer than 3 segments), and
the bytes of `column_sums` over 9 streams (for threshold-AR, the sums of
the stacks `simulate_many` steps).

Every input (configs, the null matrix) is written as plain text here,
not through hdts, so two versions of the package see the same bytes.
The output starts with `# ` lines naming the numpy, scipy and OpenBLAS
versions, since the bits of a matrix product depend on them.  Run it
against each version and diff the output:

    PYTHONPATH=src python tools/output_digests.py > new.txt
    PYTHONPATH=../parent/src python tools/output_digests.py > old.txt
    diff old.txt new.txt

`tests/data/output_digests.txt` holds this output, and
`tests/test_output_digests.py` checks every run of the suite against it.
A change that moves output bits on purpose regenerates it:

    PYTHONPATH=src python tools/output_digests.py > tests/data/output_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hdts.cli import main
from hdts.model import (InnovationLaw, ProcessSpec, column_sums, simulate, simulate_coupled,
                        simulate_many)
from hdts.rng import RngContract

SEED = "11"

CONFIGS = {
    "lin": "[process]\nfamily = linear\np = 5\nK = 20\nh = 1\nrho = 0.3\n"
           "[simulate]\nn = 240\n",
    "iid": "[process]\nfamily = iid\np = 5\n",
    "tar": "[process]\nfamily = threshold-ar\np = 12\n[simulate]\nn = 240\n",
    "coverage": "[process]\np = 4\nK = 20\n[experiment]\nkind = coverage\nR = 200\n"
                "B = 1000\nn = 100\np = 4\nM = 0,2\ntheta = 0.9,0.95\n",
    "ga": "[process]\np = 4\nK = 20\n[experiment]\nkind = ga\nR = 20\nn = 100\n"
          "n_perm = 50\n",
    # threshold-AR: 8 p (n + burn_in) bytes a path split runs of 8
    # replications into stacks of 7 and 1 (model.STACK_BYTES = 2 MiB)
    "coverage-tar": "[process]\nfamily = threshold-ar\np = 16\ntheta1 = 0.4\ntheta2 = -0.2\n"
                    "burn_in = 2000\n[experiment]\nkind = coverage\nR = 200\nB = 1000\n"
                    "n = 150\np = 16\nM = 0\ntheta = 0.9\n",
    "ga-h2": "[process]\nfamily = linear\np = 4\nK = 20\nh = 2\nrho = 0.5\n[experiment]\n"
             "kind = ga\nR = 20\nn = 100\nn_perm = 50\n",
    "ga-tar": "[process]\nfamily = threshold-ar\np = 4\ntheta1 = 0.5\ntheta2 = -0.3\n"
              "burn_in = 100\n[experiment]\nkind = ga\nR = 20\nn = 100\nn_perm = 50\n",
    "rate": "[process]\np = 4\nK = 20\n[experiment]\nkind = rate\nR = 6\n"
            "n_grid = 64,128,256\n",
    "rate-h2": "[process]\np = 4\nK = 20\nh = 2\nrho = 0.5\n[experiment]\nkind = rate\n"
               "R = 6\nn_grid = 64,128,256\n",
    "mdep": "[process]\np = 4\nK = 20\n[experiment]\nkind = mdep\nR = 6\nn = 128\n"
            "m_grid = 2,4,8\n",
    "counterexample": "[experiment]\nkind = counterexample\nR = 20\nn = 64\n"
                      "p_grid = 4,16\n",
}

# (ProcessSpec keywords, n) of the library cases; 8 p (n + burn_in) bytes
# a path makes simulate_many's threshold-AR stacks 4, 4, 1 / 4, 4, 1 /
# 2, 2, 2, 2, 1 / 8, 1, and the 18 coupled paths' stacks 4 x 4, 2 /
# 4 x 4, 2 / 9 x 2 / 8, 8, 2 (model.STACK_BYTES = 2 MiB)
LIBRARY = {
    "iid": (dict(family="iid", p=3), 200),
    "linear": (dict(family="linear", p=5, alpha=0.5, K=30, h=2, rho=0.4), 200),
    "tar": (dict(family="threshold-ar", p=40, theta1=0.3, theta2=0.3), 500),
    "tar-shell": (dict(family="threshold-ar", p=16, theta1=0.5, theta2=-0.3, burn_in=2000,
                       innovation=InnovationLaw.symmetric_pareto(4.0, body="shell")), 1500),
    "tar-short": (dict(family="threshold-ar", p=48, theta1=0.98, theta2=-0.5, burn_in=0),
                  2000),
    "tar-shell-min": (dict(family="threshold-ar", p=12, theta1=-0.4, theta2=0.6, burn_in=1500,
                           innovation=InnovationLaw.symmetric_pareto(4.0, body="shell")), 1200),
}

NULL_P5 = "".join(",".join("1" if j == k else "0" for k in range(5)) + "\n"
                  for j in range(5))


def runs(d: Path, threads: int) -> list[list[str]]:
    """CLI argument lists, in order; later runs read earlier outputs."""
    g = ["--seed", SEED, "--threads", str(threads)]
    cfg = {name: str(d / f"{name}.ini") for name in CONFIGS}
    out = [g + ["simulate", "--config", cfg["lin"], "--out", str(d / "lin")],
           g + ["simulate", "--config", cfg["tar"], "--out", str(d / "tar")]]
    for panel in ("lin", "tar"):
        out += [
            g + ["estimate", "--panel", str(d / f"{panel}.csv"), "--out", str(d / f"{panel}-est")],
            g + ["estimate", "--panel", str(d / f"{panel}.bin"), "--M", "4",
                 "--out", str(d / f"{panel}-est4")],
            g + ["ci", "--panel", str(d / f"{panel}.bin"), "--B", "1000",
                 "--out", str(d / f"{panel}-ci")],
            g + ["ci", "--panel", str(d / f"{panel}.csv"), "--M", "5", "--theta", "0.9",
                 "--B", "1200", "--out", str(d / f"{panel}-ci5")],
            g + ["covtest", "--panel", str(d / f"{panel}.bin"), "--B", "1000",
                 "--out", str(d / f"{panel}-ct")],
        ]
    out += [g + ["covtest", "--panel", str(d / "lin.bin"), "--B", "1000",
                 "--null", str(d / "null.csv"), "--out", str(d / "lin-ctnull")],
            g + ["check-conditions", "--config", cfg["lin"], "--n", "4096",
                 "--out", str(d / "cc.json")],
            g + ["check-conditions", "--config", cfg["iid"], "--q", "400", "--n", "1000",
                 "--out", str(d / "cc-q400.json")],
            g + ["check-conditions", "--config", cfg["iid"], "--n", "4096", "--nu", "1.0",
                 "--out", str(d / "cc-nu.json")]]
    for kind in ("coverage", "coverage-tar", "ga", "ga-h2", "ga-tar", "rate", "rate-h2", "mdep",
                 "counterexample"):
        out.append(g + ["experiment", "--config", cfg[kind],
                        "--out-dir", str(d / f"exp-{kind}"), "--dump-ecdf"])
    return out


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        obj = json.loads(data)
        obj.pop("created_utc")
        data = json.dumps(obj, sort_keys=True).encode()
    elif path.name == "report.meta.json":
        obj = json.loads(data)
        obj.pop("cell_runtimes_sec")
        data = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def digests(threads: int) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="hdts-digests-") as tmp:
        d = Path(tmp)
        for name, text in CONFIGS.items():
            (d / f"{name}.ini").write_text(text)
        (d / "null.csv").write_text(NULL_P5)
        inputs = {p.name for p in d.iterdir()}
        for argv in runs(d, threads):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            if rc != 0:
                raise SystemExit(f"exit {rc}: hdts {' '.join(argv)}")
        files = sorted(p for p in d.rglob("*")
                       if p.is_file() and p.relative_to(d).as_posix() not in inputs)
        return [f"{digest(p)}  t{threads}/{p.relative_to(d).as_posix()}" for p in files]


def library_digests() -> list[str]:
    lines = []
    for case, (keywords, n) in LIBRARY.items():
        spec, rng = ProcessSpec(**keywords), RngContract(int(SEED)).derive(case)
        samplers = {
            "simulate": [simulate(spec, n, rng.derive("one")).data],
            "simulate_many": (panel.data for panel in
                              simulate_many(spec, n, [rng.derive("many", r) for r in range(9)])),
            "simulate_coupled": [panel.data for panel in
                                 next(simulate_coupled(spec, n, [rng.derive("coupled")]))],
            "simulate_coupled_many": (panel.data for pair in simulate_coupled(
                spec, n, [rng.derive("coupled-many", r) for r in range(9)]) for panel in pair),
            "column_sums": column_sums(spec, n, [rng.derive("sums", r) for r in range(9)]),
        }
        for name, arrays in samplers.items():
            h = hashlib.sha256()
            for a in arrays:
                h.update(a.tobytes())
            lines.append(f"{h.hexdigest()}  lib/{case}/{name}")
    return lines


def versions() -> list[str]:
    """The header lines: numpy, scipy and OpenBLAS versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy {np.__version__}", f"# scipy {scipy.__version__}",
            f"# openblas {blas.get('version', 'unknown')}"]


def all_digests() -> list[str]:
    """Every digest line, CLI runs at --threads 1 and 2, then the library."""
    return digests(1) + digests(2) + library_digests()


if __name__ == "__main__":
    sys.stdout.write("\n".join(versions() + all_digests()) + "\n")
