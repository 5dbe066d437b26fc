"""SHA-256 digests of every file the hdts CLI writes, at fixed seeds and
small shapes, for checking that a change keeps every output byte.

Runs, in process and into a temporary directory, at --threads 1 and 2:
`simulate` (a linear and a threshold-AR panel), `estimate`, `ci`,
`covtest` with and without `--null`, `check-conditions --out`, and
`experiment` for all five kinds with `--dump-ecdf`.  Prints one line per
output, `<sha256>  t<threads>/<file>`.  Manifests are hashed with
`created_utc` dropped and `report.meta.json` with `cell_runtimes_sec`
dropped, since those hold wall-clock values.

Every input (configs, the null matrix) is written as plain text here,
not through hdts, so two versions of the package see the same bytes.
Run it against each version and diff the output:

    PYTHONPATH=src python tools/output_digests.py > new.txt
    PYTHONPATH=../parent/src python tools/output_digests.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hdts.cli import main

SEED = "11"

CONFIGS = {
    "lin": "[process]\nfamily = linear\np = 5\nK = 20\nh = 1\nrho = 0.3\n"
           "[simulate]\nn = 240\n",
    "tar": "[process]\nfamily = threshold-ar\np = 12\n[simulate]\nn = 240\n",
    "coverage": "[process]\np = 4\nK = 20\n[experiment]\nkind = coverage\nR = 200\n"
                "B = 1000\nn = 100\np = 4\nM = 0,2\ntheta = 0.9,0.95\n",
    "ga": "[process]\np = 4\nK = 20\n[experiment]\nkind = ga\nR = 20\nn = 100\n"
          "n_perm = 50\n",
    "rate": "[process]\np = 4\nK = 20\n[experiment]\nkind = rate\nR = 6\n"
            "n_grid = 64,128,256\n",
    "mdep": "[process]\np = 4\nK = 20\n[experiment]\nkind = mdep\nR = 6\nn = 128\n"
            "m_grid = 2,4,8\n",
    "counterexample": "[experiment]\nkind = counterexample\nR = 20\nn = 64\n"
                      "p_grid = 4,16\n",
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
                 "--out", str(d / "cc.json")]]
    for kind in ("coverage", "ga", "rate", "mdep", "counterexample"):
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


if __name__ == "__main__":
    lines = digests(1) + digests(2)
    sys.stdout.write("\n".join(lines) + "\n")
