"""Mutation check: each of a fixed list of small source mutations must make
some tier-1 test fail.

Each mutant is (name, file, old text, new text, test files).  The old text
must occur exactly once in the file.  For each mutant the tool copies the
repository's `src/`, `tests/` and `tools/` and `pyproject.toml` into a new
temporary directory, replaces the old text with the new one there and runs
pytest on the named test files, stopping at the first failure.  The mutant
is killed when pytest reports a failed test (exit 1) and survives when the
tests pass (exit 0); any other exit, such as a collection error, is an
error, since a mutant that does not import says nothing about the tests.
Before the mutants, the named files are run once on the unmutated copy and
must pass.

    python tools/mutants.py

Prints one line per mutant and exits 1 when any mutant survives or errs.
The whole list runs in under three minutes on two cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "pyproject.toml")

GBOOT, MODEL, UTIL = "src/hdts/gboot.py", "src/hdts/model.py", "src/hdts/util.py"
EXPERIMENTS, COVINF, CLI = "src/hdts/experiments.py", "src/hdts/covinf.py", "src/hdts/cli.py"
DIGESTS = ["tests/test_output_digests.py"]

MUTANTS = [
    # check order and run bookkeeping
    ("theta and B checked before finiteness", GBOOT,
     "    if k == 0:\n        est.check_finite()\n    _check_level(theta, B)\n",
     "    _check_level(theta, B)\n    if k == 0:\n        est.check_finite()\n",
     ["tests/test_gboot.py", "tests/test_cli.py"]),
    ("a run evaluated in reverse", UTIL,
     "        return [fn(i) for i in range(start, min(start + RUN, count))]\n",
     "        return [fn(i) for i in range(start, min(start + RUN, count))[::-1]][::-1]\n",
     ["tests/test_experiments.py"]),
    ("a run's outputs taken in reverse in _replicate", EXPERIMENTS,
     "                it = iter(run(cell, range(r, stop)))\n",
     "                it = iter(list(run(cell, range(r, stop)))[::-1])\n",
     ["tests/test_experiments.py"]),
    ("two coverage cells sharing stream 0", EXPERIMENTS,
     'base.derive("coverage-cell", ci)', 'base.derive("coverage-cell", 0)',
     ["tests/test_experiments.py"]),
    # coupled paths and threshold-AR stacks
    ("the copy's row 0 redrawn instead of row -n", MODEL,
     "            eps[-n] = spec.innovation.sample(", "            eps[0] = spec.innovation.sample(",
     ["tests/test_model.py"]),
    ("a last stack taken at full size", MODEL,
     "        S = min(size, count - start)\n", "        S = size\n",
     ["tests/test_model.py"]),
    ("the repair chain skipped", MODEL,
     "        if not (repaired or suspect[k - 1]):\n", "        if not suspect[k - 1]:\n",
     ["tests/test_model.py"]),
    ("simulating before _check_mc_order", "src/hdts/depmeasure.py",
     "    _check_mc_order(spec, q)\n"
     "    pairs = simulate_coupled(spec, lags + 1, [rng.derive(tag, r) for r in range(R)])\n"
     "    diffs = np.stack([np.abs(f(x.data) - f(xc.data)) for x, xc in pairs])\n",
     "    pairs = simulate_coupled(spec, lags + 1, [rng.derive(tag, r) for r in range(R)])\n"
     "    diffs = np.stack([np.abs(f(x.data) - f(xc.data)) for x, xc in pairs])\n"
     "    _check_mc_order(spec, q)\n",
     ["tests/test_depmeasure.py", "tests/test_covinf.py"]),
    # one-ulp changes that only the output digests see
    ("one ulp in _lag_sums", MODEL,
     "    x = g @ windows\n", "    x = np.nextafter(g @ windows, np.inf)\n", DIGESTS),
    ("one ulp in _tar_steps", MODEL,
     "        x *= theta1\n", "        x *= theta1 * (1.0 + 2.0 ** -52)\n", DIGESTS),
    ("one ulp in the bootstrap quantile", GBOOT,
     "    return float(sorted_draws[k - 1])\n",
     "    return float(np.nextafter(sorted_draws[k - 1], np.inf))\n", DIGESTS),
    ("16 digits in the CSV formatter", "src/hdts/io.py",
     '            fields.append("{:.17g}")\n', '            fields.append("{:.16g}")\n', DIGESTS),
    # statistics
    ("long-run estimate centred at 0", "src/hdts/longrun.py",
     "            centred = block_sums - block_sums.mean(axis=-2, keepdims=True)\n",
     "            centred = block_sums + 0.0\n",
     ["tests/test_longrun.py", "tests/test_gboot.py"]),
    ("diagonal over w instead of M w", "src/hdts/longrun.py",
     'block_sums, block_sums) / (plan.M * plan.w)\n', 'block_sums, block_sums) / plan.w\n',
     ["tests/test_longrun.py", "tests/test_gboot.py"]),
    ("interval half-width over n instead of sqrt(n)", GBOOT,
     "            half = bq.chi * scale[s] / math.sqrt(n)\n",
     "            half = bq.chi * scale[s] / n\n",
     ["tests/test_gboot.py"]),
    ("covtest studentized by tau_hat instead of tau_0", COVINF,
     "    tau0 = np.hypot(est.diag_scale / c, shift)\n", "    tau0 = est.diag_scale / c\n",
     ["tests/test_covinf.py"]),
    ("floor instead of ceil in _order_statistic", GBOOT,
     "    k = math.ceil(theta * sorted_draws.shape[0])\n",
     "    k = math.floor(theta * sorted_draws.shape[0])\n",
     ["tests/test_gboot.py"]),
    # input checks and defaults
    ("covtest guard deleted", COVINF,
     "    if math.sqrt(plan.w) <= bq.chi:\n", "    if False:\n",
     ["tests/test_covinf.py", "tests/test_cli.py"]),
    ("nu = None in cmd_check_conditions", CLI,
     "    if (args.profile is None) == (args.config is None):\n",
     "    args.nu = None\n    if (args.profile is None) == (args.config is None):\n",
     ["tests/test_cli.py"]),
    ("coverage p defaulting to 20", CLI,
     "\np =\nM = 0\n", "\np = 20\nM = 0\n", ["tests/test_cli.py"]),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(dest: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(dest / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    for _, file, old, _, _ in MUTANTS:       # every anchor, before any run
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{file}: the old text occurs {count} times, not once: {old!r}")
    every = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory(prefix="hdts-mutants-") as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), every) != 0:
            raise SystemExit("the named test files fail on the unmutated code")
    bad = 0
    for name, file, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="hdts-mutant-") as tmp:
            dest = Path(tmp)
            _copy(dest)
            path = dest / file
            path.write_text(path.read_text().replace(old, new))
            rc = _pytest(dest, tests)
        verdict = {0: "SURVIVED", 1: "killed"}.get(rc, f"ERROR (pytest exit {rc})")
        bad += rc != 1
        print(f"{verdict:<10} {time.perf_counter() - t0:6.1f} s  {name}  [{file}]", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
