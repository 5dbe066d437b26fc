"""The three benchmark workloads and their output gates.

Each workload builds its inputs from the run's seed in `setup`, runs one
closed-loop op per `op` call, and checks every output with a statistical
gate rather than a byte digest, so a change that alters random draws but
keeps the suite's tolerances still passes.  `load` turns an op's raw result
into the output that is gated and compared; it runs outside the timed
region.

Import this module only after the thread-count environment is set: it
imports numpy through hdts.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from hdts import cli, experiments, gboot, io, model
from hdts.covinf import cov_simultaneous_test, n_pairs
from hdts.experiments import ExperimentConfig
from hdts.model import InnovationLaw, Panel, ProcessSpec
from hdts.rng import RngContract

# Two-sample KS critical value at level 0.001: c(a) sqrt(2/R) with
# c(a) = sqrt(-ln(a/2)/2).
KS_C_0001 = math.sqrt(-0.5 * math.log(0.001 / 2.0))

# Coverage of the zero mean on the coverage-tar cell, measured with
# perfbench/reference.py at the commit that added this benchmark
# (R = 4000 replications, seed 0).
COVERAGE_REF = 0.8842
COVERAGE_REF_R = 4000
COVERAGE_Z = 4.5                  # band half-width in binomial standard errors

CHI_MARGIN = 0.25                 # slack above the Sidak bound for bootstrap noise


WARMUP = 2 ** 31                  # op index of the untimed warm-up op


def op_seed(seed: int, i: int) -> int:
    """Base seed of op i; a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


@dataclass
class GaLinear:
    """experiments.ga_distance on the criterion-2 linear process."""

    name = "ga-linear"
    threads: int = 2
    p: int = 50
    n: int = 1000
    R: int = 100                  # replications per ga_distance call

    def spec(self) -> ProcessSpec:
        return ProcessSpec("linear", p=self.p, alpha=2.0, K=200, h=2, rho=0.5,
                           innovation=InnovationLaw.gaussian())

    @property
    def reps(self) -> int:
        return self.R

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self._spec = self.spec()
        experiments.ga_distance(self._spec, self.n, 2, RngContract(op_seed(seed, WARMUP)),
                                n_perm=0, threads=self.threads)

    def op(self, i: int, slot: str):
        return experiments.ga_distance(self._spec, self.n, self.R,
                                       RngContract(op_seed(self.seed, i)),
                                       n_perm=0, threads=self.threads)

    def load(self, raw):
        return raw

    def gate(self, res) -> str | None:
        if res.R != self.R or res.sample_stats.shape != (self.R,) \
                or res.gauss_stats.shape != (self.R,):
            return f"expected {self.R} replications"
        if not (np.all(np.isfinite(res.sample_stats)) and np.all(np.isfinite(res.gauss_stats))):
            return "non-finite statistics"
        if not 0.0 <= res.ks <= 1.0:
            return f"KS {res.ks!r} outside [0, 1]"
        return None

    def gate_run(self, results) -> str | None:
        """Pooled over the run's calls: KS below the level-0.001 critical value.

        One call's R is too small for a useful test, and a per-call test at
        level 0.001 fails somewhere in a long run by chance alone.
        """
        sample = np.concatenate([r.sample_stats for r in results])
        gauss = np.concatenate([r.gauss_stats for r in results])
        ks = experiments.two_sample_ks(sample, gauss)
        crit = KS_C_0001 * math.sqrt(2.0 / sample.size)
        if not ks < crit:
            return f"pooled KS {ks:.4f} not below the level-0.001 critical value {crit:.4f}"
        return None

    @staticmethod
    def same(a, b) -> bool:
        return (a.ks == b.ks and np.array_equal(a.sample_stats, b.sample_stats)
                and np.array_equal(a.gauss_stats, b.gauss_stats))


@dataclass
class CoverageTar:
    """experiments.coverage_experiment on the threshold-AR process."""

    name = "coverage-tar"
    threads: int = 2
    p: int = 20
    n: int = 500
    R: int = 200                  # ExperimentConfig's minimum for coverage
    B: int = 2000
    theta: float = 0.95

    def spec(self) -> ProcessSpec:
        return ProcessSpec("threshold-ar", p=self.p, theta1=0.3, theta2=0.3,
                           burn_in=1024, innovation=InnovationLaw.gaussian())

    @property
    def reps(self) -> int:
        return self.R

    def config(self, base_seed: int) -> ExperimentConfig:
        return ExperimentConfig(spec=self._spec, R=self.R, B=self.B,
                                base_seed=base_seed, n_list=[self.n],
                                M_list=[None], theta_list=[self.theta],
                                threads=self.threads)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self._spec = self.spec()
        rng = RngContract(op_seed(seed, WARMUP))
        panel = model.simulate(self._spec, self.n, rng.derive("panel"))
        gboot.simultaneous_ci(panel, self.theta, None, self.B, rng.derive("boot"))

    def op(self, i: int, slot: str):
        return experiments.coverage_experiment(self.config(op_seed(self.seed, i)))

    def load(self, raw):
        return raw.rows

    @staticmethod
    def band(R: int) -> tuple[float, float]:
        """Binomial band for a coverage from R replications around the reference."""
        p = COVERAGE_REF
        half = COVERAGE_Z * math.sqrt(p * (1 - p) / R) \
            + 2.0 * math.sqrt(p * (1 - p) / COVERAGE_REF_R)
        return p - half, p + half

    def gate(self, rows) -> str | None:
        if len(rows) != 1:
            return f"expected one coverage cell, got {len(rows)}"
        row = rows[0]
        lo, hi = self.band(self.R)
        if row["R"] != self.R or not lo <= row["coverage"] <= hi:
            return f"coverage {row['coverage']:.4f} outside [{lo:.4f}, {hi:.4f}]"
        if not (math.isfinite(row["median_halfwidth"]) and row["median_halfwidth"] > 0):
            return "non-positive interval half-width"
        return None

    def gate_run(self, results) -> str | None:
        """The run's pooled coverage lies in the (narrower) band for its total R."""
        cov = float(np.mean([rows[0]["coverage"] for rows in results]))
        lo, hi = self.band(self.R * len(results))
        if not lo <= cov <= hi:
            return f"pooled coverage {cov:.4f} outside [{lo:.4f}, {hi:.4f}]"
        return None

    @staticmethod
    def same(a, b) -> bool:
        return a == b


@dataclass
class CovtestCli:
    """Repeated in-process `hdts covtest` calls on HDTS1 panels written in set-up."""

    name = "covtest-cli"
    reps = 1                      # an op is one CLI call
    threads: int = 1
    p: int = 32
    n: int = 1000
    B: int = 2000
    theta: float = 0.95
    pool: int = 32                # distinct panels; call i reads panel i % pool

    def spec(self) -> ProcessSpec:
        return ProcessSpec("linear", p=self.p, alpha=1.0, K=200, h=1, rho=0.5,
                           innovation=InnovationLaw.gaussian())

    @property
    def d(self) -> int:
        return n_pairs(self.p)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        spec = self.spec()
        base = RngContract(seed)
        self.panels = []
        for k in range(self.pool):
            path = workdir / f"panel{k}.bin"
            io.write_array_binary(path, model.simulate(spec, self.n, base.derive("panel", k)).data)
            self.panels.append(path)
        self.op(WARMUP, "warmup")

    def argv(self, i: int, slot: str) -> list[str]:
        return ["--seed", str(op_seed(self.seed, i)), "--threads", str(self.threads),
                "covtest", "--panel", str(self.panels[i % self.pool]),
                "--theta", repr(self.theta), "--B", str(self.B),
                "--out", str(self.workdir / f"ct-{slot}")]

    def op(self, i: int, slot: str):
        with contextlib.redirect_stdout(_io.StringIO()):
            rc = cli.main(self.argv(i, slot))
        return rc, i, slot

    def load(self, raw) -> dict:
        rc, i, slot = raw
        base = self.workdir / f"ct-{slot}"
        out = {"rc": rc, "i": i, "csv": b"", "json": b""}
        if rc == 0:
            out["csv"] = Path(f"{base}.covtest.csv").read_bytes()
            out["json"] = Path(f"{base}.covtest.json").read_bytes()
        return out

    def chi_bounds(self) -> tuple[float, float]:
        """Phi^-1((1+theta)/2) <= chi <= Sidak bound Phi^-1((1+theta^(1/d))/2) + margin."""
        nd = NormalDist()
        lo = nd.inv_cdf((1.0 + self.theta) / 2.0)
        hi = nd.inv_cdf((1.0 + self.theta ** (1.0 / self.d)) / 2.0)
        return lo, hi + CHI_MARGIN

    def gate(self, out) -> str | None:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        try:
            lines = out["csv"].decode().splitlines()
            side = json.loads(out["json"])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return f"unreadable output: {exc}"
        if not lines or lines[0] != "j,k,gamma_hat,stat,threshold,flag":
            return "bad CSV header"
        if len(lines) - 1 != self.d:
            return f"expected {self.d} rows, got {len(lines) - 1}"
        try:
            table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        except ValueError as exc:
            return f"bad CSV row: {exc}"
        if table.shape != (self.d, 6) or not np.all(np.isfinite(table)):
            return "non-finite or ragged rows"
        stat, thr, flag = table[:, 3], table[:, 4], table[:, 5]
        chi = side.get("threshold")
        lo, hi = self.chi_bounds()
        if not (isinstance(chi, float) and lo <= chi <= hi):
            return f"threshold {chi!r} outside [{lo:.4f}, {hi:.4f}]"
        if np.any(thr != chi) or np.any(flag != (stat > chi)) or np.any(stat < 0):
            return "rows disagree with the threshold"
        if side.get("statistic") != float(np.max(stat)) or side.get("B") != self.B:
            return "sidecar disagrees with the rows"
        return None

    def matches_library(self, out) -> bool:
        """The CLI CSV equals cov_simultaneous_test at the same seed and panel."""
        i = out["i"]
        panel = Panel.from_data(io.read_array_binary(self.panels[i % self.pool]))
        res = cov_simultaneous_test(panel, self.theta, None, self.B,
                                    RngContract(op_seed(self.seed, i)))
        table = np.array([[float(v) for v in ln.split(",")]
                          for ln in out["csv"].decode().splitlines()[1:]])
        return (np.array_equal(table[:, 2], res.gamma_hat)
                and np.array_equal(table[:, 3], res.pair_stats)
                and bool(np.all(table[:, 4] == res.threshold)))

    @staticmethod
    def same(a, b) -> bool:
        return a["rc"] == b["rc"] and a["csv"] == b["csv"] and a["json"] == b["json"]


WORKLOADS = {w.name: w for w in (GaLinear, CoverageTar, CovtestCli)}


REP_BLOCK = 20                    # replications per latency sample


@contextlib.contextmanager
def rep_clock(times: list):
    """Append per-replication latency samples of the Monte Carlo workloads to `times`.

    Wraps the replication callable that `experiments` hands to run_indexed
    and notes when each replication ends.  The replications of a call, in
    the order they end, are cut into blocks of REP_BLOCK; a sample is the
    wall time from the end of one block to the end of the next (from the
    start of run_indexed for the first), divided by REP_BLOCK.  The samples
    tile the replication phase of every call, so their mean is its time per
    replication, and a run yields many of them instead of one per call.
    """
    orig = experiments.run_indexed

    def run_indexed(fn, count, threads=1):
        ends = []

        def timed(i):
            out = fn(i)
            ends.append(time.perf_counter())
            return out

        t0 = time.perf_counter()
        out = orig(timed, count, threads)
        edges = [t0] + sorted(ends)[REP_BLOCK - 1::REP_BLOCK]
        times.extend((b - a) / REP_BLOCK for a, b in zip(edges, edges[1:]))
        return out

    experiments.run_indexed = run_indexed
    try:
        yield times
    finally:
        experiments.run_indexed = orig


def make(name: str, tiny: bool = False):
    """Workload instance; tiny=True shrinks the inputs for the smoke test."""
    if not tiny:
        return WORKLOADS[name]()
    return {"ga-linear": lambda: GaLinear(p=8, n=200, R=20),
            # coverage-tar keeps its size: its gate is centred on a
            # reference measured at this size, and R cannot go below 200
            "coverage-tar": CoverageTar,
            "covtest-cli": lambda: CovtestCli(p=6, n=200, pool=2)}[name]()


def params(workload) -> dict:
    """Workload fields and the process spec, for the result file."""
    return {**asdict(workload), "spec": asdict(workload.spec())}


def environment(workload) -> dict:
    """Host, toolchain and thread settings recorded with every result."""
    import platform
    import scipy
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", ""),
        "openblas": blas.get("openblas configuration", blas.get("version", "")),
        "threads": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                    "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
                    "hdts_threads": workload.threads},
    }
