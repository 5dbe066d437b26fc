"""Monte Carlo harness: Gaussian-approximation quality, CI coverage,
estimator rates, m-dependence decay, and the heavy-tail failure regime.

Every kind runs its replications through one driver, `_replicate`, which
times each cell (`runtimes` on every result).  It makes one run_indexed
call per cell and one replication call per index; run_indexed hands each
thread runs of consecutive replications, and a kind may ask once per run
for inputs those replications share.  `coverage`, and `ga` on threshold-AR,
do so: a run's panels come from one model.simulate_many call, which steps
threshold-AR paths in stacks within model.STACK_BYTES, and `coverage`
hands them to one gboot.simultaneous_cis call, which builds one long-run
estimate for the whole run (a longrun.LongRunEstimate with a run axis) and
the run's bootstrap factors as one stack, and draws each replication's
multipliers when its report is taken.  Cell streams are
derived with the tags `coverage-cell`, `rate-cell` and `ctrex-cell`;
replication r of the single-cell kinds derives `ga-panel` or `mdep-panel`.
Reports are bit-reproducible for a fixed configuration whatever the thread
count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .gboot import psd_sqrt, simultaneous_cis
from .longrun import plan_blocks, sigma_tilde, theoretical_rate, true_sigma
from .depmeasure import _check_order, _delta_profile
from .model import (InnovationLaw, ProcessSpec, _draw_innovations, _lag_sums, column_sums,
                    gaussian_abs_moment_root, lag_sum_weights, simulate, simulate_many)
from .rng import RngContract
from .util import RUN, fit_loglog_slope, run_indexed

TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def two_sample_ks(x, y) -> float:
    """sup_u |F_x(u) - F_y(u)| over the pooled sample points."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ValidationError("KS distance needs non-empty samples")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def ks_permutation_pvalue(x, y, n_perm: int, rng: RngContract) -> float:
    """Permutation p-value for the two-sample KS distance."""
    if n_perm < 1:
        raise ValidationError(f"need n_perm >= 1, got {n_perm}")
    obs = two_sample_ks(x, y)
    pooled = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    n1 = np.asarray(x).size
    gen = rng.derive("ks-perm").generator()
    exceed = 0
    for _ in range(n_perm):
        perm = gen.permutation(pooled)
        if two_sample_ks(perm[:n1], perm[n1:]) >= obs - 1e-15:
            exceed += 1
    return (exceed + 1) / (n_perm + 1)


# ---------------------------------------------------------------------------
# Replication driver
# ---------------------------------------------------------------------------

def _replicate(cells, one_rep, R: int, threads: int,
               inputs=None) -> tuple[list[list], list[float]]:
    """Outputs and seconds per cell: one run_indexed call per cell, with one
    call of one_rep(cell, r) per replication r < R, timed with
    perf_counter.  run_indexed is looked up in this module's globals on
    every call, so a wrapper put there sees it.

    With inputs, the replications of a run (RUN consecutive ones on one
    thread) share work: the first asks inputs(cell, range(r, end of run))
    once for an iterator, and replication r calls one_rep(cell, r, its
    item).  A replication out of run order starts a new iterator, so the
    outputs never depend on the order of the calls.
    """
    outputs, runtimes = [], []
    for cell in cells:
        t0 = time.perf_counter()
        outputs.append(run_indexed(_per_replication(cell, one_rep, R, inputs), R, threads))
        runtimes.append(time.perf_counter() - t0)
    return outputs, runtimes


def _per_replication(cell, one_rep, R: int, inputs):
    if inputs is None:
        return lambda r: one_rep(cell, r)
    live = {}                    # run start -> (next replication, its inputs)

    def rep(r: int):
        start = r - r % RUN
        stop = min(start + RUN, R)
        expected, it = live.pop(start, (None, None))
        if expected != r:
            it = iter(inputs(cell, range(r, stop)))
        item = next(it)
        if r + 1 < stop:         # handed back only once this call is done with it
            live[start] = (r + 1, it)
        return one_rep(cell, r, item)
    return rep


# ---------------------------------------------------------------------------
# Gaussian-approximation distance
# ---------------------------------------------------------------------------

@dataclass
class GaDistanceResult:
    ks: float
    pvalue: float | None
    n: int
    p: int
    R: int
    sample_stats: np.ndarray     # |D0^{-1} S_n|_inf / sqrt(n) per replication
    gauss_stats: np.ndarray      # |D0^{-1} Z|_inf draws
    runtimes: list[float]        # seconds per cell (one cell)


def mc_long_run_sigma(spec: ProcessSpec, length: int = 10 ** 6,
                      rng: RngContract | None = None) -> np.ndarray:
    """Approximate long-run covariance from one long path (batched means,
    default block length).

    Fallback oracle for families without a closed form; the result is an
    estimate, not the exact matrix.
    """
    rng = rng if rng is not None else RngContract(0)
    panel = simulate(spec, length, rng.derive("long-path"))
    return sigma_tilde(panel, plan_blocks(length)).sigma


def ga_distance(spec: ProcessSpec, n: int, R: int, rng: RngContract,
                sigma: np.ndarray | None = None, n_perm: int = 200,
                threads: int = 1) -> GaDistanceResult:
    """Two-sample KS distance between the normalized max statistic and its
    Gaussian analogue.

    One sample holds R replications of |D0^{-1} S_n|_inf / sqrt(n), where
    S_n is the column-sum vector; the other holds R draws of
    |D0^{-1} Z|_inf with Z ~ N(0, Sigma).  For iid/linear specs S_n comes
    from the lag-sum weights applied to the innovations (model.column_sums),
    so no panel is built, and Sigma from the closed form; other families
    sum a simulated panel and must pass an (approximate) sigma, e.g. from
    mc_long_run_sigma.  n_perm = 0 skips the permutation test.
    """
    if R < 1:
        raise ValidationError(f"ga_distance needs R >= 1 replications, got {R}")
    if n_perm < 0:
        raise ValidationError(f"n_perm must be >= 0, got {n_perm}")
    if sigma is None:
        sigma = true_sigma(spec)
    d0 = np.sqrt(np.diag(sigma))
    if np.min(d0) <= 0:
        raise ValidationError("Sigma has a degenerate diagonal")

    def sums(cell: RngContract, rs: range):
        streams = [cell.derive("ga-panel", r) for r in rs]
        if spec.family == "threshold-ar":   # stacked panels, summed as column_sums sums one
            return (panel.data.sum(axis=0) for panel in simulate_many(spec, n, streams))
        return (column_sums(spec, n, s) for s in streams)

    def one_rep(cell: RngContract, r: int, s: np.ndarray) -> float:
        return float(np.max(np.abs(s) / d0) / math.sqrt(n))

    (out,), runtimes = _replicate([rng], one_rep, R, threads, sums)
    sample_stats = np.array(out)
    root = psd_sqrt(sigma)
    eta = rng.derive("ga-gauss").generator().standard_normal((R, sigma.shape[0]))
    gauss_stats = np.max(np.abs(eta @ root.T) / d0, axis=1)
    ks = two_sample_ks(sample_stats, gauss_stats)
    pval = ks_permutation_pvalue(sample_stats, gauss_stats, n_perm, rng) \
        if n_perm > 0 else None
    return GaDistanceResult(ks=ks, pvalue=pval, n=n, p=spec.p, R=R,
                            sample_stats=sample_stats, gauss_stats=gauss_stats,
                            runtimes=runtimes)


# ---------------------------------------------------------------------------
# Experiment configuration / report plumbing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Grid of coverage cells, each run with R replications."""

    spec: ProcessSpec
    R: int = 200
    B: int = 2000
    base_seed: int = 0
    n_list: list[int] = field(default_factory=lambda: [500])
    p_list: list[int] | None = None
    M_list: list[int | None] = field(default_factory=lambda: [None])
    theta_list: list[float] = field(default_factory=lambda: [0.95])
    threads: int = 1

    def __post_init__(self):
        if self.R < 200:
            raise ValidationError(
                f"coverage runs need R >= 200 replications, got {self.R}")
        if not self.n_list or not self.M_list or not self.theta_list:
            raise ValidationError("experiment grid must be nonempty")

    def cells(self):
        p_list = self.p_list if self.p_list else [self.spec.p]
        for n in self.n_list:
            for p in p_list:
                for M in self.M_list:
                    for theta in self.theta_list:
                        yield n, p, M, theta


@dataclass
class ExperimentReport:
    rows: list[dict]
    runtimes: list[float]        # seconds per grid cell


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def coverage_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Empirical simultaneous coverage of the zero mean vector per grid cell."""
    base = RngContract(config.base_seed)
    cells = [(n, replace(config.spec, p=p), M, theta, base.derive("coverage-cell", ci))
             for ci, (n, p, M, theta) in enumerate(config.cells())]

    def reports(cell, rs: range):
        n, spec, M, theta, stream = cell
        return simultaneous_cis(simulate_many(spec, n, [stream.derive("panel", r) for r in rs]),
                                theta, M, config.B, [stream.derive("boot", r) for r in rs])

    def one_rep(cell, r: int, report):
        return report.covers(np.zeros(cell[1].p)), float(np.median(report.half_widths()))

    outputs, runtimes = _replicate(cells, one_rep, config.R, config.threads, reports)
    rows = []
    for (n, spec, M, theta, _), out in zip(cells, outputs):
        cov = float(np.mean([o[0] for o in out], dtype=float))
        rows.append({
            "n": n, "p": spec.p, "M": 0 if M is None else M, "theta": theta,
            "R": config.R, "B": config.B, "coverage": cov,
            "coverage_se": float(math.sqrt(cov * (1.0 - cov) / config.R)),
            "median_halfwidth": float(np.median([o[1] for o in out])),
        })
    return ExperimentReport(rows=rows, runtimes=runtimes)


# ---------------------------------------------------------------------------
# Estimator rate
# ---------------------------------------------------------------------------

@dataclass
class RateResult:
    median_err: np.ndarray
    r_n: np.ndarray
    empirical_slope: float
    theoretical_slope: float
    rows: list[dict]
    runtimes: list[float]        # seconds per n-grid cell


def rate_experiment(spec: ProcessSpec, n_grid, R: int, rng: RngContract,
                    q: float = 8.0, M_rule=None, threads: int = 1) -> RateResult:
    """Median |sigma_tilde - Sigma|_inf over an n-grid vs the rate bound.

    Fits log-log slopes of both curves on the same grid; M defaults to
    floor(n^(1/3)) unless M_rule(n) is supplied.
    """
    n_grid = list(n_grid)
    if len(set(n_grid)) < 3:
        raise ValidationError(f"need an n-grid with >= 3 points, all distinct, got {n_grid}")
    if R < 1:
        raise ValidationError(f"rate_experiment needs R >= 1 replications, got {R}")
    sigma = true_sigma(spec)
    profile = _delta_profile(spec, q, spec.alpha)
    cells = [(plan_blocks(n, M_rule(n) if M_rule is not None else None),
              rng.derive("rate-cell", gi)) for gi, n in enumerate(n_grid)]

    def one_rep(cell, r: int) -> float:
        plan, stream = cell
        panel = simulate(spec, plan.n, stream.derive("rate-panel", r))
        return float(np.max(np.abs(sigma_tilde(panel, plan).sigma - sigma)))

    rn = np.array([theoretical_rate(profile, plan.n, plan.M).r_n for plan, _ in cells])
    outputs, runtimes = _replicate(cells, one_rep, R, threads)
    med = np.array([np.median(errs) for errs in outputs])
    rows = [{"n": n, "M": plan.M, "median_err": med[gi], "r_n": rn[gi], "R": R}
            for gi, (n, (plan, _)) in enumerate(zip(n_grid, cells))]
    return RateResult(median_err=med, r_n=rn,
                      empirical_slope=fit_loglog_slope(n_grid, med),
                      theoretical_slope=fit_loglog_slope(n_grid, rn),
                      rows=rows, runtimes=runtimes)


# ---------------------------------------------------------------------------
# m-dependence decay
# ---------------------------------------------------------------------------

def mdep_oracle_norm(spec: ProcessSpec, n: int, m: int, q: float = 2.0) -> np.ndarray:
    """Exact ||S_n - S_{n,m}||_q per coordinate for the iid and linear families.

    The difference is sum_t D_t * (B eps_t)_j with the lag-sum weights
    D = lag_sum_weights(spec, n, m + 1), all zero for iid; for q = 2 only
    the innovation variance enters, for other q the innovations must be
    Gaussian.
    """
    if spec.family not in ("iid", "linear"):
        raise ValidationError("the closed-form oracle needs the iid or linear family")
    law = spec.innovation
    ssq = float(np.sum(lag_sum_weights(spec, n, m + 1) ** 2))
    # a sum with all-zero weights has every norm zero, whatever the law
    if q != 2.0 and law.kind != "standard-gaussian" and ssq > 0:
        raise ValidationError("q != 2 oracle requires Gaussian innovations")
    b_row = np.linalg.norm(spec.cross_mixer(), axis=1)
    scale = math.sqrt(law.variance * ssq) * b_row
    if q == 2.0:
        return scale
    return gaussian_abs_moment_root(q) * scale


@dataclass
class MdepResult:
    mc_norm: np.ndarray          # max_j MC ||S_n - S_{n,m}||_q / sqrt(n)
    oracle_norm: np.ndarray
    mc_se: np.ndarray
    slope: float
    target_slope: float
    rows: list[dict]
    runtimes: list[float]        # seconds per cell (one cell)


def mdep_rate_check(spec: ProcessSpec, q: float, alpha: float, m_grid,
                    R: int, rng: RngContract, n: int = 4096,
                    threads: int = 1) -> MdepResult:
    """Monte Carlo decay of ||S_n - S_{n,m}||_q / sqrt(n) against m^-alpha.

    Restricted to iid/linear families (mdep_oracle_norm rejects any other
    before a replication runs), where each S_n - S_{n,m} is the lag-sum
    weights applied to the innovations simulate would draw; for iid every
    difference is exactly zero and the fitted slope is NaN.
    """
    m_grid = list(m_grid)
    if len(set(m_grid)) < 3:
        raise ValidationError(f"need an m-grid with >= 3 points, all distinct, got {m_grid}")
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    if min(m_grid) < 1:
        raise ValidationError(f"m must be >= 1 for the slope fit on log m, got {min(m_grid)}")
    if R < 2:
        raise ValidationError(f"mdep_rate_check needs R >= 2 replications, got {R}")
    _check_order(q)
    oracle = np.array([np.max(mdep_oracle_norm(spec, n, m, q)) for m in m_grid]) \
        / math.sqrt(n)
    W = np.stack([lag_sum_weights(spec, n, m + 1) for m in m_grid])   # (|grid|, n+K)

    def one_rep(cell: RngContract, r: int) -> np.ndarray:
        eps = _draw_innovations(spec, n, cell.derive("mdep-panel", r))
        return _lag_sums(spec, eps, W, n)[0]

    (out,), runtimes = _replicate([rng], one_rep, R, threads)
    diffs = np.stack(out)                                     # (R, |grid|, p)
    mom = np.mean(np.abs(diffs) ** q, axis=0)
    norms = mom ** (1.0 / q) / math.sqrt(n)
    # delta-method SE of the q-th root of the moment, per (m, j)
    mom_se = np.std(np.abs(diffs) ** q, axis=0, ddof=1) / math.sqrt(R)
    norm_se = np.zeros_like(mom)
    pos = mom > 0
    norm_se[pos] = mom[pos] ** (1.0 / q - 1.0) / q * mom_se[pos] / math.sqrt(n)

    j_star = np.argmax(norms, axis=1)
    mc = norms[np.arange(len(m_grid)), j_star]
    se = norm_se[np.arange(len(m_grid)), j_star]
    slope = fit_loglog_slope(m_grid, mc) if np.all(mc > 0) else float("nan")
    rows = [{"m": m, "mc_norm": float(mc[i]), "oracle_norm": float(oracle[i]),
             "mc_se": float(se[i])} for i, m in enumerate(m_grid)]
    return MdepResult(mc_norm=mc, oracle_norm=oracle, mc_se=se,
                      slope=slope, target_slope=-alpha, rows=rows,
                      runtimes=runtimes)


# ---------------------------------------------------------------------------
# Heavy-tail failure regime
# ---------------------------------------------------------------------------

@dataclass
class CounterexampleResult:
    rows: list[dict]
    samples: dict                # p -> (sample_stats, gauss_stats)
    runtimes: list[float]        # seconds per p-grid cell


def counterexample_demo(tail_index: float, n: int, p_grid, R: int,
                        rng: RngContract, body: str = "shell",
                        threads: int = 1) -> CounterexampleResult:
    """KS trajectory of the max statistic under heavy-tailed iid panels.

    For each p, compares |S_n|_inf / sqrt(n) samples against |Z|_inf draws
    (Z standard normal in R^p; the innovation law has unit variance by
    construction), and reports the diagnostics p*P(|column sum| >= sqrt(n) u)
    and p*P(|Z_1| >= u) at u = sqrt(2 log p).

    The default body="shell" puts the free below-threshold mass right under
    u0; with the uniform body the excess over the Gaussian tail is far too
    small to move the maximum at desk-scale (n, p).
    """
    from scipy.stats import norm
    if R < 1:
        raise ValidationError(f"counterexample_demo needs R >= 1 replications, got {R}")
    if tail_index <= 2:
        raise ValidationError(f"tail index must exceed 2, got {tail_index}")
    law = InnovationLaw.symmetric_pareto(tail_index, body=body)
    cells = [(ProcessSpec("iid", p=p, innovation=law), math.sqrt(2.0 * math.log(p)),
              rng.derive("ctrex-cell", pi)) for pi, p in enumerate(p_grid)]

    def one_rep(cell, r: int):
        spec, u, stream = cell
        s = column_sums(spec, n, stream.derive("ctrex-panel", r))
        stats = np.abs(s) / math.sqrt(n)
        return float(np.max(stats)), int(np.sum(stats >= u))

    outputs, runtimes = _replicate(cells, one_rep, R, threads)
    rows = []
    samples = {}
    for pi, (p, (_, u, _), out) in enumerate(zip(p_grid, cells, outputs)):
        sample_stats = np.array([o[0] for o in out])
        tail_hits = sum(o[1] for o in out)
        eta = rng.derive("ctrex-gauss", pi).generator().standard_normal((R, p))
        gauss_stats = np.max(np.abs(eta), axis=1)
        ks = two_sample_ks(sample_stats, gauss_stats)
        rows.append({
            "p": p, "n": n, "R": R, "tail_index": tail_index, "body": body,
            "ks": ks,
            "p_tail_emp": tail_hits / R,
            "p_tail_gauss": p * 2.0 * float(norm.sf(u)),
        })
        samples[p] = (sample_stats, gauss_stats)
    return CounterexampleResult(rows=rows, samples=samples, runtimes=runtimes)


def ecdf_dump_rows(sample, gauss) -> list[dict]:
    """Rows (u, ecdf_sample, ecdf_gauss) on the pooled sorted grid."""
    sample = np.sort(np.asarray(sample, dtype=float))
    gauss = np.sort(np.asarray(gauss, dtype=float))
    pooled = np.unique(np.concatenate([sample, gauss]))
    es = np.searchsorted(sample, pooled, side="right") / sample.size
    eg = np.searchsorted(gauss, pooled, side="right") / gauss.size
    return [{"u": u, "ecdf_sample": a, "ecdf_gauss": b}
            for u, a, b in zip(pooled, es, eg)]
