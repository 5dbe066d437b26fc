"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are fixed here and match the package contract.  Total
runtime is dominated by criteria 1, 2, 5 and 7 (several minutes on two
cores).
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from hdts.cli import DEFAULT_CONFIG, main as cli_main
from hdts.covinf import cov_dep_norm_bound, mc_cov_norms
from hdts.depmeasure import closed_form_profile, mc_profile
from hdts.experiments import (ExperimentConfig, counterexample_demo,
                              coverage_experiment, ga_distance, mdep_rate_check,
                              rate_experiment)
from hdts.gboot import bootstrap_quantile, psd_sqrt
from hdts.longrun import (LongRunEstimate, plan_blocks, sigma_M_target,
                          sigma_hat, sigma_tilde)
from hdts.model import Panel, ProcessSpec, simulate
from hdts.rng import RngContract

THREADS = 2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def count_inversions(values) -> int:
    """Number of adjacent pairs violating a nondecreasing trend."""
    return int(np.sum(np.diff(np.asarray(values, dtype=float)) < 0))


def test_criterion_01_coverage():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(spec=ProcessSpec("iid", p=20),
                           R=2000, B=2000, base_seed=101, n_list=[500],
                           M_list=[1], theta_list=[0.95], threads=THREADS)
    row = coverage_experiment(cfg).rows[0]
    elapsed = time.perf_counter() - t0
    ok = 0.93 <= row["coverage"] <= 0.97 and elapsed < 300.0
    report(1, ok, f"coverage={row['coverage']:.4f} in [0.93, 0.97], "
                  f"runtime={elapsed:.0f}s < 300s (iid N(0,Id20), n=500, "
                  f"theta=0.95, R=2000, B=2000, M=1)")


def test_criterion_02_ga_quality():
    spec = ProcessSpec("linear", p=50, alpha=2.0, K=200, h=2, rho=0.5)
    res = ga_distance(spec, 1000, 5000, RngContract(202), n_perm=0,
                      threads=THREADS)
    ok = res.ks <= 0.05
    report(2, ok, f"KS={res.ks:.4f} <= 0.05 (linear alpha=2, Gaussian, "
                  f"n=1000, p=50, R=5000)")


def test_criterion_03_ga_failure():
    res = counterexample_demo(4.0, 64, [64, 512, 4096], 2000, RngContract(303),
                              threads=THREADS)
    ks = [row["ks"] for row in res.rows]
    ok = ks[-1] >= 0.5 and count_inversions(ks) <= 1
    report(3, ok, f"KS over p=(64,512,4096) = ({ks[0]:.3f}, {ks[1]:.3f}, "
                  f"{ks[2]:.3f}); last >= 0.5 and <= 1 inversion "
                  f"(symmetric-pareto tail 4, shell body, n=64, R=2000)")


def test_criterion_04_estimator_identity():
    gen = RngContract(404).derive("panels").generator()
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(10, 300))
        p = int(gen.integers(1, 8))
        M = int(gen.integers(1, n + 1))
        panel = Panel.from_data(gen.standard_normal((n, p)) * 2.0 + 0.7)
        plan = plan_blocks(n, M)
        xbar = panel.data[:plan.used].mean(axis=0)
        diff = sigma_hat(panel, plan).sigma - sigma_tilde(panel, plan).sigma \
            - M * np.outer(xbar, xbar)
        worst = max(worst, float(np.max(np.abs(diff))))
    ok = worst <= 1e-10
    report(4, ok, f"max entrywise |Sigma_hat - Sigma_tilde - M xbar xbar^T| "
                  f"= {worst:.2e} <= 1e-10 over 100 random panels")


def test_criterion_05_estimator_target():
    spec = ProcessSpec("linear", p=5, alpha=1.0, K=200, h=1, rho=0.5)
    n, M, R = 2000, 20, 10_000
    target = sigma_M_target(spec, M)
    plan = plan_blocks(n, M)
    base = RngContract(505)
    acc = np.zeros((5, 5))
    acc2 = np.zeros((5, 5))
    for r in range(R):
        s = sigma_hat(simulate(spec, n, base.derive("c5", r)), plan).sigma
        acc += s
        acc2 += s * s
    mean = acc / R
    se = np.sqrt(np.maximum(acc2 / R - mean ** 2, 0.0) / R)
    z = float(np.max(np.abs(mean - target) / se))
    ok = z <= 4.0
    report(5, ok, f"max |mean(Sigma_hat) - Sigma_M| / SE = {z:.2f} <= 4 "
                  f"(linear p=5, n=2000, M=20, R=10^4)")


def test_criterion_06_rate_slope():
    spec = ProcessSpec("linear", p=5, alpha=2.0, K=200, h=1, rho=0.5)
    res = rate_experiment(spec, [2 ** k for k in range(9, 15)], 100,
                          RngContract(606), q=8.0, threads=THREADS)
    diff = abs(res.empirical_slope - res.theoretical_slope)
    ok = diff <= 0.2
    report(6, ok, f"|empirical slope {res.empirical_slope:.3f} - rate-bound "
                  f"slope {res.theoretical_slope:.3f}| = {diff:.3f} <= 0.2 "
                  f"(n = 2^9..2^14, M = n^(1/3))")


@pytest.mark.parametrize("alpha,K,grid", [
    (0.5, 4000, [4, 8, 16, 32, 64]),
    (1.0, 2000, [16, 32, 64, 128, 256]),
    (2.0, 2000, [32, 64, 128, 256, 512]),
])
def test_criterion_07_mdep_decay(alpha, K, grid):
    spec = ProcessSpec("linear", p=1, alpha=alpha, K=K)
    res = mdep_rate_check(spec, 2.0, alpha, grid, 200, RngContract(707),
                          n=4096, threads=THREADS)
    z = float(np.max(np.abs(res.mc_norm - res.oracle_norm) / res.mc_se))
    ok = abs(res.slope + alpha) <= 0.15 and z <= 3.0
    report(7, ok, f"alpha={alpha}: slope={res.slope:.3f} within -alpha +/- "
                  f"0.15; MC vs closed-form oracle max|z|={z:.2f} <= 3")


def test_criterion_08_bootstrap_oracle():
    plan = plan_blocks(1000, 10)
    Y = np.zeros((plan.w, 10))
    Y[:10] = np.sqrt(plan.M * plan.w) * np.eye(10)
    est = LongRunEstimate(plan=plan, block_sums=Y, abs_max=np.max(np.abs(Y), axis=0))
    bq = bootstrap_quantile(est, 0.95, 100_000, RngContract(42))
    target = norm.ppf((1.0 + 0.95 ** 0.1) / 2.0)
    z = abs(bq.chi - target) / bq.chi_se
    ok = z <= 3.0
    report(8, ok, f"chi={bq.chi:.4f} vs root {target:.4f} of "
                  f"(2Phi(t)-1)^10 = 0.95: |z| = {z:.2f} <= 3 (B=10^5)")


def test_criterion_09_psd_sqrt_reconstruction():
    gen = RngContract(909).derive("psd").generator()
    worst = 0.0
    for i in range(1000):
        p = int(gen.integers(1, 201))
        R = gen.standard_normal((p, p))
        A = R @ R.T
        S = psd_sqrt(A)
        err = np.max(np.abs(S @ S.T - A)) / (1.0 + np.max(np.abs(A)))
        worst = max(worst, float(err))
    ok = worst <= 1e-8
    report(9, ok, f"max normalized reconstruction error = {worst:.2e} <= 1e-8 "
                  f"over 1000 random PSD matrices, p up to 200")


def test_criterion_10_profile_agreement():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=6, h=1, rho=0.5)
    worst = 0.0
    for q in (2.0, 4.0):
        cf = closed_form_profile(spec, q, 1.0)
        mc = mc_profile(spec, q, 1.0, 10_000, RngContract(510 + int(q)), lags=8)
        L = cf.delta.shape[0]
        z = np.abs(mc.delta[:L] - cf.delta) / np.maximum(mc.delta_se[:L], 1e-300)
        worst = max(worst, float(z.max()))
        assert np.all(mc.delta[L:] == 0.0)
    ok = worst <= 3.0
    report(10, ok, f"max |mc - closed-form| / SE over every delta entry = "
                   f"{worst:.2f} <= 3 (linear Gaussian, q in {{2,4}}, R=10^4)")


def test_criterion_11_cov_bound_dominance():
    spec = ProcessSpec("linear", p=5, alpha=1.0, K=50, h=1, rho=0.4)
    prof = closed_form_profile(spec, 4.0, 1.0)
    bound = cov_dep_norm_bound(prof)
    norms, se = mc_cov_norms(spec, 4.0, 1.0, 2000, RngContract(511), lags=20)
    slack = float(np.min(bound.Psi + 3.0 * se - norms))
    ok = bool(np.all(norms <= bound.Psi + 3.0 * se))
    report(11, ok, f"MC product-process norms <= 4 Psi_(q,0) Psi_(q,alpha) + "
                   f"3 SE for all {norms.size} pairs (min slack {slack:.2f}; "
                   f"p=5 linear, q=4)")


def test_criterion_12_determinism(tmp_path):
    issues = []

    # CLI artifacts: simulate twice, estimate twice -> identical bytes
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG)
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name / "panel"
        assert cli_main(["--seed", "12", "simulate", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert cli_main(["estimate", "--panel", str(out.with_suffix(".bin")),
                         "--out", str(tmp_path / name / "est")]) == 0
        blobs.append(out.with_suffix(".csv").read_bytes()
                     + out.with_suffix(".bin").read_bytes()
                     + (tmp_path / name / "est.sigma.csv").read_bytes())
    if blobs[0] != blobs[1]:
        issues.append("CLI rerun bytes differ")

    # experiment report across --threads {1, 8}
    body = DEFAULT_CONFIG.replace("family = linear", "family = iid") \
                         .replace("kind = coverage", "kind = ga") \
                         .replace("R = 200", "R = 200") \
                         .replace("n = 500", "n = 64") \
                         .replace("p = 20", "p = 4")
    exp_cfg = tmp_path / "exp.ini"
    exp_cfg.write_text(body)
    reports = []
    for threads, name in (("1", "t1"), ("8", "t8")):
        assert cli_main(["--seed", "7", "--threads", threads, "experiment",
                         "--config", str(exp_cfg), "--out-dir",
                         str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.csv").read_bytes())
    if reports[0] != reports[1]:
        issues.append("experiment CSV differs across --threads {1,8}")

    # library-level thread independence for each experiment family
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=20, h=0)
    a = ga_distance(spec, 64, 100, RngContract(1212), n_perm=0, threads=1)
    b = ga_distance(spec, 64, 100, RngContract(1212), n_perm=0, threads=8)
    if not (np.array_equal(a.sample_stats, b.sample_stats) and a.ks == b.ks):
        issues.append("ga_distance differs across threads")

    cov_rows = []
    for threads in (1, 8):
        cfg2 = ExperimentConfig(spec=ProcessSpec("iid", p=4),
                                R=200, B=1000, base_seed=5, n_list=[100],
                                M_list=[1], theta_list=[0.9], threads=threads)
        cov_rows.append(coverage_experiment(cfg2).rows)
    if cov_rows[0] != cov_rows[1]:
        issues.append("coverage rows differ across threads")

    ce = [counterexample_demo(4.0, 32, [16], 100, RngContract(99), threads=t).rows
          for t in (1, 8)]
    if ce[0] != ce[1]:
        issues.append("counterexample rows differ across threads")

    md = [mdep_rate_check(ProcessSpec("linear", p=1, alpha=1.0, K=100), 2.0,
                          1.0, [4, 8, 16], 50, RngContract(98), n=256,
                          threads=t).mc_norm for t in (1, 8)]
    if not np.array_equal(md[0], md[1]):
        issues.append("mdep values differ across threads")

    rt = [rate_experiment(ProcessSpec("iid", p=2), [128, 256, 512], 20,
                          RngContract(97), threads=t).median_err
          for t in (1, 8)]
    if not np.array_equal(rt[0], rt[1]):
        issues.append("rate medians differ across threads")

    ok = not issues
    report(12, ok, "artifacts byte-identical across reruns and across "
                   "--threads {1,8}" + ("" if ok else f" — {issues}"))
