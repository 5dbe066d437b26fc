import math

import numpy as np
import pytest

from hdts.errors import ValidationError
from hdts.experiments import (ExperimentConfig, counterexample_demo,
                              coverage_experiment, ecdf_dump_rows, ga_distance,
                              ks_permutation_pvalue, mc_long_run_sigma,
                              mdep_rate_check, mdep_oracle_norm, rate_experiment,
                              two_sample_ks)
from hdts.longrun import true_sigma
from hdts.model import InnovationLaw, ProcessSpec, simulate
from hdts.rng import RngContract

RNG = RngContract(70)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery
# ---------------------------------------------------------------------------

def brute_force_ks(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = 0.0
    for u in np.concatenate([x, y]):
        d = abs(np.mean(x <= u) - np.mean(y <= u))
        best = max(best, d)
    return best


def test_ks_matches_brute_force_scan():
    gen = RNG.derive("ks").generator()
    for trial in range(8):
        n1 = int(gen.integers(5, 200))
        n2 = int(gen.integers(5, 200))
        x = gen.standard_normal(n1)
        y = gen.standard_normal(n2) + gen.uniform(-1.0, 1.0)
        if trial % 3 == 0:
            # inject ties across the two samples
            y[: min(n1, n2) // 2] = x[: min(n1, n2) // 2]
        assert two_sample_ks(x, y) == pytest.approx(brute_force_ks(x, y), abs=1e-12)


def test_ks_permutation_pvalue_behaviour():
    gen = RNG.derive("ksp").generator()
    same = ks_permutation_pvalue(gen.standard_normal(300),
                                 gen.standard_normal(300), 199,
                                 RNG.derive("perm-same"))
    assert same > 0.01
    shifted = ks_permutation_pvalue(gen.standard_normal(300),
                                    gen.standard_normal(300) + 2.0, 199,
                                    RNG.derive("perm-diff"))
    assert shifted <= 0.01


# ---------------------------------------------------------------------------
# Gaussian-approximation distance
# ---------------------------------------------------------------------------

def test_ga_distance_same_law_is_null():
    spec = ProcessSpec("iid", p=10)
    res = ga_distance(spec, 50, 5000, RNG.derive("ga-null"), n_perm=0)
    assert res.ks <= 0.04
    # both sides share one distribution, so the permutation test accepts
    res_p = ga_distance(spec, 50, 500, RNG.derive("ga-null-p"), n_perm=199)
    assert res_p.pvalue > 0.01


def test_ga_distance_degenerate_heavy_tail():
    law = InnovationLaw.symmetric_pareto(4.0, body="shell")
    spec = ProcessSpec("iid", p=1, innovation=law)
    res = ga_distance(spec, 1, 2000, RNG.derive("ga-deg"), n_perm=0)
    assert res.ks > 0.2


def test_ga_distance_guards():
    tar = ProcessSpec("threshold-ar", p=2)
    with pytest.raises(ValidationError, match="mc_long_run_sigma"):
        ga_distance(tar, 100, 200, RNG)


def test_mdep_rate_check_rejects_threshold_ar_before_replicating(monkeypatch):
    import hdts.experiments as ex

    def fail(*args, **kwargs):
        raise AssertionError("replications ran for a family without an oracle")
    monkeypatch.setattr(ex, "run_indexed", fail)
    with pytest.raises(ValidationError, match="iid or linear"):
        mdep_rate_check(ProcessSpec("threshold-ar", p=2), 2.0, 1.0, [2, 4, 8], 20, RNG)


def test_ga_distance_rejects_negative_n_perm(monkeypatch):
    import hdts.experiments as ex

    def fail(*args, **kwargs):
        raise AssertionError("replications ran with n_perm < 0")
    monkeypatch.setattr(ex, "run_indexed", fail)
    with pytest.raises(ValidationError, match="n_perm must be >= 0, got -5"):
        ga_distance(ProcessSpec("iid", p=3), 50, 20, RNG, n_perm=-5)


@pytest.mark.parametrize("run", [
    lambda R: ga_distance(ProcessSpec("iid", p=3), 50, R, RNG),
    lambda R: counterexample_demo(4.0, 50, [4, 8], R, RNG),
], ids=["ga", "counterexample"])
@pytest.mark.parametrize("R", [0, -3])
def test_ga_and_counterexample_reject_R_below_1_before_any_work(monkeypatch, run, R):
    from types import SimpleNamespace
    import hdts.experiments as ex

    def fail(*args, **kwargs):
        raise AssertionError("set-up or replications ran with R < 1")
    monkeypatch.setattr(ex, "true_sigma", fail)                       # ga's set-up
    monkeypatch.setattr(ex, "InnovationLaw", SimpleNamespace(symmetric_pareto=fail))
    monkeypatch.setattr(ex, "run_indexed", fail)
    with pytest.raises(ValidationError, match=f"R >= 1 replications, got {R}"):
        run(R)


def test_mc_long_run_sigma_approximates_truth():
    spec = ProcessSpec("linear", p=3, alpha=2.0, K=50, h=1, rho=0.4)
    approx = mc_long_run_sigma(spec, length=200_000, rng=RNG.derive("oracle"))
    truth = true_sigma(spec)
    assert np.max(np.abs(approx - truth)) < 0.12 * np.max(np.abs(truth))


def test_ga_distance_matches_a_panel_reference():
    # the statistic from the lag-sum weights agrees with the one from the
    # simulated panels on the same replication streams
    spec = ProcessSpec("linear", p=6, alpha=1.5, K=40, h=2, rho=0.5)
    n, R, rng = 120, 30, RngContract(78)
    res = ga_distance(spec, n, R, rng, n_perm=0)
    d0 = np.sqrt(np.diag(true_sigma(spec)))
    ref = np.array([np.max(np.abs(simulate(spec, n, rng.derive("ga-panel", r)).data
                                  .mean(axis=0)) / d0) * math.sqrt(n) for r in range(R)])
    assert np.allclose(res.sample_stats, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("h, rho", [(0, 0.0), (2, 0.5)])
def test_ga_distance_threads_do_not_change_results(h, rho):
    # h > 0 runs the cross mixer; with the coefficient caches cleared, the
    # worker threads build the lag-sum weights and share them, switching
    # often enough to race on a cache miss
    import sys
    from hdts import model
    spec = ProcessSpec("linear", p=5, alpha=1.0, K=20, h=h, rho=rho)
    a = ga_distance(spec, 100, 200, RngContract(77), n_perm=0, threads=1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in (2, 8):
            for cached in (ProcessSpec.lag_weights, ProcessSpec.cross_mixer,
                           model.lag_sum_weights, model._panel_weights):
                cached.cache_clear()
            b = ga_distance(spec, 100, 200, RngContract(77), n_perm=0, threads=threads)
            assert a.sample_stats.tobytes() == b.sample_stats.tobytes()
            assert a.ks == b.ks
    finally:
        sys.setswitchinterval(interval)


def test_run_indexed_runs_each_run_in_order_on_one_thread():
    import threading
    import time
    from hdts.util import RUN, run_indexed
    count = 5 * RUN + 3
    for threads in (1, 2, 8):
        calls, lock = [], threading.Lock()

        def fn(i):
            with lock:
                calls.append((i, threading.get_ident()))
            time.sleep(0.0005)           # lets the workers interleave
            return i * i

        assert run_indexed(fn, count, threads) == [i * i for i in range(count)]
        assert sorted(i for i, _ in calls) == list(range(count))
        for start in range(0, count, RUN):
            run = [(i, tid) for i, tid in calls if start <= i < start + RUN]
            assert [i for i, _ in run] == list(range(start, min(start + RUN, count)))
            assert len({tid for _, tid in run}) == 1


@pytest.mark.parametrize("threads", [0, -1])
def test_run_indexed_rejects_threads_below_1(threads):
    from hdts.util import run_indexed
    with pytest.raises(ValidationError, match="threads >= 1"):
        run_indexed(lambda i: i, 3, threads)


def test_shared_run_inputs_survive_any_call_order_and_thread(monkeypatch):
    # replications handed to 8 threads one index at a time, in an order that
    # breaks every run, with frequent thread switches: each still gets the
    # input for its own index, and each run's inputs are asked for at least once
    import sys
    from concurrent.futures import ThreadPoolExecutor
    import hdts.experiments as ex
    from hdts.util import RUN
    R, asked = 40 * RUN + 5, []

    def inputs(cell, rs):
        asked.append(rs.start)
        return (cell + 10 * r for r in rs)

    def scattered(fn, count, threads=1):
        order = [i for k in range(3) for i in range(count)[k::3]][::-1]
        with ThreadPoolExecutor(max_workers=8) as pool:
            done = dict(zip(order, pool.map(fn, order)))
        return [done[i] for i in range(count)]

    monkeypatch.setattr(ex, "run_indexed", scattered)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (out,), _ = ex._replicate([7], lambda cell, r, x: (r, x), R, 8, inputs)
    finally:
        sys.setswitchinterval(interval)
    assert out == [(r, 7 + 10 * r) for r in range(R)]
    assert {s - s % RUN for s in asked} == set(range(0, R, RUN))


_TAR = ProcessSpec("threshold-ar", p=3, theta1=0.4, theta2=-0.2, burn_in=50)


def _tar_coverage(threads):
    return coverage_experiment(ExperimentConfig(
        spec=_TAR, R=200, B=1000, base_seed=5, n_list=[60], theta_list=[0.9],
        threads=threads)).rows


def _tar_ga(threads):
    res = ga_distance(_TAR, 60, 40, RNG.derive("tar-ga"), sigma=np.eye(3), n_perm=0,
                      threads=threads)
    return res.sample_stats.tobytes(), res.ks


@pytest.mark.parametrize("run", [_tar_coverage, _tar_ga], ids=["coverage", "ga"])
def test_threshold_ar_replications_ignore_threads_and_call_order(monkeypatch, run):
    # stacked panels give the same results at any thread count, and as when
    # the replications are called last to first, each then drawing its own panel
    import hdts.experiments as ex
    ref = run(1)
    assert run(2) == ref and run(8) == ref
    monkeypatch.setattr(ex, "run_indexed",
                        lambda fn, count, threads=1: [fn(i) for i in range(count)[::-1]][::-1])
    assert run(1) == ref


def test_ga_distance_on_threshold_ar_sums_each_panel():
    from hdts.model import column_sums
    n, rng = 60, RNG.derive("tar-ga")
    res = ga_distance(_TAR, n, 40, rng, sigma=np.eye(3), n_perm=0, threads=2)
    ref = [np.max(np.abs(column_sums(_TAR, n, rng.derive("ga-panel", r)))) / math.sqrt(n)
           for r in range(40)]
    assert res.sample_stats.tolist() == ref


# ---------------------------------------------------------------------------
# coverage experiment
# ---------------------------------------------------------------------------

def test_coverage_requires_enough_replications():
    with pytest.raises(ValidationError, match="R >= 200"):
        ExperimentConfig(spec=ProcessSpec("iid", p=3), R=50)


def test_coverage_median_level_cell():
    cfg = ExperimentConfig(spec=ProcessSpec("iid", p=10),
                           R=2000, B=2000, base_seed=102, n_list=[500],
                           M_list=[1], theta_list=[0.5], threads=2)
    rep = coverage_experiment(cfg)
    assert abs(rep.rows[0]["coverage"] - 0.5) <= 0.03
    assert rep.rows[0]["coverage_se"] < 0.012


def test_coverage_undercovers_with_misspecified_tiny_M():
    # strong dependence with M = 1 ignores almost all the long-run variance
    spec = ProcessSpec("linear", p=10, alpha=0.2, K=400, h=0)
    cfg = ExperimentConfig(spec=spec, R=400, B=2000,
                           base_seed=103, n_list=[500], M_list=[1],
                           theta_list=[0.95], threads=2)
    rep = coverage_experiment(cfg)
    row = rep.rows[0]
    assert row["coverage"] < 0.95 - 3.0 * max(row["coverage_se"], 1e-3)


def test_experiment_report_csv_is_stable(tmp_path):
    from hdts import io
    cfg = ExperimentConfig(spec=ProcessSpec("iid", p=4),
                           R=200, B=1000, base_seed=9, n_list=[100],
                           M_list=[1], theta_list=[0.9])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    io.write_rows_csv(a, io.rows_to_columns(coverage_experiment(cfg).rows))
    io.write_rows_csv(b, io.rows_to_columns(coverage_experiment(cfg).rows))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0].startswith("n,p,M,theta")


# ---------------------------------------------------------------------------
# estimator rate experiment
# ---------------------------------------------------------------------------

def test_rate_experiment_iid_pure_clt_slope():
    spec = ProcessSpec("iid", p=4)
    res = rate_experiment(spec, [512, 1024, 2048, 4096, 8192], 60,
                          RNG.derive("rate-iid"), q=8.0,
                          M_rule=lambda n: 1, threads=2)
    assert res.empirical_slope == pytest.approx(-0.5, abs=0.15)


def test_rate_experiment_grid_guard():
    with pytest.raises(ValidationError, match="3 points"):
        rate_experiment(ProcessSpec("iid", p=2), [100, 200], 10, RNG)


# ---------------------------------------------------------------------------
# m-dependence decay
# ---------------------------------------------------------------------------

def test_mdep_oracle_matches_na_direct_sum():
    # independent brute-force evaluation of the coefficient identity
    spec = ProcessSpec("linear", p=1, alpha=1.0, K=12)
    n, m = 40, 4
    c = spec.lag_weights()
    D = {}
    for t in range(-12, n):
        D[t] = sum(c[k] for k in range(m + 1, 13) if 0 <= t + k <= n - 1)
    want = math.sqrt(sum(v * v for v in D.values()))
    got = mdep_oracle_norm(spec, n, m, 2.0)[0]
    assert got == pytest.approx(want, rel=1e-12)


def test_mdep_exact_zero_beyond_K_and_for_iid():
    spec = ProcessSpec("linear", p=1, alpha=1.0, K=6)
    assert mdep_oracle_norm(spec, 100, 6, 2.0)[0] == 0.0
    res = mdep_rate_check(ProcessSpec("iid", p=2), 2.0, 1.0, [1, 2, 4], 120,
                          RNG.derive("mdep-iid"), n=64)
    assert np.all(res.mc_norm == 0.0) and np.all(res.oracle_norm == 0.0)
    assert math.isnan(res.slope)


def test_mdep_rate_check_small_run():
    spec = ProcessSpec("linear", p=1, alpha=1.0, K=500)
    res = mdep_rate_check(spec, 2.0, 1.0, [8, 16, 32, 64], 150,
                          RNG.derive("mdep"), n=1024, threads=2)
    assert np.all(np.abs(res.mc_norm - res.oracle_norm) < 3.0 * res.mc_se)
    assert res.slope == pytest.approx(-1.0, abs=0.2)
    with pytest.raises(ValidationError, match="m-grid"):
        mdep_rate_check(spec, 2.0, 1.0, [4, 8], 100, RNG)


def test_mdep_rejects_m_zero_before_the_oracle(monkeypatch):
    import hdts.experiments as ex

    def fail(*args, **kwargs):
        raise AssertionError("the oracle or a replication ran with m = 0")
    monkeypatch.setattr(ex, "mdep_oracle_norm", fail)
    monkeypatch.setattr(ex, "run_indexed", fail)
    spec = ProcessSpec("linear", p=1, alpha=1.0, K=200)
    with pytest.raises(ValidationError, match="m must be >= 1 .* got 0"):
        mdep_rate_check(spec, 2.0, 1.0, [0, 16, 32], 200, RNG)


def test_mdep_module_example_alpha_one():
    # arithmetic grid m = 2, 4, ..., 64 at n = 4096, R = 500
    spec = ProcessSpec("linear", p=1, alpha=1.0, K=2000)
    res = mdep_rate_check(spec, 2.0, 1.0, list(range(2, 65, 2)), 500,
                          RNG.derive("mdep-a1"), n=4096, threads=2)
    assert res.slope == pytest.approx(-1.0, abs=0.15)


# ---------------------------------------------------------------------------
# heavy-tail failure demo
# ---------------------------------------------------------------------------

def test_counterexample_compliant_cell():
    res = counterexample_demo(8.0, 4096, [16], 800, RNG.derive("ctrex-ok"))
    assert res.rows[0]["ks"] <= 0.1
    assert 0.75 <= res.rows[0]["p_tail_emp"] / res.rows[0]["p_tail_gauss"] <= 1.25


def test_counterexample_degenerate_cell():
    # n = p = 1: the statistic is |X| itself, so the KS distance is the raw
    # law against the half-normal, which is large for heavy tails
    res = counterexample_demo(4.0, 1, [1], 1500, RNG.derive("ctrex-deg"))
    assert res.rows[0]["ks"] > 0.2


def test_counterexample_guards_and_diagnostics():
    with pytest.raises(ValidationError, match="tail index"):
        counterexample_demo(2.0, 64, [16], 200, RNG)
    res = counterexample_demo(4.0, 64, [32], 200, RNG.derive("ctrex-d"))
    row = res.rows[0]
    assert row["body"] == "shell"
    assert row["p_tail_gauss"] == pytest.approx(
        32 * 2.0 * (1.0 - 0.5 * (1 + math.erf(math.sqrt(2 * math.log(32)) / math.sqrt(2)))),
        rel=1e-10)
    assert set(ecdf_dump_rows(*res.samples[32])[0]) == {"u", "ecdf_sample",
                                                        "ecdf_gauss"}


@pytest.mark.parametrize("run, drawer", [
    (lambda rng: rate_experiment(ProcessSpec("iid", p=2), [16, 32, 64], 2, rng),
     "simulate"),
    (lambda rng: counterexample_demo(4.0, 16, [2, 4], 2, rng), "column_sums"),
    # coverage draws each run's panels with one simulate_many call, and its
    # R covers replication 10**6, the first (and only) one of the last run
    (lambda rng: coverage_experiment(ExperimentConfig(
        spec=ProcessSpec("iid", p=2), R=10 ** 6 + 1, B=1000, base_seed=71,
        n_list=[40], theta_list=[0.9, 0.95])), "simulate_many"),
], ids=["rate", "counterexample", "coverage"])
def test_replication_streams_are_distinct_across_cells(monkeypatch, run, drawer):
    import hdts.experiments as ex
    draw, seen = getattr(ex, drawer), []
    many = drawer == "simulate_many"

    def recording_draw(spec, n, rng):
        streams = list(rng) if many else [rng]
        seen.extend(s.stream_id for s in streams)
        return draw(spec, n, streams if many else rng)

    monkeypatch.setattr(ex, drawer, recording_draw)
    # replication 10**6 of one cell and replication 0 of the next must differ
    monkeypatch.setattr(ex, "run_indexed",
                        lambda fn, count, threads=1: [fn(0), fn(10 ** 6)])
    run(RNG.derive("streams"))
    assert len(seen) >= 4 and len(set(seen)) == len(seen)


def test_report_csv_text_equals_written_rows(tmp_path):
    from hdts import io
    rows = [{"n": 100, "kind": "ga", "ks": 0.1, "pvalue": float("nan")},
            {"n": np.int64(200), "kind": "ga", "ks": np.float64(1 / 3), "pvalue": 1e-300}]
    io.write_rows_csv(tmp_path / "r.csv", io.rows_to_columns(rows))
    assert (tmp_path / "r.csv").read_bytes() == (
        b"n,kind,ks,pvalue\n100,ga,0.10000000000000001,nan\n"
        b"200,ga,0.33333333333333331,1e-300\n")
