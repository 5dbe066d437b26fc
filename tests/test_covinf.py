import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdts.covinf import (build_cov_panel, cov_dep_norm_bound,
                         cov_simultaneous_test, mc_cov_norms, n_pairs,
                         pair_indices, product_block_sums)
from hdts.depmeasure import closed_form_profile
from hdts.errors import AssumptionError, ValidationError
from hdts.gboot import bootstrap_quantile, simultaneous_ci
from hdts.longrun import _block_sums, plan_blocks, sigma_tilde
from hdts.model import InnovationLaw, Panel, ProcessSpec, simulate
from hdts.rng import RngContract

RNG = RngContract(60)


# ---------------------------------------------------------------------------
# index layout
# ---------------------------------------------------------------------------

def test_pair_layout_p2():
    js, ks = pair_indices(2)
    assert list(zip(js, ks)) == [(0, 0), (0, 1), (1, 1)]
    assert n_pairs(2) == 3


def test_pair_indices_are_shared_and_read_only():
    js, ks = pair_indices(3)
    assert pair_indices(3)[0] is js
    for arr in (js, ks):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    assert list(zip(js, ks)) == list(zip(*np.triu_indices(3)))


# ---------------------------------------------------------------------------
# product panel
# ---------------------------------------------------------------------------

def test_build_cov_panel_alternating_scalar():
    data = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    cp = build_cov_panel(Panel.from_data(data))
    assert cp.gamma_hat == pytest.approx([1.0])
    assert np.all(cp.data == 0.0)


def test_build_cov_panel_reconstructs_gamma():
    panel = simulate(ProcessSpec("iid", p=4), 300, RNG.derive("gamma"))
    cp = build_cov_panel(panel)
    js, ks = pair_indices(4)
    direct = np.array([np.mean(panel.data[:, j] * panel.data[:, k])
                       for j, k in zip(js, ks)])
    assert np.max(np.abs(cp.gamma_hat - direct)) < 1e-12
    assert np.max(np.abs(cp.data.mean(axis=0))) < 1e-12
    with pytest.raises(ValidationError):
        build_cov_panel(Panel.from_data(np.ones((1, 2))))


# ---------------------------------------------------------------------------
# dependence-norm bounds
# ---------------------------------------------------------------------------

def test_bound_requires_q_at_least_4():
    prof = closed_form_profile(ProcessSpec("iid", p=3), 3.0, 0.0)
    with pytest.raises(ValidationError, match="q >= 4"):
        cov_dep_norm_bound(prof)


def test_bound_iid_uniform_value():
    # iid coordinates share one norm u, so the uniform bound is 4u^2
    prof = closed_form_profile(ProcessSpec("iid", p=3), 4.0, 0.0)
    u = float(prof.coord_norms[0])
    bound = cov_dep_norm_bound(prof)
    assert bound.Psi == pytest.approx(4.0 * u ** 2)
    assert bound.coord_norms == pytest.approx(np.full(6, 4.0 * u ** 2))
    assert bound.q == 2.0


def test_bound_p2_overall_by_hand():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=8, h=1, rho=0.5)
    prof = closed_form_profile(spec, 4.0, 1.0)
    bound = cov_dep_norm_bound(prof)
    from hdts.depmeasure import adjusted_norm
    n0 = np.array([adjusted_norm(prof.Delta[:, j], 0.0) for j in range(2)])
    na = prof.coord_norms
    want = 4.0 * (n0[0] ** 2 + n0[1] ** 2) ** 0.5 * (na[0] ** 2 + na[1] ** 2) ** 0.5
    assert bound.Upsilon == pytest.approx(want)
    per = 2.0 * n0[0] * na[1] + 2.0 * n0[1] * na[0]
    assert bound.coord_norms[1] == pytest.approx(per)


def test_bound_profile_feeds_condition_checker():
    from hdts.depmeasure import ga_condition_check
    spec = ProcessSpec("linear", p=3, alpha=1.5, K=10, h=0)
    prof = closed_form_profile(spec, 8.0, 1.5)
    bound = cov_dep_norm_bound(prof)
    cov_prof = bound
    assert cov_prof.q == 4.0 and cov_prof.p == 6
    assert cov_prof.Psi <= cov_prof.Upsilon + 1e-12
    # the bound profile carries enough auxiliary norms for the checker
    assert bound.aux.psi_2_0 == pytest.approx(4.0 * prof.aux.psi_4_0 ** 2)
    rep = ga_condition_check(cov_prof, n=4096)
    assert rep.q == 4.0 and rep.regime == "weaker"


def test_bound_is_the_product_process_profile():
    import json
    from hdts.depmeasure import DependenceProfile
    spec = ProcessSpec("linear", p=3, alpha=1.5, K=10, h=1, rho=0.3)
    bound = cov_dep_norm_bound(closed_form_profile(spec, 8.0, 1.5))
    assert isinstance(bound, DependenceProfile)
    assert bound.source == {"kind": "upper-bound"}
    assert bound.coord_norms.shape == (6,) and np.max(bound.coord_norms) <= bound.Psi
    assert bound.Theta == min(bound.Upsilon, bound.sup_norm * math.log(6))
    back = DependenceProfile.from_json_dict(json.loads(json.dumps(bound.to_json_dict())))
    assert back.Psi == bound.Psi and np.array_equal(back.coord_norms, bound.coord_norms)


def test_mc_profile_bound_feeds_condition_checker():
    from hdts.depmeasure import ga_condition_check, mc_profile
    spec = ProcessSpec("linear", p=3, alpha=1.5, K=10, h=1, rho=0.5)
    prof = mc_profile(spec, 8.0, 1.5, 150, RngContract(2))
    assert prof.aux.psi_6_0 > 0 and prof.aux.psi_8_0 > 0
    rep = ga_condition_check(cov_dep_norm_bound(prof), n=4096)
    assert rep.q == 4.0 and rep.regime == "weaker"


@pytest.mark.parametrize("spec, q", [
    (ProcessSpec("iid", p=2), 0.0), (ProcessSpec("iid", p=2), math.nan),
    (ProcessSpec("iid", p=2), -2.0),
    (ProcessSpec("iid", p=2, innovation=InnovationLaw.student_t(5.0)), 8.0),
], ids=["q=0", "q=nan", "q=-2", "t5-q=8"])
def test_mc_cov_norms_rejects_orders_before_simulating(monkeypatch, spec, q):
    def fail(*args, **kwargs):
        raise AssertionError("simulated with an unusable moment order")
    monkeypatch.setattr("hdts.depmeasure.simulate_coupled", fail)
    with pytest.raises(ValidationError, match="moment"):
        mc_cov_norms(spec, q, 1.0, 100, RNG)


def test_mc_norms_never_exceed_bound():
    spec = ProcessSpec("linear", p=4, alpha=1.0, K=30, h=1, rho=0.4)
    prof = closed_form_profile(spec, 4.0, 1.0)
    bound = cov_dep_norm_bound(prof)
    norms, se = mc_cov_norms(spec, 4.0, 1.0, 600, RNG.derive("dom"), lags=12)
    assert np.all(norms <= bound.coord_norms + 3.0 * se)
    assert np.all(norms <= bound.Psi + 3.0 * se)


def test_mc_per_lag_product_deltas_never_exceed_bound():
    # lag-by-lag: phi_{i,q/2,a} <= 2||X_ij||_q delta_{i,q,k}
    #                            + 2||X_ik||_q delta_{i,q,j}
    from hdts.model import gaussian_abs_moment_root, simulate_coupled
    q = 4.0
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=30, h=1, rho=0.5)
    prof = closed_form_profile(spec, q, 1.0)
    c = spec.lag_weights()
    b_row = np.linalg.norm(spec.cross_mixer(), axis=1)
    cq = gaussian_abs_moment_root(q)
    xnorm = cq * math.sqrt(float(np.sum(c ** 2))) * b_row  # ||X_ij||_q
    lags, R = 12, 1500
    js, ks = pair_indices(3)
    vals = np.empty((R, lags + 1, len(js)))
    for r in range(R):
        x, xc = simulate_coupled(spec, lags + 1, RNG.derive("perlag", r))
        vals[r] = np.abs(x.data[:, js] * x.data[:, ks]
                         - xc.data[:, js] * xc.data[:, ks])
    mom = np.mean(vals ** (q / 2.0), axis=0)
    phi = mom ** (2.0 / q)
    se_mom = np.std(vals ** (q / 2.0), axis=0, ddof=1) / math.sqrt(R)
    se_phi = np.where(mom > 0, 2.0 / q * mom ** (2.0 / q - 1.0) * se_mom, 0.0)
    per_lag_bound = (2.0 * xnorm[js] * prof.delta[:lags + 1, ks]
                     + 2.0 * xnorm[ks] * prof.delta[:lags + 1, js])
    assert np.all(phi <= per_lag_bound + 3.0 * se_phi)


# ---------------------------------------------------------------------------
# simultaneous covariance test
# ---------------------------------------------------------------------------

def test_cov_test_scalar_reduction_matches_manual_pipeline():
    panel = simulate(ProcessSpec("iid", p=1), 500, RNG.derive("scalar"))
    res = cov_simultaneous_test(panel, 0.9, 5, 2000, RngContract(61),
                                null_gamma=np.array([[1.0]]))
    x = panel.data[:, 0]
    prods = x * x
    gamma_hat = prods.mean()
    centered = Panel.from_data((prods - gamma_hat)[:, None])
    est = sigma_tilde(centered, plan_blocks(500, 5))
    bq = bootstrap_quantile(est, 0.9, 2000, RngContract(61))
    # the statistic is studentized at the null: block sums of x^2 - 1
    tau0 = math.sqrt(np.mean((prods - 1.0).reshape(100, 5).sum(axis=1) ** 2) / 5)
    stat = math.sqrt(500) * abs(gamma_hat - 1.0) / tau0
    assert abs(res.statistic - stat) < 1e-10
    assert res.threshold == bq.chi


def test_cov_test_level_iid():
    # pooled over ten base seeds (10^4 replications), so the bound checks
    # the size itself and not the luck of one seed's draws
    spec = ProcessSpec("iid", p=5)
    rejections = 0
    R = 1000
    seeds = range(60, 70)
    for seed in seeds:
        base = RngContract(seed)
        for r in range(R):
            panel = simulate(spec, 250, base.derive("level", r))
            res = cov_simultaneous_test(panel, 0.95, 1, 1000,
                                        base.derive("level-boot", r),
                                        null_gamma=np.eye(5))
            rejections += res.reject
    assert rejections / (R * len(seeds)) <= 0.05 + 0.02


@pytest.mark.parametrize("M", [1, 7])
def test_cov_test_null_far_from_the_data_is_rejected(M):
    # the null-centred scale grows with |gamma_hat - gamma0|, so the
    # statistic tends to about sqrt(w) and must not overflow to 0 or inf
    panel = simulate(ProcessSpec("iid", p=3), 400, RNG.derive("far-null"))
    for scale in (1e150, 1e300, 1e308):
        res = cov_simultaneous_test(panel, 0.95, M, 1000, RNG, null_gamma=scale * np.eye(3))
        assert res.reject and np.all(np.isfinite(res.pair_stats))
        assert res.statistic == pytest.approx(math.sqrt(res.w), rel=0.02)


def test_cov_test_size_at_large_n():
    # the procedure reaches its nominal level as n grows: at n = 4000 the
    # rejection rate sits within a 3-sigma binomial band around 0.05
    spec = ProcessSpec("iid", p=5)
    R = 1000
    rejections = 0
    for r in range(R):
        panel = simulate(spec, 4000, RNG.derive("size-4000", r))
        rejections += cov_simultaneous_test(panel, 0.95, 1, 1000,
                                            RNG.derive("size-4000-boot", r),
                                            null_gamma=np.eye(5)).reject
    assert abs(rejections / R - 0.05) <= 3.0 * math.sqrt(0.05 * 0.95 / R)


def test_cov_test_rejects_an_asymmetric_null():
    panel = simulate(ProcessSpec("iid", p=2), 300, RNG.derive("asym"))
    with pytest.raises(ValidationError, match="symmetric"):
        cov_simultaneous_test(panel, 0.95, 1, 1000, RNG, null_gamma=[[1.0, 0.0], [5.0, 1.0]])
    with pytest.raises(ValidationError, match=r"\(2,2\)"):
        cov_simultaneous_test(panel, 0.95, 1, 1000, RNG, null_gamma=[1.0, 0.0, 1.0])
    # a null symmetric up to rounding is accepted and read from its upper triangle
    near = np.eye(2)
    near[1, 0] = 1e-14
    assert cov_simultaneous_test(panel, 0.95, 1, 1000, RNG, null_gamma=near).statistic == \
        cov_simultaneous_test(panel, 0.95, 1, 1000, RNG, null_gamma=np.eye(2)).statistic


def test_cov_test_default_null_leaves_variances_untested():
    # scale one coordinate: with the default null only off-diagonals count
    gen = RNG.derive("scalevar-2").generator()
    data = gen.standard_normal((400, 3))
    data[:, 0] *= 7.0
    res = cov_simultaneous_test(Panel.from_data(data), 0.95, 1, 2000,
                                RngContract(63))
    js, ks = pair_indices(3)
    diag = js == ks
    assert np.all(res.pair_stats[diag] == 0.0)
    assert not res.reject


def test_cov_test_power_planted_correlation():
    # p = 5 iid Gaussian with one pair correlated at rho = 0.9
    gamma = np.eye(5)
    gamma[1, 3] = gamma[3, 1] = 0.9
    L = np.linalg.cholesky(gamma)
    js, ks = pair_indices(5)
    planted = (js == 1) & (ks == 3)
    flagged = 0
    R = 400
    for r in range(R):
        z = RNG.derive("power", r).generator().standard_normal((2000, 5))
        panel = Panel.from_data(z @ L.T)
        res = cov_simultaneous_test(panel, 0.95, 1, 1000,
                                    RNG.derive("power-boot", r))
        flagged += bool(res.flags[planted][0])
    assert flagged / R >= 0.99


def test_cov_test_statistic_shrinks_with_n():
    spec = ProcessSpec("iid", p=1)
    medians = []
    for n in (500, 2000, 8000):
        stats = []
        for r in range(40):
            panel = simulate(spec, n, RNG.derive("consist", 100 * n + r))
            res = cov_simultaneous_test(panel, 0.95, 1, 1000,
                                        RNG.derive("consist-boot", 100 * n + r),
                                        null_gamma=np.array([[1.0]]))
            stats.append(res.statistic)
        medians.append(np.median(stats))
    # sqrt(n)-normalized deviation from the truth is O(1); against a fixed
    # null the median stays bounded while the raw deviation shrinks; check
    # the unnormalized error decreases
    raw = [m / math.sqrt(n) for m, n in zip(medians, (500, 2000, 8000))]
    assert raw[0] > raw[1] > raw[2]


@settings(max_examples=40, deadline=None)
@given(p_perm=st.integers(1, 6).flatmap(
           lambda p: st.tuples(st.just(p), st.permutations(range(p)))),
       n_M=st.integers(8, 160).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n // 2))),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p_perm=(4, [2, 0, 1, 3]), n_M=(600, 1), seed=0)   # w = 600 > 10 pairs
@example(p_perm=(5, [4, 2, 0, 3, 1]), n_M=(40, 4), seed=1)  # w = 10 <= 15 pairs
def test_cov_test_permutation_equivariance(p_perm, n_M, seed):
    (p, perm), (n, M) = p_perm, n_M
    perm = np.array(perm)
    panel = Panel.from_data(RngContract(seed).derive("perm").generator().standard_normal((n, p)))
    res = cov_simultaneous_test(panel, 0.95, M, 1000, RngContract(62), null_gamma=np.eye(p))
    permuted = Panel.from_data(panel.data[:, perm])   # column-major copy
    res_p = cov_simultaneous_test(permuted, 0.95, M, 1000, RngContract(62),
                                  null_gamma=np.eye(p))
    # pair (a, b) of the permuted panel is pair (perm[a], perm[b]) of the original
    js, ks = pair_indices(p)
    flat = np.empty((p, p), dtype=int)
    flat[js, ks] = flat[ks, js] = np.arange(n_pairs(p))
    back = flat[perm[js], perm[ks]]
    assert np.array_equal(res_p.gamma_hat, res.gamma_hat[back])
    assert np.array_equal(res_p.pair_stats, res.pair_stats[back])
    assert res_p.statistic == pytest.approx(res.statistic, abs=1e-10)
    if res.w <= n_pairs(p):
        # F_n is the unit-norm block sums, whose columns permute with the pairs
        assert res_p.threshold == pytest.approx(res.threshold, rel=1e-10)


@pytest.mark.parametrize("flat, pairs", [
    ([1], [(2, 2)]),                   # the flat index of pair (2, 2) is 4
    ([0, 2], [(1, 1), (1, 3), (3, 3)]),
])
def test_cov_test_names_degenerate_pairs_and_ci_names_columns(flat, pairs):
    data = RNG.derive("flat-pairs").generator().standard_normal((200, 3))
    data[:, flat] = 2.5
    panel = Panel.from_data(data)
    with pytest.raises(AssumptionError) as cov:
        cov_simultaneous_test(panel, 0.95, None, 1000, RNG)
    assert f"fails for pair(s) {pairs}, " in str(cov.value)
    with pytest.raises(AssumptionError) as ci:
        simultaneous_ci(panel, 0.95, None, 1000, RNG)
    assert f"fails for column(s) {[j + 1 for j in flat]}, " in str(ci.value)


def test_cov_test_dimension_guard():
    # p = 100 gives 5050 pairs; the guard trips before any product is formed
    panel = simulate(ProcessSpec("iid", p=100), 4, RNG.derive("guard"))
    with pytest.raises(ValidationError, match="coordinate subset"):
        cov_simultaneous_test(panel, 0.95, None, 1000, RNG)


def test_product_block_sums_match_product_panel():
    # n = 203 is not a multiple of M = 10: the 3 trailing rows enter
    # gamma_hat but no block sum
    panel = simulate(ProcessSpec("linear", p=6, alpha=1.0, K=10, h=1, rho=0.5),
                     203, RNG.derive("gram"))
    plan = plan_blocks(203, 10)
    Y, gamma_hat = product_block_sums(panel, plan)
    ref = build_cov_panel(panel)
    want = _block_sums(ref.data[None], plan)[0][0]
    assert np.max(np.abs(Y - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(gamma_hat - ref.gamma_hat)) <= \
        1e-12 * np.max(np.abs(ref.gamma_hat))
