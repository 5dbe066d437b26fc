import json
import math

import numpy as np
import pytest

from hdts.depmeasure import (AuxNorms, DependenceProfile, adjusted_norm,
                             closed_form_profile, ga_condition_check,
                             gaussian_maxabs_moment_root, mc_profile,
                             power_law_min_tau, ultra_high_dim_exponent)
from hdts.errors import BoundaryError, ValidationError
from hdts.longrun import f_alpha_factor
from hdts.model import InnovationLaw, ProcessSpec, gaussian_abs_moment_root
from hdts.rng import RngContract

RNG = RngContract(31)


def synthetic(q=8.0, alpha=1.0, p=100, value=1.0, nu=None, phi=None):
    return DependenceProfile(
        q=q, alpha=alpha, p=p, Psi=value, Upsilon=value, sup_norm=value,
        Theta=value, nu=nu, Phi=phi, Phi_0=phi,
        aux=AuxNorms(psi_2_0=value, psi_2_a=value, psi_3_0=value,
                     psi_4_0=value, psi_4_a=value))


# ---------------------------------------------------------------------------
# adjusted_norm
# ---------------------------------------------------------------------------

def test_adjusted_norm_examples():
    geometric = np.array([0.5 ** m / 0.5 for m in range(100)])
    assert adjusted_norm(geometric, 0.0) == pytest.approx(2.0)
    # brute-force maximum over m <= 100 of (m+1) * 2 * 0.5^m
    brute = max((m + 1.0) * v for m, v in enumerate(geometric))
    assert adjusted_norm(geometric, 1.0) == pytest.approx(brute) == pytest.approx(2.0)
    flat = np.array([(m + 1.0) ** -1.7 for m in range(500)])
    assert adjusted_norm(flat, 1.7) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        adjusted_norm(np.array([]), 1.0)


def test_adjusted_norm_monotone_in_alpha():
    gen = RNG.derive("norm-mono").generator()
    for _ in range(20):
        delta = np.sort(gen.uniform(size=40))[::-1] * gen.uniform(0.1, 5.0)
        Delta = np.cumsum(delta[::-1])[::-1]
        vals = [adjusted_norm(Delta, a) for a in (0.0, 0.3, 0.9, 1.5, 2.2)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


# ---------------------------------------------------------------------------
# closed-form profiles
# ---------------------------------------------------------------------------

def test_iid_profile_matches_coupling_moment():
    spec = ProcessSpec("iid", p=4)
    for q in (2.0, 5.0):
        prof = closed_form_profile(spec, q, 0.0)
        want = math.sqrt(2.0) * gaussian_abs_moment_root(q)
        assert prof.delta[0] == pytest.approx(np.full(4, want))
        assert np.all(prof.delta[1:] == 0.0)
        assert prof.coord_norms == pytest.approx(np.full(4, want))
        # iid sandwich around the plain moment norm
        xq = gaussian_abs_moment_root(q)
        assert xq <= prof.Psi <= 2.0 * xq


def test_linear_gaussian_delta_closed_form():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=200, h=0)
    prof = closed_form_profile(spec, 2.0, 1.0)
    i = np.arange(201, dtype=float)
    want = math.sqrt(2.0) * (i + 1.0) ** -2.0
    assert prof.delta[:, 0] == pytest.approx(want)
    # tail sums against brute-force summation
    for m in (0, 5, 37):
        brute = math.sqrt(2.0) * sum((k + 1.0) ** -2.0 for k in range(m, 201))
        assert prof.Delta[m, 1] == pytest.approx(brute)


def test_profile_sandwich_and_theta():
    spec = ProcessSpec("linear", p=6, alpha=1.5, K=40, h=2, rho=0.6)
    prof = closed_form_profile(spec, 4.0, 1.5)
    assert prof.Psi <= prof.sup_norm + 1e-12
    assert prof.sup_norm <= prof.Upsilon + 1e-12
    assert prof.Theta == pytest.approx(
        min(prof.Upsilon, prof.sup_norm * math.log(6)))


def test_maxabs_moment_root_against_mc():
    # quadrature vs a large Monte Carlo draw
    gen = RNG.derive("maxabs").generator()
    draws = np.max(np.abs(gen.standard_normal((200_000, 7))), axis=1)
    for q in (2.0, 4.0):
        mc = float(np.mean(draws ** q) ** (1.0 / q))
        assert gaussian_maxabs_moment_root(7, q) == pytest.approx(mc, rel=0.01)


def _linear_space_maxabs_moment_root(p, q):
    """The moment root integrated as q u^(q-1) P(M > u) in linear space,
    which holds where u^(q-1) stays in the float range (q <= 80 here)."""
    from scipy import integrate
    from scipy.stats import norm
    val, _ = integrate.quad(
        lambda u: q * u ** (q - 1.0) * -np.expm1(p * np.log1p(-2.0 * norm.sf(u))),
        0.0, np.inf, limit=200)
    return val ** (1.0 / q)


@pytest.mark.parametrize("p", [2, 5, 50])
@pytest.mark.parametrize("q", [89.0, 90.0, 120.0, 400.0])
def test_maxabs_moment_root_is_finite_at_high_orders(p, q):
    # E M^q = p E|N|^q minus terms of order P(|N| > u)^2 at u ~ sqrt(q),
    # below 1e-19 of it here: the root is p^(1/q) times one |N|'s
    assert gaussian_maxabs_moment_root(p, q) == pytest.approx(
        p ** (1.0 / q) * gaussian_abs_moment_root(q), rel=1e-12, abs=0)


@pytest.mark.parametrize("q", [2.0, 8.0, 90.0, 400.0])
def test_maxabs_moment_root_of_one_normal_is_the_closed_form(q):
    assert gaussian_maxabs_moment_root(1, q) == pytest.approx(
        gaussian_abs_moment_root(q), rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1, 2, 5, 50, 1000])
def test_maxabs_moment_root_keeps_the_linear_space_values(p):
    for q in (2.0, 2.5, 3.0, 4.0, 8.0, 20.0, 50.0, 80.0):
        assert gaussian_maxabs_moment_root(p, q) == pytest.approx(
            _linear_space_maxabs_moment_root(p, q), rel=1e-9, abs=0)


@pytest.mark.parametrize("p", [2, 5, 50])
def test_maxabs_moment_root_is_nondecreasing_in_q(p):
    roots = [gaussian_maxabs_moment_root(p, q)
             for q in (2.0, 3.0, 8.0, 20.0, 80.0, 88.0, 89.0, 90.0, 120.0, 400.0, 1e4)]
    assert all(np.isfinite(roots)) and roots == sorted(roots)


@pytest.mark.parametrize("q", [200.0, 400.0, 1000.0])
def test_upsilon_past_the_direct_sum_overflow_is_the_closed_form(q):
    # iid Gaussian, p = 5: every coordinate norm is sqrt(2) (E|N|^q)^(1/q),
    # and sum_j c_j^q overflows from about q = 260 on
    root = math.exp(((q / 2.0) * math.log(2.0) + math.lgamma((q + 1.0) / 2.0)
                     - math.lgamma(0.5)) / q)
    prof = closed_form_profile(ProcessSpec("iid", p=5), q, 1.5)
    assert prof.Upsilon == pytest.approx(5.0 ** (1.0 / q) * math.sqrt(2.0) * root,
                                         rel=1e-12, abs=0)


def test_student_t_profile_uses_quadrature_moment():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=5, h=0,
                       innovation=InnovationLaw.student_t(8.0))
    prof = closed_form_profile(spec, 3.0, 1.0)
    # coupling moment of a t(8) difference, checked by brute Monte Carlo
    gen = RNG.derive("tdiff").generator()
    d = gen.standard_t(8.0, 400_000) - gen.standard_t(8.0, 400_000)
    mc = float(np.mean(np.abs(d) ** 3.0) ** (1.0 / 3.0))
    assert prof.delta[0, 0] == pytest.approx(mc, rel=0.02)


def test_closed_form_guards():
    pareto = ProcessSpec("iid", p=2, innovation=InnovationLaw.symmetric_pareto(4.0))
    with pytest.raises(ValidationError, match="mc_profile"):
        closed_form_profile(pareto, 3.0, 1.0)
    tar = ProcessSpec("threshold-ar", p=2)
    with pytest.raises(ValidationError, match="mc_profile"):
        closed_form_profile(tar, 2.0, 1.0)
    t_mix = ProcessSpec("linear", p=2, h=1, rho=0.5,
                        innovation=InnovationLaw.student_t(8.0))
    with pytest.raises(ValidationError, match="h = 0"):
        closed_form_profile(t_mix, 2.0, 1.0)
    t_low = ProcessSpec("linear", p=2, h=0, innovation=InnovationLaw.student_t(4.0))
    with pytest.raises(ValidationError, match="moment"):
        closed_form_profile(t_low, 4.0, 1.0)


# ---------------------------------------------------------------------------
# Monte Carlo profiles
# ---------------------------------------------------------------------------

def test_mc_profile_guards():
    spec = ProcessSpec("iid", p=2)
    with pytest.raises(ValidationError, match="R >= 100"):
        mc_profile(spec, 2.0, 0.0, 50, RNG)
    t_spec = ProcessSpec("iid", p=2, innovation=InnovationLaw.student_t(6.0))
    with pytest.raises(ValidationError, match="moment"):
        mc_profile(t_spec, 6.0, 0.0, 200, RNG)


def test_mc_profile_iid_gaussian_delta0():
    spec = ProcessSpec("iid", p=3)
    prof = mc_profile(spec, 2.0, 0.0, 2000, RNG.derive("mc-iid"), lags=4)
    want = math.sqrt(2.0)
    z = np.abs(prof.delta[0] - want) / prof.delta_se[0]
    assert np.all(z < 3.0)
    assert np.all(prof.delta[1:] == 0.0)


def test_mc_profile_matches_closed_form_linear():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=6, h=1, rho=0.5)
    cf = closed_form_profile(spec, 2.0, 1.0)
    mc = mc_profile(spec, 2.0, 1.0, 3000, RNG.derive("mc-lin"), lags=8)
    L = cf.delta.shape[0]
    z = np.abs(mc.delta[:L] - cf.delta) / np.maximum(mc.delta_se[:L], 1e-300)
    assert z.max() < 3.5
    assert np.all(mc.delta[L:] == 0.0)
    assert mc.Psi == pytest.approx(cf.Psi, rel=0.05)


@pytest.mark.parametrize("law, tail", [
    (InnovationLaw.gaussian(), "closed-form"),
    (InnovationLaw.symmetric_pareto(4.0), "extrapolated-from-lag-0"),
])
def test_mc_profile_extends_linear_tail_past_the_horizon(law, tail):
    # K > lags: Delta past the horizon is the tail sum of c_i * kappa, with
    # kappa exact for Gaussian innovations and delta_hat_0 / c_0 otherwise
    lags, q = 5, 4.0
    spec = ProcessSpec("linear", p=2, innovation=law, alpha=1.0, K=40, h=1, rho=0.3)
    prof = mc_profile(spec, q, 1.0, 100, RNG.derive("mc-ext"), lags=lags)
    assert prof.source["tail"] == tail
    c = spec.lag_weights()
    if tail == "closed-form":
        kappa = law.diff_norm(q) * np.linalg.norm(spec.cross_mixer(), axis=1)
    else:
        kappa = prof.delta[0] / c[0]
    beyond = np.multiply.outer(c[lags + 1:], kappa)
    assert prof.Delta.shape == (spec.K + 1, spec.p)
    assert np.array_equal(prof.Delta[lags + 1:], np.cumsum(beyond[::-1], axis=0)[::-1])


def test_mc_profile_threshold_ar_contraction_slope():
    theta = 0.5
    spec = ProcessSpec("threshold-ar", p=1, theta1=theta, theta2=theta, burn_in=64)
    prof = mc_profile(spec, 2.0, 1.0, 2000, RNG.derive("mc-tar"), lags=12)
    d = prof.delta[1:, 0]
    slope = np.polyfit(np.arange(1, 13), np.log(d), 1)[0]
    assert abs(slope - math.log(theta)) < 0.1
    assert prof.source.get("truncation_lag") == 12


def test_mc_profile_converges_at_root_R_rate():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=4, h=0)
    cf = closed_form_profile(spec, 2.0, 1.0)
    L = cf.delta.shape[0]
    errs = []
    for R in (100, 1000, 10_000):
        # average the max relative error over independent profiles; a single
        # max statistic is too noisy for a 3-point slope
        reps = []
        for k in range(5):
            mc = mc_profile(spec, 2.0, 1.0, R, RNG.derive("mc-rate", 10 * R + k),
                            lags=6)
            reps.append(np.max(np.abs(mc.delta[:L] - cf.delta) / cf.delta.max()))
        errs.append(np.mean(reps))
    slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(errs), 1)[0]
    assert -0.8 < slope < -0.2


# ---------------------------------------------------------------------------
# condition checking
# ---------------------------------------------------------------------------

def test_condition_quantities_by_hand():
    prof = synthetic(q=8.0, alpha=1.0, p=100)
    rep = ga_condition_check(prof, n=10_000, p=100)
    n, p = 10_000.0, 100.0
    lp, lpn = math.log(p), math.log(p * n)
    assert rep.conditions[0].lhs == pytest.approx(
        n ** (1.0 / 8.0 - 0.5) * lpn ** 1.5)
    assert rep.L1 == pytest.approx(
        (n ** (1.0 / 8.0 - 0.5) * lp ** 0.5) ** (1.0 / (1.0 - 0.5 + 1.0 / 8.0)))
    assert rep.L2 == pytest.approx(lp ** 2.0)
    assert rep.W1 == pytest.approx(2.0 * lpn ** 7.0)
    assert rep.W2 == pytest.approx(lpn ** 4.0)
    assert rep.N1 == pytest.approx((n / lp) ** 4.0)
    assert rep.N2 == pytest.approx(n / lp ** 2.0)
    assert rep.regime == "weaker"
    assert rep.alpha_one_flag and any("alpha=1" in c.name for c in rep.conditions)


def test_condition_unit_plugins():
    rep = ga_condition_check(synthetic(p=math.e), n=100, p=math.e)
    assert rep.N2 == pytest.approx(100.0)
    rep2 = ga_condition_check(synthetic(nu=0.5, phi=1.0), n=10_000, p=100, nu=0.5)
    assert rep2.ultra_c == pytest.approx(1.0 / 12.0)
    assert rep2.regime == "sub-exponential"


def test_condition_spreadsheet_cross_check():
    # independent recomputation on random parameter tuples
    gen = RNG.derive("sheet").generator()
    for _ in range(5):
        q = float(gen.uniform(4.5, 10.0))
        alpha = float(gen.uniform(0.6, 2.0))
        vals = gen.uniform(0.5, 3.0, size=7)
        psi, ups, linf, p20, p2a, p30, p40 = map(float, vals)
        ups = max(ups, psi, linf)
        linf = max(linf, psi)
        n = int(gen.integers(500, 50_000))
        p = int(gen.integers(10, 500))
        prof = DependenceProfile(
            q=q, alpha=alpha, p=p, Psi=psi, Upsilon=ups, sup_norm=linf,
            Theta=min(ups, linf * math.log(p)),
            aux=AuxNorms(psi_2_0=p20, psi_2_a=p2a, psi_3_0=p30,
                         psi_4_0=p40, psi_4_a=p40))
        rep = ga_condition_check(prof, n=n, p=p)
        lp, lpn = math.log(p), math.log(p * n)
        theta = min(ups, linf * lp)
        assert rep.W1 == pytest.approx((p30 ** 6 + p40 ** 4) * lpn ** 7)
        assert rep.W2 == pytest.approx(p2a ** 2 * lpn ** 4)
        assert rep.L2 == pytest.approx((p2a * p20 * lp ** 2) ** (1.0 / alpha))
        assert rep.N1 == pytest.approx((n / lp) ** (q / 2.0) / theta ** q)
        assert rep.N2 == pytest.approx(n / (lp ** 2 * p2a ** 2))
        lhs = max(rep.L1, rep.L2) * max(rep.W1, rep.W2)
        assert rep.conditions[1].lhs == pytest.approx(lhs)
        assert rep.conditions[1].rhs == pytest.approx(min(rep.N1, rep.N2))


def test_condition_boundary_and_regimes():
    with pytest.raises(BoundaryError):
        ga_condition_check(synthetic(q=8.0, alpha=0.5 - 1.0 / 8.0), n=1000, p=50)
    rep = ga_condition_check(synthetic(q=8.0, alpha=0.2), n=1000, p=50)
    assert rep.regime == "stronger"
    assert rep.W3 is not None and rep.N3 is not None and rep.L1 is None
    # stronger-regime condition values by hand
    lhs = rep.L2 * max(rep.W1, rep.W2, rep.W3)
    assert rep.conditions[1].lhs == pytest.approx(lhs)


def test_condition_check_uses_default_block_length():
    # floor(1000^(1/3)) is 9 in floating point; the package default is 10
    q, alpha = 8.0, 0.5
    rep = ga_condition_check(synthetic(q=q, alpha=alpha), n=1000, p=50)
    assert rep.F_alpha == f_alpha_factor(q, alpha, 100, 10)


def test_condition_missing_pieces_raise():
    bare = DependenceProfile(q=8.0, alpha=1.0, p=10, Psi=1.0, Upsilon=1.0,
                             sup_norm=1.0, Theta=1.0)
    with pytest.raises(ValidationError, match="auxiliary"):
        ga_condition_check(bare, n=1000, p=10)
    with pytest.raises(ValidationError, match="Phi"):
        ga_condition_check(synthetic(), n=1000, p=10, nu=0.5)


def test_ultra_exponent_branches():
    assert ultra_high_dim_exponent(1.0, 1.0) == pytest.approx(1.0 / 12.0)
    assert ultra_high_dim_exponent(2.0, 0.55) == pytest.approx(
        1.0 / (7.0 + (1.0 / 0.55 + 0.5) * (0.5 + 2.0)))
    assert ultra_high_dim_exponent(2.0, 0.4) == pytest.approx(
        1.0 / (3.0 + 5.0 + (2.5 + 0.5) * (0.5 + 2.0)))


def test_power_law_min_tau():
    q, alpha = 8.0, 1.0
    # kappa1 = 0, kappa2 = 1/q reproduces the polynomial-dimension threshold
    assert power_law_min_tau(0.0, 1.0 / q, q, alpha) == pytest.approx(
        max((1.0 / q) / (0.5 - 1.0 / q), 0.0, 2.0 / q * 0.0 + 2.0 / q))
    # stronger regime branch
    got = power_law_min_tau(0.1, 0.2, 8.0, 0.25)
    base = 2.0 * 0.1 / 0.25 + 0.8
    assert got == pytest.approx(max(0.2 / 0.25, base, 0.5 * base + 0.4))
    with pytest.raises(BoundaryError):
        power_law_min_tau(0.1, 0.2, 8.0, 0.5 - 1.0 / 8.0)


def test_gaussian_phi_norms():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=20, h=0)
    prof = closed_form_profile(spec, 4.0, 1.0, nu=0.5)
    assert prof.Phi is not None and prof.Phi_0 is not None
    # at nu = 1/2 the q-sup of c_q / sqrt(q) sits at q = 2 where c_2 = 1
    c = spec.lag_weights()
    tails = np.cumsum(c[::-1])[::-1]
    s_a = max((m + 1.0) * tails[m] for m in range(21))
    assert prof.Phi == pytest.approx(math.sqrt(2.0) * s_a / math.sqrt(2.0), rel=1e-6)
    with pytest.raises(ValidationError, match="nu >= 1/2"):
        closed_form_profile(spec, 4.0, 1.0, nu=0.3)


def test_profile_json_round_trip():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=10, h=1, rho=0.4)
    prof = closed_form_profile(spec, 4.0, 1.0)
    blob = json.dumps(prof.to_json_dict())
    back = DependenceProfile.from_json_dict(json.loads(blob))
    assert back.Psi == prof.Psi
    assert back.Theta == prof.Theta
    assert np.allclose(back.delta, prof.delta)
    assert back.aux.psi_3_0 == prof.aux.psi_3_0
    keys = json.loads(blob).keys()
    assert {"Psi_q_alpha", "Theta_q_alpha", "Upsilon_q_alpha"} <= set(keys)
