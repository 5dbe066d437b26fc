import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdts.errors import ValidationError
from hdts.model import (InnovationLaw, ProcessSpec, column_sums, lag_sum_weights,
                        m_dependent_approx, simulate, simulate_coupled)
from hdts.rng import RngContract
from hdts.util import fit_loglog_slope

RNG = RngContract(20240801)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_invalid_specs_name_the_violated_invariant():
    with pytest.raises(ValidationError, match="theta1"):
        ProcessSpec("threshold-ar", p=1, theta1=1.0, theta2=0.3)
    with pytest.raises(ValidationError, match="rho"):
        ProcessSpec("linear", p=2, rho=1.0)
    with pytest.raises(ValidationError, match="family"):
        ProcessSpec("garch", p=1)
    with pytest.raises(ValidationError, match="df"):
        InnovationLaw.student_t(2.0)
    with pytest.raises(ValidationError, match="n must be >= 1"):
        simulate(ProcessSpec("iid", p=1), 0, RNG)


def test_simulate_shapes_and_determinism():
    spec = ProcessSpec("iid", p=3)
    panel = simulate(spec, 4, RngContract(7))
    assert panel.data.shape == (4, 3)
    again = simulate(spec, 4, RngContract(7))
    assert np.array_equal(panel.data, again.data)


def test_iid_zero_mean():
    spec = ProcessSpec("iid", p=3)
    panel = simulate(spec, 50_000, RNG.derive("iid-mean"))
    assert np.all(np.abs(panel.data.mean(axis=0)) < 4.0 / math.sqrt(panel.n))


def test_linear_degenerate_lag_equals_innovations():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=0, h=0)
    panel = simulate(spec, 50, RNG.derive("deg"))
    assert np.array_equal(panel.data, panel.innovations.values)


def test_threshold_ar_reduces_to_ar1():
    # theta1 = theta2 = rho0 collapses the threshold map to rho0 * x
    rho0 = 0.6
    spec = ProcessSpec("threshold-ar", p=1, theta1=rho0, theta2=rho0)
    panel = simulate(spec, 100_000, RNG.derive("tar-ar1"))
    x = panel.data[:, 0]
    r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    se = math.sqrt((1.0 - rho0 ** 2) / panel.n)
    assert abs(r1 - rho0) < 3.0 * se


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------

def test_iid_coupling_touches_only_time_zero():
    spec = ProcessSpec("iid", p=4)
    x, xc = simulate_coupled(spec, 10, RNG.derive("iid-couple"))
    diff = np.abs(x.data - xc.data).sum(axis=1)
    assert diff[0] > 0
    assert np.all(diff[1:] == 0.0)


def test_linear_coupling_supported_on_lag_window():
    spec = ProcessSpec("linear", p=4, alpha=1.0, K=2, h=1, rho=0.5)
    x, xc = simulate_coupled(spec, 12, RNG.derive("lin-couple"))
    diff = np.abs(x.data - xc.data).sum(axis=1)
    assert np.all(diff[:3] > 0)          # rows 0..K feel the replaced innovation
    assert np.all(diff[3:] == 0.0)       # bit-exact agreement past the window


_LINEAR_SHAPES = dict(family=st.sampled_from(["iid", "linear"]), K=st.integers(0, 400),
                      n=st.integers(1, 600), p=st.integers(1, 5), h=st.integers(0, 3),
                      alpha=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.95),
                      seed=st.integers(0, 2 ** 32 - 1))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(**_LINEAR_SHAPES)
@example(family="linear", K=3, n=40, p=3, h=1, alpha=1.0, rho=0.5, seed=1)
def test_linear_coupling_agrees_bit_for_bit_past_the_lag_window(family, K, n, p, h,
                                                                alpha, rho, seed):
    # each panel row reads only its own K+1 innovations, so a row at a time
    # past K, which never sees eps_0, is the same bits in both panels
    spec = ProcessSpec(family, p=p, alpha=alpha, K=K, h=h, rho=rho)
    x, xc = simulate_coupled(spec, n, RngContract(seed))
    assert np.any(x.data[0] != xc.data[0])
    assert np.array_equal(_bits(x.data[spec.K + 1:]), _bits(xc.data[spec.K + 1:]))


def _direct_convolution(spec, eps, n):
    """X_t = sum_k c_k eps_{t-k}, then the mixer, for eps at times -K..n-1."""
    c, K = spec.lag_weights(), spec.K
    x = np.zeros((n, spec.p))
    for k in range(K + 1):
        x += c[k] * eps[K - k:K - k + n]
    return x @ spec.cross_mixer().T


@settings(max_examples=60, deadline=None)
@given(**_LINEAR_SHAPES)
@example(family="linear", K=200, n=300, p=4, h=2, alpha=0.5, rho=0.7, seed=3)
def test_linear_panel_matches_a_direct_convolution(family, K, n, p, h, alpha, rho, seed):
    spec = ProcessSpec(family, p=p, alpha=alpha, K=K, h=h, rho=rho)
    panel = simulate(spec, n, RngContract(seed))
    eps = panel.innovations.values
    scale = (np.sum(spec.lag_weights()) * np.max(np.abs(eps))
             * np.max(np.sum(np.abs(spec.cross_mixer()), axis=1)))
    ref = _direct_convolution(spec, eps, n)
    assert np.max(np.abs(panel.data - ref)) <= 1e-13 * scale


def test_threshold_ar_coupling_decays_geometrically():
    theta = 0.5
    spec = ProcessSpec("threshold-ar", p=2, theta1=theta, theta2=theta, burn_in=64)
    acc = np.zeros(30)
    R = 10_000
    base = RNG.derive("tar-couple")
    for r in range(R):
        x, xc = simulate_coupled(spec, 31, base.derive("rep", r))
        acc += np.max(np.abs(x.data - xc.data), axis=1)[1:]
    slope = fit_loglog_slope(np.exp(np.arange(1, 31)), acc / R)  # log-linear fit in i
    assert abs(slope - math.log(theta)) < 0.1


# ---------------------------------------------------------------------------
# m-dependent approximation
# ---------------------------------------------------------------------------

def test_mdep_identity_cases():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=4, h=1, rho=0.3)
    panel = simulate(spec, 20, RNG.derive("mdep-id"))
    full = m_dependent_approx(spec, panel.innovations, 4)
    assert np.array_equal(full.data, panel.data)          # m >= K keeps everything
    beyond = m_dependent_approx(spec, panel.innovations, 9)
    assert np.array_equal(beyond.data, panel.data)

    zero = m_dependent_approx(spec, panel.innovations, 0)
    manual = panel.innovations.values[4:] @ (spec.lag_weights()[0] * spec.cross_mixer()).T
    assert np.allclose(zero.data, manual, rtol=0, atol=1e-15)

    iid_spec = ProcessSpec("iid", p=3)
    iid_panel = simulate(iid_spec, 15, RNG.derive("mdep-iid"))
    for m in (0, 1, 7):
        assert np.array_equal(
            m_dependent_approx(iid_spec, iid_panel.innovations, m).data,
            iid_panel.data)


def test_mdep_requires_innovations():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=3)
    with pytest.raises(ValidationError, match="innovation record"):
        m_dependent_approx(spec, None, 2)
    tar = ProcessSpec("threshold-ar", p=1, burn_in=8)
    with pytest.raises(ValidationError, match="iid and linear only"):
        m_dependent_approx(tar, simulate(tar, 5, RNG.derive("mdep-tar")).innovations, 2)


def test_mdep_linear_l2_error_matches_tail_sum():
    # || X_ij - X_{ij,m} ||_2 = sd(eps) * sqrt(sum_{k>m} ||A_k[j,:]||^2)
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=12, h=1, rho=0.5)
    m = 3
    c = spec.lag_weights()
    B = spec.cross_mixer()
    tail = np.sqrt(np.sum([(c[k] ** 2) * np.linalg.norm(B, axis=1) ** 2
                           for k in range(m + 1, 13)], axis=0))
    R = 4000
    base = RNG.derive("mdep-l2")
    sq = np.zeros(2)
    for r in range(R):
        panel = simulate(spec, 1, base.derive("rep", r))
        approx = m_dependent_approx(spec, panel.innovations, m)
        sq += (panel.data[0] - approx.data[0]) ** 2
    mc = np.sqrt(sq / R)
    se = mc / math.sqrt(2.0 * R)  # delta-method SE for a Gaussian second moment
    assert np.all(np.abs(mc - tail) < 3.0 * se)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["iid", "linear"]), K=st.integers(0, 400),
       n=st.integers(1, 600), p=st.integers(1, 4), h=st.integers(0, 2),
       alpha=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.95),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_lag_sum_weights_match_the_panel_path(family, K, n, p, h, alpha, rho, seed, data):
    # (D @ eps) @ B.T is S_n at first_lag = 0 and S_n - S_{n,m} at first_lag = m + 1
    spec = ProcessSpec(family, p=p, alpha=alpha, K=K, h=h, rho=rho)
    m = data.draw(st.integers(0, K + 2), label="m")
    panel = simulate(spec, n, RngContract(seed))
    eps, B = panel.innovations.values, spec.cross_mixer()
    s_full = panel.data.sum(axis=0)
    gap = s_full - m_dependent_approx(spec, panel.innovations, m).data.sum(axis=0)
    tol = 1e-12 * np.max(np.sum(np.abs(panel.data), axis=0))
    assert np.max(np.abs((lag_sum_weights(spec, n, 0) @ eps) @ B.T - s_full)) <= tol
    assert np.max(np.abs((lag_sum_weights(spec, n, m + 1) @ eps) @ B.T - gap)) <= tol


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["iid", "linear", "threshold-ar"]), K=st.integers(0, 400),
       n=st.integers(1, 600), p=st.integers(1, 4), h=st.integers(0, 2),
       alpha=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.95),
       theta=st.floats(-0.95, 0.95), burn_in=st.integers(0, 64),
       law=st.sampled_from([InnovationLaw.gaussian(), InnovationLaw.student_t(3.0),
                            InnovationLaw.symmetric_pareto(4.0, body="shell")]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(family="linear", K=30, n=50, p=3, h=1, alpha=1.0, rho=0.5, theta=0.0,
         burn_in=0, law=InnovationLaw.gaussian(), seed=1)
@example(family="threshold-ar", K=0, n=40, p=2, h=0, alpha=1.0, rho=0.0, theta=0.6,
         burn_in=16, law=InnovationLaw.student_t(3.0), seed=2)
def test_column_sums_match_the_simulated_panel(family, K, n, p, h, alpha, rho, theta,
                                               burn_in, law, seed):
    spec = ProcessSpec(family, p=p, innovation=law, alpha=alpha, K=K, h=h, rho=rho,
                       theta1=theta, theta2=-theta / 2, burn_in=burn_in)
    panel = simulate(spec, n, RngContract(seed))
    s = column_sums(spec, n, RngContract(seed))
    assert s.shape == (p,)
    if family == "threshold-ar":
        # no weight form: the sum of the very panel, bit for bit
        assert np.array_equal(s, panel.data.sum(axis=0))
    else:
        tol = 1e-12 * np.max(np.sum(np.abs(panel.data), axis=0))
        assert np.max(np.abs(s - panel.data.sum(axis=0))) <= tol


@pytest.mark.parametrize("family", ["iid", "linear", "threshold-ar"])
def test_column_sums_reject_an_empty_panel(family):
    with pytest.raises(ValidationError, match="n must be >= 1, got 0"):
        column_sums(ProcessSpec(family, p=2), 0, RNG)


@settings(max_examples=30, deadline=None)
@given(p=st.integers(1, 4), K=st.integers(0, 60), h=st.integers(0, 3),
       alpha=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.95),
       law=st.sampled_from([InnovationLaw.gaussian(), InnovationLaw.student_t(9.0)]),
       n=st.integers(1, 50), seed=st.integers(0, 2 ** 32 - 1))
def test_iid_is_the_linear_process_at_lag_zero(p, K, h, alpha, rho, law, n, seed):
    from hdts.depmeasure import closed_form_profile
    from hdts.longrun import autocovariance, true_sigma
    iid = ProcessSpec("iid", p=p, innovation=law, alpha=alpha, K=K, h=h, rho=rho)
    lin = ProcessSpec("linear", p=p, innovation=law, alpha=alpha, K=0, h=0, rho=rho)
    assert iid == ProcessSpec("iid", p=p, innovation=law, alpha=alpha, rho=rho)
    assert np.array_equal(simulate(iid, n, RngContract(seed)).data,
                          simulate(lin, n, RngContract(seed)).data)
    for a, b in zip(simulate_coupled(iid, n, RngContract(seed)),
                    simulate_coupled(lin, n, RngContract(seed))):
        assert np.array_equal(a.data, b.data)
    assert np.array_equal(true_sigma(iid), true_sigma(lin))
    for k in (0, 1, -2):
        assert np.array_equal(autocovariance(iid, k), autocovariance(lin, k))
    prof_iid, prof_lin = (closed_form_profile(s, 8.0, 1.5).to_json_dict() for s in (iid, lin))
    assert json.dumps(prof_iid) == json.dumps(prof_lin)


@pytest.mark.parametrize("first_lag", [0, 129, 513, 1501])
def test_lag_sum_weights_keep_their_digits_in_the_tail(first_lag):
    # each weight against a correctly rounded sum of its own segment
    spec = ProcessSpec("linear", p=1, alpha=2.0, K=2000)
    K, n = spec.K, 4096
    c = spec.lag_weights().tolist()
    D = lag_sum_weights(spec, n, first_lag)
    segments = {}
    worst = 0.0
    for t, d in zip(range(-K, n), D):
        lo, hi = max(first_lag, -t), min(K, n - 1 - t) + 1
        if hi > lo:
            ref = segments.setdefault((lo, hi), math.fsum(c[lo:hi]))
            worst = max(worst, abs(d - ref) / abs(ref))
        else:
            assert d == 0.0
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# stationarity proxy and heavy tails
# ---------------------------------------------------------------------------

def test_linear_autocovariance_stable_across_windows():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=30, h=1, rho=0.5)
    panel = simulate(spec, 40_000, RNG.derive("stationarity"))
    half = panel.n // 2

    def acov(x, k):
        return float(np.mean(x[:-k or None] * x[k:] if k else x * x))

    for k in (0, 1, 3):
        for j in range(2):
            a = acov(panel.data[:half, j], k)
            b = acov(panel.data[half:, j], k)
            # each window mean has MC error ~ sd/sqrt(half); allow 5 combined
            scale = np.std(panel.data[:, j] ** 2) / math.sqrt(half)
            assert abs(a - b) < 5.0 * math.sqrt(2.0) * scale


@pytest.mark.parametrize("body", ["uniform", "shell"])
def test_symmetric_pareto_tail_matches_law(body):
    law = InnovationLaw.symmetric_pareto(2.5, body=body)
    draws = law.sample(RNG.derive(f"pareto-{body}").generator(), 10 ** 6)
    assert abs(draws.mean()) < 5e-3
    u = 2.0 * law.u0
    target = u ** -2.5 * math.log(u) ** -2.0
    emp = float(np.mean(draws >= u))
    se = math.sqrt(target * (1.0 - target) / draws.size)
    assert abs(emp - target) < 3.0 * se


@pytest.mark.parametrize("body", ["uniform", "shell"])
def test_symmetric_pareto_unit_variance_by_quadrature(body):
    # integrate the sampler's own inverse CDF Q over the tail mass v in
    # (0, S(u0)]; independent of the integration-by-parts route used to
    # size the body.  In s = -log v the whole tail, out to v = 0, is one
    # convergent integral of Q(e^-s)^2 e^-s over [-log S(u0), inf).
    from scipy import integrate as spi
    from hdts.model import _pareto_invert_survival, _pareto_survival
    law = InnovationLaw.symmetric_pareto(2.5, body=body)
    s0 = float(_pareto_survival(law.u0, law.tail_index))

    def tail_integrand(s):
        v = math.exp(-s)
        return _pareto_invert_survival(np.array([v]), law.tail_index, law.u0)[0] ** 2 * v

    tail2, _ = spi.quad(tail_integrand, -math.log(s0), np.inf, limit=200)
    if body == "uniform":
        a = law.body_halfwidth()
        body2 = (1.0 - 2.0 * s0) * a ** 2 / 3.0
    else:
        m = law.body_mass()
        lo = 0.8 * law.u0
        body2 = m * (law.u0 ** 3 - lo ** 3) / (3.0 * (law.u0 - lo))
    assert 2.0 * tail2 + body2 == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("tail_index", [2.05, 2.5, 4.0, 8.0])
def test_pareto_inverse_survival_exact_down_to_tiny_tail_mass(tail_index):
    from hdts.model import _pareto_invert_survival, _pareto_survival
    u0 = math.e ** 2
    s = np.logspace(-300, math.log10(float(_pareto_survival(u0, tail_index))), 301)
    u = _pareto_invert_survival(s, tail_index, u0)
    assert np.all(np.abs(_pareto_survival(u, tail_index) / s - 1.0) < 1e-12)
    at_zero = _pareto_invert_survival(np.array([0.0]), tail_index, u0)
    assert np.all(np.isfinite(at_zero)) and np.all(at_zero >= u0)


def test_symmetric_pareto_guards():
    with pytest.raises(ValidationError, match="tail index"):
        InnovationLaw.symmetric_pareto(2.0)
    with pytest.raises(ValidationError, match="u0"):
        InnovationLaw.symmetric_pareto(4.0, u0=1.0)
    with pytest.raises(ValidationError, match="infeasible|second moment"):
        InnovationLaw.symmetric_pareto(2.05, u0=1.5)
    law = InnovationLaw.symmetric_pareto(4.0)
    assert law.admits_moment(4.0) and not law.admits_moment(4.01)
    assert InnovationLaw.student_t(5.0).admits_moment(4.9)
    assert not InnovationLaw.student_t(5.0).admits_moment(5.0)


def test_panel_rejects_non_finite():
    from hdts.errors import NumericalError
    from hdts.model import Panel
    with pytest.raises(NumericalError):
        Panel.from_data(np.array([[1.0, np.nan]]))
