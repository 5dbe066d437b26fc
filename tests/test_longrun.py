import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdts.errors import BoundaryError, NumericalError, ValidationError
from hdts.depmeasure import closed_form_profile
from hdts.longrun import (LongRunEstimate, _block_sums, autocovariance, default_block_length,
                          f_alpha_factor, plan_blocks, sigma_M_target, sigma_hat,
                          sigma_tilde, theoretical_rate, true_sigma, v_of_M)
from hdts.model import Panel, ProcessSpec, simulate
from hdts.rng import RngContract

RNG = RngContract(40)


# ---------------------------------------------------------------------------
# block plans
# ---------------------------------------------------------------------------

def test_plan_examples():
    plan = plan_blocks(10, 3)
    assert (plan.w, plan.unused) == (3, 1)
    assert plan_blocks(8, 8).w == 1
    assert plan_blocks(10 ** 4, 21).w == 476
    assert default_block_length(10 ** 4) == 21
    assert default_block_length(512) == 8  # cube-perfect n
    for bad_M in (0, 11):
        with pytest.raises(ValidationError):
            plan_blocks(10, bad_M)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def test_sigma_hat_degenerate_cases():
    zeros = Panel.from_data(np.zeros((12, 3)))
    est = sigma_hat(zeros, plan_blocks(12, 4))
    assert np.all(est.sigma == 0.0)

    panel = simulate(ProcessSpec("iid", p=3), 8, RNG.derive("rank1"))
    est = sigma_hat(panel, plan_blocks(8, 8))
    s = panel.data.sum(axis=0)
    assert np.allclose(est.sigma, np.outer(s, s) / 8.0, atol=1e-14)
    assert np.linalg.matrix_rank(est.sigma) <= 1


def test_sigma_hat_iid_expectation():
    panel = simulate(ProcessSpec("iid", p=3), 100_000, RNG.derive("iid-exp"))
    plan = plan_blocks(panel.n, 10)
    est = sigma_hat(panel, plan)
    # entrywise sd: sqrt(2/w) on the diagonal, sqrt(1/w) off it
    w = plan.w
    band = 4.0 * np.where(np.eye(3, dtype=bool), math.sqrt(2.0 / w),
                          math.sqrt(1.0 / w))
    assert np.all(np.abs(est.sigma - np.eye(3)) < band)


def test_sigma_tilde_centering():
    const = Panel.from_data(np.tile([2.0, -1.0], (20, 1)))
    est = sigma_tilde(const, plan_blocks(20, 4))
    assert np.allclose(est.sigma, 0.0, atol=1e-12)

    panel = simulate(ProcessSpec("linear", p=3, alpha=1.0, K=5, h=1, rho=0.4),
                     200, RNG.derive("shift"))
    plan = plan_blocks(200, 7)
    base = sigma_tilde(panel, plan).sigma
    shifted = Panel.from_data(panel.data + np.array([5.0, -3.0, 11.0]))
    assert np.allclose(sigma_tilde(shifted, plan).sigma, base, atol=1e-10)


def test_hat_minus_tilde_identity_on_random_panels():
    gen = RNG.derive("identity").generator()
    for trial in range(20):
        n = int(gen.integers(10, 200))
        p = int(gen.integers(1, 6))
        M = int(gen.integers(1, n + 1))
        panel = Panel.from_data(gen.standard_normal((n, p)) * 3.0 + 1.0)
        plan = plan_blocks(n, M)
        xbar = panel.data[:plan.used].mean(axis=0)
        lhs = sigma_hat(panel, plan).sigma - sigma_tilde(panel, plan).sigma
        assert np.max(np.abs(lhs - M * np.outer(xbar, xbar))) < 1e-10


def test_estimates_are_psd():
    gen = RNG.derive("psd").generator()
    for trial in range(10):
        panel = Panel.from_data(gen.standard_normal((150, 4)) * 10.0)
        for est in (sigma_hat(panel, plan_blocks(150, 6)),
                    sigma_tilde(panel, plan_blocks(150, 6))):
            eig = np.linalg.eigvalsh(est.sigma)
            assert eig.min() >= -1e-10 * np.trace(est.sigma)
            assert np.allclose(est.diag_scale ** 2, np.diag(est.sigma))


def test_plan_mismatch_errors():
    panel = simulate(ProcessSpec("iid", p=2), 30, RNG.derive("mismatch"))
    with pytest.raises(ValidationError, match="plan covers"):
        sigma_hat(panel, plan_blocks(20, 5))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(n_M=st.integers(2, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       p=st.integers(1, 7), S=st.integers(1, 5), huge=st.one_of(st.none(), st.integers(0, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_M=(40, 40), p=3, S=4, huge=None, seed=0)     # w = 1
@example(n_M=(43, 5), p=2, S=3, huge=None, seed=1)      # 3 unused rows
@example(n_M=(7, 7), p=1, S=2, huge=1, seed=2)          # w = 1, overflowing block sums
@example(n_M=(9, 1), p=4, S=3, huge=0, seed=3)          # M = 1, overflowing centring
def test_run_estimate_at_s_is_the_panel_estimate_bit_for_bit(n_M, p, S, huge, seed):
    n, plan = n_M[0], plan_blocks(*n_M)
    gen = RngContract(seed).derive("run-estimate").generator()
    data = gen.standard_normal((S, n, p)) * gen.uniform(0.1, 10.0, p) + gen.standard_normal(p)
    bad = huge is not None and huge < S
    if bad:
        # values in [1e308, 1.7e308]: any two of them sum past the float range
        data[huge, :, p - 1] = 1e308 * (1.0 + 0.7 * gen.uniform(size=n))
    sums, abs_max = _block_sums(data, plan)
    runs = (LongRunEstimate(plan=plan, block_sums=sums, abs_max=abs_max),  # does not raise
            LongRunEstimate.centred(plan, sums, abs_max))
    for s in range(S):
        panel = Panel(data[s])
        for run, alone in zip(runs, (sigma_hat(panel, plan), sigma_tilde(panel, plan))):
            got = run[s]
            for field in ("block_sums", "diag", "abs_max", "noise_floor"):
                assert _same_bits(getattr(got, field), getattr(alone, field)), field
            if bad and s == huge:
                for est in (got, alone, run):
                    with pytest.raises(NumericalError, match="not finite"):
                        est.sigma
            else:
                assert _same_bits(got.sigma, alone.sigma)


# ---------------------------------------------------------------------------
# closed-form targets
# ---------------------------------------------------------------------------

def test_true_sigma_examples():
    assert np.allclose(true_sigma(ProcessSpec("iid", p=4)), np.eye(4))
    assert np.allclose(true_sigma(ProcessSpec("linear", p=3, alpha=1.0, K=0)),
                       np.eye(3))
    # A_0 = Id, A_1 = 0.5 Id comes from alpha = 0 in the (k+1)^-(alpha+1) shape
    spec = ProcessSpec("linear", p=2, alpha=0.0, K=1, h=0)
    assert np.allclose(true_sigma(spec), 2.25 * np.eye(2))
    with pytest.raises(ValidationError, match="closed-form"):
        true_sigma(ProcessSpec("threshold-ar", p=2))


def test_sigma_M_examples_and_brute_force():
    iid = ProcessSpec("iid", p=3)
    for M in (1, 5, 40):
        assert np.allclose(sigma_M_target(iid, M), np.eye(3))
    spec = ProcessSpec("linear", p=2, alpha=0.0, K=1, h=0)
    got = sigma_M_target(spec, 10)
    want = autocovariance(spec, 0) + 0.9 * (autocovariance(spec, 1)
                                            + autocovariance(spec, 1).T)
    assert np.allclose(got, want)
    # brute force from the coefficient matrices
    A = [spec.lag_weights()[k] * spec.cross_mixer() for k in (0, 1)]
    gamma = {}
    for k in (-1, 0, 1):
        g = np.zeros((2, 2))
        for j in range(2):
            if 0 <= j + k <= 1:
                g += A[j] @ A[j + k].T
        gamma[k] = g
    brute = sum((1.0 - abs(i) / 10.0) * gamma[i] for i in (-1, 0, 1))
    assert np.allclose(got, brute)


def test_sigma_M_is_expectation_of_sigma_hat():
    spec = ProcessSpec("linear", p=2, alpha=1.0, K=8, h=1, rho=0.5)
    M, n, R = 6, 240, 3000
    target = sigma_M_target(spec, M)
    plan = plan_blocks(n, M)
    acc = np.zeros((2, 2))
    acc2 = np.zeros((2, 2))
    for r in range(R):
        s = sigma_hat(simulate(spec, n, RNG.derive("unbias", r)), plan).sigma
        acc += s
        acc2 += s * s
    mean = acc / R
    se = np.sqrt(np.maximum(acc2 / R - mean ** 2, 0.0) / R)
    assert np.all(np.abs(mean - target) < 4.0 * se)


# ---------------------------------------------------------------------------
# theoretical rates
# ---------------------------------------------------------------------------

def test_v_of_M_branches():
    assert v_of_M(2.0, 100) == pytest.approx(0.01)
    assert v_of_M(1.0, math.e ** 2) == pytest.approx(2.0 / math.e ** 2)
    assert v_of_M(0.5, 16) == pytest.approx(0.25)
    with pytest.raises(BoundaryError):
        v_of_M(0.0, 10)


def test_f_alpha_branches():
    assert f_alpha_factor(8.0, 2.0, 100, 50) == pytest.approx(5000.0)
    assert f_alpha_factor(8.0, 0.5, 100, 50) == pytest.approx(
        100 * 50 ** (4.0 - 2.0))
    assert f_alpha_factor(8.0, 0.1, 100, 50) == pytest.approx(
        100 ** (2.0 - 0.4) * 50 ** (4.0 - 0.4))
    with pytest.raises(BoundaryError):
        f_alpha_factor(8.0, 1.0 - 2.0 / 8.0, 100, 50)


def test_theoretical_rate_composition():
    spec = ProcessSpec("linear", p=5, alpha=2.0, K=100, h=0)
    prof = closed_form_profile(spec, 8.0, 2.0)
    info = theoretical_rate(prof, 4096)
    assert info.M == 16 and info.w == 256
    assert info.r_n == pytest.approx(info.variance_term + info.bias_term)
    aux = prof.aux
    assert info.bias_term == pytest.approx(aux.psi_2_0 * aux.psi_2_a / 16.0)
    w, M, n, p = 256, 16, 4096, 5
    want_var = max(
        p ** 0.25 * (w * M) ** 0.25 * prof.Upsilon ** 2,
        math.sqrt(w) * M * aux.psi_4_a ** 2 * math.sqrt(math.log(p)),
        math.sqrt(w) * M * prof.Psi ** 2) / n
    assert info.variance_term == pytest.approx(want_var)
    # sub-exponential branch with nu = 1/2 (gamma = 1/2)
    prof_nu = closed_form_profile(spec, 8.0, 2.0, nu=0.5)
    info2 = theoretical_rate(prof_nu, 4096, nu=0.5)
    want = math.sqrt(256) * 16 * prof_nu.Phi_0 ** 2 * math.log(5) ** 2 / 4096
    assert info2.variance_term == pytest.approx(want)
    assert info2.regime == "sub-exponential"


def test_bias_tracks_v_branch():
    # alpha > 1: doubling M should halve the Bartlett bias against Sigma
    spec = ProcessSpec("linear", p=2, alpha=2.0, K=400, h=0)
    sig = true_sigma(spec)
    errs = [np.max(np.abs(sigma_M_target(spec, M) - sig)) for M in (20, 40)]
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)
