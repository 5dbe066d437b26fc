import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdts import model
from hdts.errors import ValidationError
from hdts.model import (InnovationLaw, ProcessSpec, _draw_innovations, _lag_sums, column_sums,
                        lag_sum_weights, simulate, simulate_coupled)
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
    with pytest.raises(ValidationError, match="n must be >= 1"):
        simulate_coupled(ProcessSpec("threshold-ar", p=1), 0, [RNG])


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
    assert np.array_equal(panel.data, _draw_innovations(spec, 50, RNG.derive("deg")))


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
    x, xc = next(simulate_coupled(spec, 10, [RNG.derive("iid-couple")]))
    diff = np.abs(x.data - xc.data).sum(axis=1)
    assert diff[0] > 0
    assert np.all(diff[1:] == 0.0)


def test_linear_coupling_supported_on_lag_window():
    spec = ProcessSpec("linear", p=4, alpha=1.0, K=2, h=1, rho=0.5)
    x, xc = next(simulate_coupled(spec, 12, [RNG.derive("lin-couple")]))
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
    x, xc = next(simulate_coupled(spec, n, [RngContract(seed)]))
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
    eps = _draw_innovations(spec, n, RngContract(seed))
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
    for x, xc in simulate_coupled(spec, 31, [base.derive("rep", r) for r in range(R)]):
        acc += np.max(np.abs(x.data - xc.data), axis=1)[1:]
    slope = fit_loglog_slope(np.exp(np.arange(1, 31)), acc / R)  # log-linear fit in i
    assert abs(slope - math.log(theta)) < 0.1


def _plain_tar_path(eps, theta1, theta2):
    """The threshold recursion stepped one time at a time from the zero state."""
    out = np.empty_like(eps)
    x = np.zeros(eps.shape[1])
    for t in range(eps.shape[0]):
        x = theta1 * np.maximum(x, 0.0) + theta2 * np.minimum(x, 0.0) + eps[t]
        out[t] = x
    return out


# the shell-pareto law is 0 with probability 0.98, so its zero runs make
# segments that start from zero miss the true state and need repair
_THETA = st.one_of(st.just(0.0), st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True))
_TAR_SHAPES = dict(
    theta1=_THETA, theta2=_THETA, p=st.integers(1, 5),
    law=st.sampled_from([InnovationLaw.gaussian(), InnovationLaw.student_t(3.0),
                         InnovationLaw.symmetric_pareto(4.0, body="shell")]),
    seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4000), burn_in=st.integers(0, 1000), **_TAR_SHAPES)
@example(n=500, burn_in=1024, theta1=0.3, theta2=0.3, p=5,
         law=InnovationLaw.gaussian(), seed=1)                          # coverage-tar shape
@example(n=300, burn_in=10, theta1=0.0, theta2=0.0, p=3,
         law=InnovationLaw.student_t(3.0), seed=2)                      # rho = 0: L = 1
@example(n=1500, burn_in=100, theta1=0.5, theta2=-0.3, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # repairs
@example(n=2000, burn_in=0, theta1=0.98, theta2=-0.5, p=2,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=3)  # G < 3
@example(n=1500, burn_in=100, theta1=-0.4, theta2=0.6, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # min pick, repairs
@example(n=800, burn_in=50, theta1=0.2, theta2=0.7, p=2,
         law=InnovationLaw.student_t(3.0), seed=4)                      # min pick
@example(n=1500, burn_in=100, theta1=0.5, theta2=0.5, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # one slope, repairs
def test_threshold_ar_path_matches_a_plain_step_loop(n, burn_in, theta1, theta2, p, law,
                                                     seed):
    spec = ProcessSpec("threshold-ar", p=p, innovation=law, theta1=theta1, theta2=theta2,
                       burn_in=burn_in)
    panel = simulate(spec, n, RngContract(seed))
    ref = _plain_tar_path(_draw_innovations(spec, n, RngContract(seed)), theta1, theta2)[burn_in:]
    assert np.array_equal(_bits(panel.data), _bits(ref))


@pytest.mark.parametrize("theta1,theta2,T", [(0.3, 0.3, 600), (0.9, -0.5, 3000),
                                             (-0.6, 0.2, 1200)])
def test_threshold_ar_path_repairs_every_segment_after_an_impulse(theta1, theta2, T):
    # a unit impulse, then zeros: every segment but the first starts from zero
    # inside the zero run and stays at zero, while the true path decays (without
    # reaching zero at these T), so every later segment is re-run; the
    # mirrored impulse beside it makes a stack of two paths
    from hdts.model import _tar_paths
    eps = np.zeros((T, 3))
    eps[0] = [1.0, -1.0, 0.5]
    paths = _tar_paths([eps, -eps], 2, theta1, theta2, 0)
    for r, path in enumerate((eps, -eps)):
        assert np.array_equal(_bits(paths[:, r]), _bits(_plain_tar_path(path, theta1, theta2)))


# innovations at the edges of the step's rounding: signed zeros, the smallest
# subnormal, values whose products go subnormal, and long zero runs that decay
# a state through the subnormal range to zero
_EDGE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0])
_EDGE_SLOPES = st.sampled_from([0.0, 0.3, -0.3, 0.98, -0.98])


def _from_runs(runs, size):
    """size values: the (value, length) runs in turn, repeated until filled."""
    values = itertools.chain.from_iterable(itertools.repeat(v, k)
                                           for v, k in itertools.cycle(runs))
    return np.fromiter(values, float, size)


@settings(max_examples=80, deadline=None)
@given(theta1=_EDGE_SLOPES, theta2=_EDGE_SLOPES, T=st.integers(1, 800), p=st.integers(1, 3),
       S=st.integers(1, 4), skip=st.integers(0, 800),
       runs=st.lists(st.tuples(_EDGE_VALUES, st.integers(1, 1000)), min_size=1, max_size=8))
@example(theta1=-0.3, theta2=0.3, T=700, p=1, S=3, skip=100,                  # G >= 3, -0.0
         runs=[(1.0, 1), (0.0, 650), (-1.0, 1), (-0.0, 700), (-5e-324, 2), (1e-300, 3)])
@example(theta1=0.3, theta2=-0.3, T=700, p=2, S=2, skip=0,                    # G >= 3
         runs=[(-1.0, 1), (0.0, 900), (1e-300, 1), (0.0, 200), (5e-324, 1)])
@example(theta1=0.98, theta2=-0.3, T=500, p=2, S=4, skip=20,                  # G < 3, -0.0
         runs=[(-0.0, 5), (1e-300, 1), (0.0, 600), (-1.0, 1), (-0.0, 40)])
@example(theta1=-0.98, theta2=0.0, T=300, p=3, S=1, skip=299,                 # G < 3
         runs=[(1.0, 2), (0.0, 300), (-5e-324, 1)])
@example(theta1=0.3, theta2=0.3, T=700, p=2, S=2, skip=50,                    # one slope
         runs=[(1.0, 1), (0.0, 900), (-1e-300, 1), (0.0, 300), (-5e-324, 1)])
@example(theta1=0.0, theta2=0.0, T=40, p=2, S=3, skip=0,                      # one slope, -0.0
         runs=[(-1.0, 1), (-0.0, 3), (0.0, 2), (5e-324, 1)])
def test_threshold_ar_kernel_matches_a_plain_step_loop_on_edge_innovations(
        theta1, theta2, T, p, S, skip, runs):
    # a stack that holds -0.0 must step the clamps: the pick could give a
    # zero of the other sign there
    from unittest import mock
    eps = _from_runs(runs, S * T * p).reshape(S, T, p)
    skip = min(skip, T - 1)
    kernel, clamps = model._tar_steps, set()

    def spy(*args, clamp, **kwargs):
        clamps.add(clamp)
        return kernel(*args, clamp=clamp, **kwargs)

    with mock.patch.object(model, "_tar_steps", spy):
        paths = model._tar_paths(iter(eps), S, theta1, theta2, skip)
    assert clamps == {bool(np.any(np.signbit(eps) & (eps == 0.0)))}
    for r in range(S):
        ref = _plain_tar_path(eps[r], theta1, theta2)[skip:]
        assert np.array_equal(_bits(paths[:, r]), _bits(ref))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 600), burn_in=st.integers(0, 1000), cap=st.integers(1, 6),
       extra=st.integers(0, 7), **_TAR_SHAPES)
@example(n=500, burn_in=1024, cap=4, extra=5, theta1=0.3, theta2=0.3, p=5,
         law=InnovationLaw.gaussian(), seed=1)                          # coverage-tar shape
@example(n=300, burn_in=10, cap=3, extra=1, theta1=0.0, theta2=0.0, p=2,
         law=InnovationLaw.student_t(3.0), seed=2)                      # rho = 0: L = 1
@example(n=600, burn_in=400, cap=5, extra=2, theta1=0.5, theta2=-0.3, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # repairs
@example(n=200, burn_in=0, cap=2, extra=1, theta1=0.98, theta2=-0.5, p=2,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=3)  # G < 3
@example(n=600, burn_in=400, cap=5, extra=2, theta1=-0.4, theta2=0.6, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # min pick, repairs
@example(n=600, burn_in=400, cap=5, extra=2, theta1=0.5, theta2=0.5, p=3,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=5)  # one slope, repairs
def test_simulate_many_equals_simulate_path_by_path(n, burn_in, cap, extra, theta1, theta2,
                                                    p, law, seed):
    # the byte budget is set to hold exactly cap paths, so the streams fill
    # whole stacks of cap and, unless extra is a multiple of cap, one partial one
    from unittest import mock
    from hdts import model
    spec = ProcessSpec("threshold-ar", p=p, innovation=law, theta1=theta1, theta2=theta2,
                       burn_in=burn_in)
    streams = [RngContract(seed).derive("many", r) for r in range(cap + extra)]
    kernel, sizes = model._tar_paths, []

    def spy(values, S, *args):
        sizes.append(S)
        return kernel(values, S, *args)

    with mock.patch.object(model, "STACK_BYTES", cap * 8 * p * (n + burn_in)), \
            mock.patch.object(model, "_tar_paths", spy):
        panels = list(model.simulate_many(spec, n, streams))
    full, part = divmod(cap + extra, cap)
    assert sizes == [cap] * full + ([part] if part else [])
    assert len(panels) == len(streams)
    for panel, rng in zip(panels, streams):
        one = simulate(spec, n, rng)
        assert np.array_equal(_bits(panel.data), _bits(one.data))


@pytest.mark.parametrize("family", ["iid", "linear"])
def test_simulate_many_builds_linear_panels_one_by_one(family):
    from hdts.model import simulate_many
    spec = ProcessSpec(family, p=3, K=30, h=1, rho=0.4)
    streams = [RNG.derive("many-lin", r) for r in range(3)]
    for panel, rng in zip(simulate_many(spec, 50, streams), streams):
        one = simulate(spec, 50, rng)
        assert np.array_equal(_bits(panel.data), _bits(one.data))
    with pytest.raises(ValidationError, match="n must be >= 1"):
        simulate_many(spec, 0, streams)


@pytest.mark.parametrize("spec", [
    ProcessSpec("linear", p=20, K=200, h=1, rho=0.5),
    # coverage-tar's shape: 8 p (n + burn_in) bytes a path, so one stack of 8
    ProcessSpec("threshold-ar", p=20, theta1=0.3, theta2=0.3, burn_in=1024),
], ids=["linear", "threshold-ar"])
@pytest.mark.parametrize("many", [False, True], ids=["simulate", "simulate_many"])
def test_a_simulated_panel_holds_only_its_data(spec, many):
    import tracemalloc
    from hdts import model
    n, streams = 500, [RNG.derive("held", r) for r in range(8 if many else 1)]
    if many and spec.family == "threshold-ar":
        assert model.STACK_BYTES // (8 * spec.p * (n + spec.burn_in)) == 8
    draw = (lambda: list(model.simulate_many(spec, n, streams))) if many else \
        (lambda: [simulate(spec, n, streams[0])])
    draw()   # first-call allocations (BLAS buffers, caches) are not the panels'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        panels = draw()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(panels) == len(streams)
    assert held <= 1.1 * len(panels) * n * spec.p * 8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), **_TAR_SHAPES)
@example(n=600, theta1=0.5, theta2=-0.3, p=4,
         law=InnovationLaw.symmetric_pareto(4.0, body="shell"), seed=4)
def test_threshold_ar_coupling_agrees_bit_for_bit_on_a_suffix(n, theta1, theta2, p, law,
                                                              seed):
    # both panels share every innovation after time 0, so a coordinate whose
    # two paths hold the same bits at one time holds them at every later time
    spec = ProcessSpec("threshold-ar", p=p, innovation=law, theta1=theta1, theta2=theta2,
                       burn_in=0)
    rng = RngContract(seed)
    x, xc = next(simulate_coupled(spec, n, [rng]))
    same = _bits(x.data) == _bits(xc.data)
    assert np.all(same[1:] >= same[:-1])
    # time 0 is row 0 at burn_in 0; the copy's eps_0 is the coupling stream's draw
    eps0 = _draw_innovations(spec, n, rng)[0]
    eps0_c = spec.innovation.sample(rng.derive("coupling").generator(), (p,))
    assert np.array_equal(same[0], _bits(eps0) == _bits(eps0_c))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["iid", "linear", "threshold-ar"]), n=st.integers(1, 300),
       pairs=st.integers(1, 12), cap=st.integers(1, 5), K=st.integers(0, 30),
       h=st.integers(0, 2), burn_in=st.integers(0, 300), **_TAR_SHAPES)
@example(family="threshold-ar", n=31, pairs=7, cap=3, K=0, h=0, burn_in=64, theta1=0.5,
         theta2=0.5, p=2, law=InnovationLaw.gaussian(), seed=1)  # pairs split across stacks
@example(family="threshold-ar", n=200, pairs=5, cap=5, K=0, h=0, burn_in=100, theta1=0.5,
         theta2=-0.3, p=3, law=InnovationLaw.symmetric_pareto(4.0, body="shell"),
         seed=5)                                                    # repairs
@example(family="linear", n=40, pairs=4, cap=1, K=3, h=1, burn_in=0, theta1=0.0,
         theta2=0.0, p=3, law=InnovationLaw.student_t(3.0), seed=2)
def test_coupled_pairs_drawn_together_equal_pairs_drawn_alone(family, n, pairs, cap, K, h,
                                                               burn_in, theta1, theta2, p,
                                                               law, seed):
    # the byte budget holds cap paths, so at odd cap a stack ends between a
    # panel and its copy; threshold-AR pairs also equal the plain step loop
    # on the innovations with eps_0 redrawn from the coupling stream
    from unittest import mock
    spec = ProcessSpec(family, p=p, innovation=law, K=K, h=h, rho=0.5, theta1=theta1,
                       theta2=theta2, burn_in=burn_in)
    streams = [RngContract(seed).derive("pairs", r) for r in range(pairs)]
    with mock.patch.object(model, "STACK_BYTES", cap * 8 * p * (n + spec.burn_in)):
        together = list(simulate_coupled(spec, n, streams))
        alone = [next(simulate_coupled(spec, n, [s])) for s in streams]
    assert len(together) == pairs
    for pair, one, s in zip(together, alone, streams):
        for a, b in zip(pair, one):
            assert np.array_equal(_bits(a.data), _bits(b.data))
        if family == "threshold-ar":
            eps = _draw_innovations(spec, n, s)
            eps_c = eps.copy()
            eps_c[-n] = law.sample(s.derive("coupling").generator(), (p,))
            for panel, e in zip(pair, (eps, eps_c)):
                ref = _plain_tar_path(e, theta1, theta2)[burn_in:]
                assert np.array_equal(_bits(panel.data), _bits(ref))


# ---------------------------------------------------------------------------
# m-dependent approximation
# ---------------------------------------------------------------------------

def m_dependent_approx(spec, eps, m):
    """The reference X_{i,m} = E[X_i | eps_{i-m..i}], i = 0..n-1, from the
    innovations eps at times -K..n-1 of an iid or linear spec: the lag sum
    truncated at min(m, K), so the panel itself for iid (K = 0)."""
    g = spec.lag_weights()[:min(m, spec.K) + 1][::-1].copy()
    return _lag_sums(spec, eps[spec.K - (g.shape[0] - 1):], g, 1)


def test_mdep_identity_cases():
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=4, h=1, rho=0.3)
    panel = simulate(spec, 20, RNG.derive("mdep-id"))
    eps = _draw_innovations(spec, 20, RNG.derive("mdep-id"))
    full = m_dependent_approx(spec, eps, 4)
    assert np.array_equal(full, panel.data)               # m >= K keeps everything
    beyond = m_dependent_approx(spec, eps, 9)
    assert np.array_equal(beyond, panel.data)

    zero = m_dependent_approx(spec, eps, 0)
    manual = eps[4:] @ (spec.lag_weights()[0] * spec.cross_mixer()).T
    assert np.allclose(zero, manual, rtol=0, atol=1e-15)

    iid_spec = ProcessSpec("iid", p=3)
    iid_panel = simulate(iid_spec, 15, RNG.derive("mdep-iid"))
    iid_eps = _draw_innovations(iid_spec, 15, RNG.derive("mdep-iid"))
    for m in (0, 1, 7):
        assert np.array_equal(m_dependent_approx(iid_spec, iid_eps, m), iid_panel.data)


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
        approx = m_dependent_approx(spec, _draw_innovations(spec, 1, base.derive("rep", r)), m)
        sq += (panel.data[0] - approx[0]) ** 2
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
    eps, B = _draw_innovations(spec, n, RngContract(seed)), spec.cross_mixer()
    s_full = panel.data.sum(axis=0)
    gap = s_full - m_dependent_approx(spec, eps, m).sum(axis=0)
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
    s, = column_sums(spec, n, [RngContract(seed)])
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


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["iid", "linear", "threshold-ar"]), n=st.integers(1, 400),
       burn_in=st.integers(0, 400), cap=st.integers(1, 5), count=st.integers(1, 12),
       **_TAR_SHAPES)
@example(family="threshold-ar", n=300, burn_in=200, cap=4, count=9, theta1=0.5,
         theta2=-0.3, p=3, law=InnovationLaw.symmetric_pareto(4.0, body="shell"),
         seed=5)                                                         # repairs
def test_column_sums_over_streams_equal_one_stream_calls(family, n, burn_in, cap, count,
                                                         theta1, theta2, p, law, seed):
    # the byte budget holds exactly cap threshold-AR paths, so the streams
    # fill stacks of cap and, unless cap divides count, one partial stack
    from unittest import mock
    spec = ProcessSpec(family, p=p, innovation=law, K=burn_in // 10, h=1, rho=0.4,
                       theta1=theta1, theta2=theta2, burn_in=burn_in)
    streams = [RngContract(seed).derive("sums", r) for r in range(count)]
    with mock.patch.object(model, "STACK_BYTES", cap * 8 * p * (n + burn_in)):
        many = list(column_sums(spec, n, streams))
    alone = [next(column_sums(spec, n, [s])) for s in streams]
    assert len(many) == count
    for a, b in zip(many, alone):
        assert np.array_equal(_bits(a), _bits(b))


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
    for a, b in zip(next(simulate_coupled(iid, n, [RngContract(seed)])),
                    next(simulate_coupled(lin, n, [RngContract(seed)]))):
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
# coefficient arrays built once per spec
# ---------------------------------------------------------------------------

def _clear_coefficient_caches():
    for cached in (ProcessSpec.lag_weights, ProcessSpec.cross_mixer,
                   model.lag_sum_weights, model._panel_weights):
        cached.cache_clear()


def _coefficient_arrays(spec, n=50, first_lag=0):
    return {"lag_weights": spec.lag_weights(), "cross_mixer": spec.cross_mixer(),
            "lag_sum_weights": lag_sum_weights(spec, n, first_lag),
            "panel_weights": model._panel_weights(spec)}


@pytest.mark.parametrize("spec", [ProcessSpec("iid", p=3),
                                  ProcessSpec("linear", p=4, K=6, h=0),
                                  ProcessSpec("linear", p=4, K=6, h=2, rho=0.5)])
def test_coefficient_arrays_are_shared_and_read_only(spec):
    first = _coefficient_arrays(spec)
    for name, a in _coefficient_arrays(spec).items():
        assert a is first[name], name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def test_specs_or_calls_that_differ_never_share_a_coefficient_array():
    base = dict(family="linear", p=4, alpha=1.0, K=6, h=2, rho=0.5)
    spec = ProcessSpec(**base)
    arrays = _coefficient_arrays(spec)
    for key, value in (("p", 5), ("K", 7), ("h", 1), ("rho", 0.25), ("alpha", 1.5),
                       ("family", "iid")):
        for name, a in _coefficient_arrays(ProcessSpec(**{**base, key: value})).items():
            assert not np.shares_memory(a, arrays[name]), (key, name)
    D = [lag_sum_weights(spec, n, first_lag) for n, first_lag in ((50, 0), (51, 0), (50, 2))]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert not np.shares_memory(D[i], D[j])


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["iid", "linear"]), K=st.integers(0, 40),
       n=st.integers(1, 80), p=st.integers(1, 4), h=st.integers(0, 2),
       alpha=st.floats(0.0, 3.0), rho=st.floats(0.0, 0.95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_coefficient_arrays_change_no_bit(family, K, n, p, h, alpha, rho, seed):
    # every consumer of the shared arrays, with warm caches (some entries
    # for other specs) against the same call with every cache cleared first
    from hdts.experiments import ga_distance, mdep_rate_check
    spec = ProcessSpec(family, p=p, alpha=alpha, K=K, h=h, rho=rho)
    other = ProcessSpec("linear", p=p + 1, alpha=alpha + 0.5, K=K + 1, h=1, rho=0.3)
    rng = RngContract(seed)

    def outputs():
        return [*column_sums(spec, n, [rng.derive("sum", 0), rng.derive("sum", 1)]),
                simulate(spec, n, rng.derive("panel")).data,
                *(x.data for x in next(simulate_coupled(spec, n, [rng.derive("coupled")]))),
                mdep_rate_check(spec, 2.0, 1.0, [1, 2, 3], 2, rng, n=n).mc_norm,
                ga_distance(spec, n, 9, rng, n_perm=0).sample_stats]

    outputs()
    list(column_sums(other, n + 1, [rng]))
    warm = outputs()
    _clear_coefficient_caches()
    cold = outputs()
    for a, b in zip(warm, cold):
        assert a.tobytes() == b.tobytes()


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


@pytest.mark.parametrize("make, name", [
    (lambda: InnovationLaw.student_t(math.inf), "df"),
    (lambda: InnovationLaw.symmetric_pareto(math.inf), "tail index"),
    (lambda: InnovationLaw.symmetric_pareto(4.0, u0=math.inf), "u0"),
    (lambda: InnovationLaw.symmetric_pareto(math.inf, body="shell"), "tail index"),
], ids=["t-df=inf", "pareto-tail=inf", "pareto-u0=inf", "shell-tail=inf"])
def test_innovation_law_rejects_non_finite_parameters(make, name):
    with pytest.raises(ValidationError, match=name):
        make()


@pytest.mark.parametrize("u0, body", [(1e200, "uniform"), (1e120, "shell")],
                         ids=["tail-moment", "shell-moment"])
def test_symmetric_pareto_rejects_a_u0_whose_moments_overflow(u0, body):
    # u0 ** 2 (tail) overflows above about 1.3e154 and u0 ** 3 (shell) above 5.6e102
    with pytest.raises(ValidationError, match="u0 = .* too large"):
        InnovationLaw.symmetric_pareto(4.0, u0=u0, body=body)
    assert InnovationLaw.symmetric_pareto(4.0, u0=1e120).body_mass() == 1.0


def test_panel_rejects_non_finite():
    from hdts.errors import NumericalError
    from hdts.model import Panel
    with pytest.raises(NumericalError):
        Panel.from_data(np.array([[1.0, np.nan]]))
