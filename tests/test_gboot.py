import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from hdts.errors import AssumptionError, HdtsError, NumericalError, ValidationError
from hdts.gboot import (_checked_factors, _order_statistic, _quantile_se, bootstrap_quantile,
                        psd_sqrt, simultaneous_ci, simultaneous_cis)
from hdts.longrun import LongRunEstimate, plan_blocks, sigma_tilde
from hdts.model import InnovationLaw, Panel, ProcessSpec, simulate
from hdts.rng import RngContract

RNG = RngContract(50)
M_BLOCK = 10


def estimate_of_sums(Y) -> LongRunEstimate:
    return LongRunEstimate(plan=plan_blocks(M_BLOCK * Y.shape[0], M_BLOCK),
                           block_sums=Y, abs_max=np.max(np.abs(Y), axis=0))


def estimate_of(sigma) -> LongRunEstimate:
    # p blocks whose Gram matrix is M w sigma; the Cholesky factor (not the
    # symmetric root) makes a coordinate rescaling rescale columns of Y
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    return estimate_of_sums(math.sqrt(M_BLOCK * p) * np.linalg.cholesky(sigma).T)


# ---------------------------------------------------------------------------
# psd_sqrt
# ---------------------------------------------------------------------------

def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_reconstruction_and_clipping():
    gen = RNG.derive("psd").generator()
    R = gen.standard_normal((5, 5))
    A = R @ R.T
    S = psd_sqrt(A)
    assert np.max(np.abs(S @ S.T - A)) <= 1e-8 * (1.0 + np.max(np.abs(A)))
    # indefinite input: negative eigenvalues are clipped
    S = psd_sqrt(np.diag([2.0, -0.5, 1.0]))
    assert np.allclose(S @ S.T, np.diag([2.0, 0.0, 1.0]), atol=1e-12)


def test_psd_sqrt_input_guards():
    with pytest.raises(ValidationError, match="symmetric"):
        psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NumericalError, match="finite"):
        psd_sqrt(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError, match="square"):
        psd_sqrt(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# bootstrap quantile
# ---------------------------------------------------------------------------

def test_quantile_guards():
    est = estimate_of(np.eye(3))
    with pytest.raises(ValidationError, match="B >= 1000"):
        bootstrap_quantile(est, 0.95, 500, RNG)
    with pytest.raises(ValidationError, match="theta"):
        bootstrap_quantile(est, 1.2, 2000, RNG)
    Y = est.block_sums.copy()
    Y[:, 1] = 0.0
    degenerate = estimate_of_sums(Y)
    with pytest.raises(AssumptionError, match="min_j sigma_jj"):
        bootstrap_quantile(degenerate, 0.95, 2000, RNG)


def test_quantile_is_order_statistic_and_monotone():
    # at B = 1001 no theta * B below is an integer, so ceil and floor differ
    est = estimate_of(np.eye(5))
    for B in (2000, 1001):
        qs = {}
        for theta in (0.5, 0.8, 0.95, 0.99):
            bq = bootstrap_quantile(est, theta, B, RNG.derive("mono"))
            k = math.ceil(theta * B)
            assert bq.chi == np.sort(bq.draws)[k - 1]
            qs[theta] = bq.chi
        vals = [qs[t] for t in sorted(qs)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_scalar_case_matches_normal_quantile():
    est = estimate_of(np.array([[7.3]]))  # normalization cancels the scale
    bq = bootstrap_quantile(est, 0.9, 50_000, RNG.derive("scalar"))
    want = norm.ppf(0.95)
    assert abs(bq.chi - want) < 3.0 * bq.chi_se


def test_independent_coordinates_closed_form():
    p, theta = 10, 0.95
    bq = bootstrap_quantile(estimate_of(np.eye(p)), theta, 50_000,
                            RNG.derive("id10"))
    want = norm.ppf((1.0 + theta ** (1.0 / p)) / 2.0)
    assert abs(bq.chi - want) < 3.0 * bq.chi_se


def test_scale_equivariance_bit_exact_for_power_of_two():
    gen = RNG.derive("scale").generator()
    R5 = gen.standard_normal((5, 5))
    sigma = R5 @ R5.T + 5.0 * np.eye(5)
    a = bootstrap_quantile(estimate_of(sigma), 0.95, 2000, RngContract(3))
    b = bootstrap_quantile(estimate_of(4.0 * sigma), 0.95, 2000, RngContract(3))
    assert np.array_equal(a.draws, b.draws)
    assert a.chi == b.chi


def test_normalization_invariance_under_coordinate_rescaling():
    gen = RNG.derive("rescale").generator()
    R5 = gen.standard_normal((6, 6))
    sigma = R5 @ R5.T + 6.0 * np.eye(6)
    c = gen.uniform(0.2, 5.0, size=6)
    scaled = sigma * np.outer(c, c)
    a = bootstrap_quantile(estimate_of(sigma), 0.95, 2000, RngContract(9))
    b = bootstrap_quantile(estimate_of(scaled), 0.95, 2000, RngContract(9))
    assert abs(a.chi - b.chi) < 1e-10


def _chunked_draws(est, B, rng):
    """The draw loop written plainly: a fresh |eta @ F| per 1024-row chunk."""
    F = _checked_factors(est, 0.95, B)
    draws = []
    for start in range(0, B, 1024):
        gen = rng.derive("gboot-draws", start // 1024).generator()
        eta = gen.standard_normal((min(start + 1024, B) - start, F.shape[0]))
        draws.append(np.max(np.abs(eta @ F), axis=1))
    return np.concatenate(draws)


@settings(max_examples=30, deadline=None)
@given(w=st.integers(1, 300), d=st.integers(1, 300),
       B=st.sampled_from([1000, 1025, 2000, 2049]), seed=st.integers(0, 2 ** 32 - 1))
@example(w=41, d=41, B=2049, seed=0)    # shapes where tiled products change bits
@example(w=50, d=60, B=1025, seed=1)
@example(w=99, d=100, B=2000, seed=2)
@example(w=200, d=300, B=1000, seed=3)
@example(w=71, d=20, B=2049, seed=4)    # w > d: draws from the triangular factor
def test_draws_equal_the_plain_chunked_loop(w, d, B, seed):
    # B = 1025 and 2049 end in a 1-row chunk, 2000 in a partial one
    Y = RngContract(seed).derive("loop").generator().standard_normal((w, d))
    est = estimate_of_sums(Y)
    got = bootstrap_quantile(est, 0.95, B, RngContract(seed)).draws
    assert np.array_equal(got, _chunked_draws(est, B, RngContract(seed)))


def test_draw_loop_keeps_one_chunk_sized_product():
    # one 1024 x d product buffer, not a fresh product and |product| per chunk
    w, d = 50, 5000
    est = estimate_of_sums(RNG.derive("mem").generator().standard_normal((w, d)))
    tracemalloc.start()
    try:
        bootstrap_quantile(est, 0.95, 2000, RNG.derive("mem-draws"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * 1024 * d


# ---------------------------------------------------------------------------
# factor form on block sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p,M", [(300, 40, 10), (600, 6, 5)])
def test_data_path_matches_matrix_path_in_law(n, p, M):
    # w < p draws from the block sums, w > p from their triangular factor;
    # the reference factors the same sigma's correlation matrix through psd_sqrt
    spec = ProcessSpec("linear", p=p, alpha=1.0, K=20, h=1, rho=0.5)
    panel = simulate(spec, n, RNG.derive("paths", p))
    est = sigma_tilde(panel, plan_blocks(n, M))
    assert (est.plan.w < p) == (p == 40)
    data = bootstrap_quantile(est, 0.95, 20_000, RNG.derive("paths-data", p))
    d = np.sqrt(np.diag(est.sigma))
    corr = est.sigma / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    gen = RNG.derive("paths-matrix", p).generator()
    ref = np.sort(np.max(np.abs(gen.standard_normal((20_000, p)) @ psd_sqrt(corr)), axis=1))
    ref_chi, ref_se = _order_statistic(ref, 0.95), _quantile_se(ref, 0.95)
    assert abs(data.chi - ref_chi) < 3.0 * math.hypot(data.chi_se, ref_se)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.sampled_from([3, 40]),
       exps=st.lists(st.integers(-40, 40), min_size=5, max_size=5))
def test_power_of_two_column_scaling_gives_identical_draws(seed, M, exps):
    # n = 120, p = 5: M = 3 gives w = 40 > p (triangular factor), M = 40
    # gives w = 3 <= p (the block sums themselves)
    data = RngContract(seed).derive("pow2").generator().standard_normal((120, 5))
    plan = plan_blocks(120, M)
    base = sigma_tilde(Panel.from_data(data), plan)
    scaled = sigma_tilde(Panel.from_data(data * np.ldexp(1.0, exps)), plan)
    a = bootstrap_quantile(base, 0.95, 1000, RngContract(seed))
    b = bootstrap_quantile(scaled, 0.95, 1000, RngContract(seed))
    assert np.array_equal(a.draws, b.draws)


def test_degeneracy_check_is_scale_invariant():
    panel = simulate(ProcessSpec("linear", p=6, alpha=1.0, K=20, h=1, rho=0.5),
                     400, RNG.derive("tiny"))
    a = simultaneous_ci(panel, 0.95, None, 2000, RngContract(5))
    b = simultaneous_ci(Panel.from_data(1e-6 * panel.data), 0.95, None, 2000,
                        RngContract(5))
    assert abs(a.chi - b.chi) < 1e-10


def test_constant_column_raises_and_offset_column_does_not():
    gen = RNG.derive("offset").generator()
    data = gen.standard_normal((500, 4))
    for M in (5, 250):  # w = 100 > p (triangular factor) and w = 2 < p
        for const in (0.1, -3.7e8, 1e-300):
            bad = data.copy()
            bad[:, 2] = const
            with pytest.raises(AssumptionError, match="column"):
                simultaneous_ci(Panel.from_data(bad), 0.95, M, 2000, RNG)
    shifted = data.copy()
    shifted[:, 0] += 1e6
    rep = simultaneous_ci(Panel.from_data(shifted), 0.95, None, 2000, RNG)
    assert np.isfinite(rep.chi)


# ---------------------------------------------------------------------------
# simultaneous confidence intervals
# ---------------------------------------------------------------------------

def test_ci_pipeline_and_zero_variance_guard():
    spec = ProcessSpec("iid", p=5)
    panel = simulate(spec, 400, RNG.derive("ci"))
    rep = simultaneous_ci(panel, 0.95, None, 2000, RNG.derive("ci-boot"))
    assert rep.M == 7 and rep.w == 57
    assert np.all(rep.lo < rep.hi)
    assert rep.covers(rep.mu_hat)
    width = rep.half_widths()
    assert np.allclose(width, rep.chi * np.sqrt(rep.sigma_diag / panel.n),
                       rtol=1e-12)
    const = Panel.from_data(np.ones((50, 3)))
    with pytest.raises(AssumptionError):
        simultaneous_ci(const, 0.95, None, 2000, RNG)


def test_ci_width_shrinks_like_root_n():
    spec = ProcessSpec("iid", p=8)
    widths = {}
    for n in (400, 1600):
        med = []
        for r in range(40):
            panel = simulate(spec, n, RNG.derive("width", 100 * n + r))
            rep = simultaneous_ci(panel, 0.95, 1, 2000,
                                  RNG.derive("width-boot", 100 * n + r))
            med.append(np.median(rep.half_widths()))
        widths[n] = float(np.median(med))
    assert widths[1600] / widths[400] == pytest.approx(0.5, abs=0.05)


@settings(max_examples=40, deadline=None)
@given(p_perm=st.integers(1, 8).flatmap(
           lambda p: st.tuples(st.just(p), st.permutations(range(p)))),
       n_M=st.integers(8, 200).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n // 2))),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p_perm=(6, [3, 5, 0, 2, 1, 4]), n_M=(300, 3), seed=0)  # w = 100 > p
@example(p_perm=(6, [3, 5, 0, 2, 1, 4]), n_M=(300, 60), seed=0)  # w = 5 <= p
def test_ci_permutation_equivariance(p_perm, n_M, seed):
    (p, perm), (n, M) = p_perm, n_M
    perm = np.array(perm)
    panel = Panel.from_data(RngContract(seed).derive("perm").generator().standard_normal((n, p)))
    rep = simultaneous_ci(panel, 0.95, M, 1000, RngContract(7))
    permuted = Panel.from_data(panel.data[:, perm])   # column-major copy
    rep_p = simultaneous_ci(permuted, 0.95, M, 1000, RngContract(7))
    assert np.array_equal(rep_p.mu_hat, rep.mu_hat[perm])
    assert np.array_equal(rep_p.sigma_diag, rep.sigma_diag[perm])
    if rep.w <= p:
        # F_n is the unit-norm block sums, whose columns permute with the data
        assert rep_p.chi == pytest.approx(rep.chi, rel=1e-10)


def test_ci_does_not_depend_on_memory_layout():
    data = simulate(ProcessSpec("linear", p=5, alpha=1.0, K=20, h=1, rho=0.5),
                    400, RNG.derive("layout")).data
    a = simultaneous_ci(Panel.from_data(data), 0.95, None, 2000, RngContract(11))
    b = simultaneous_ci(Panel.from_data(np.asfortranarray(data)), 0.95, None, 2000,
                        RngContract(11))
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


# ---------------------------------------------------------------------------
# run-batched intervals
# ---------------------------------------------------------------------------

_LAWS = {"gaussian": InnovationLaw.gaussian(), "t": InnovationLaw.student_t(5.0),
         "shell-pareto": InnovationLaw.symmetric_pareto(4.0, body="shell")}


def _one_by_one(panels, theta, M, B, rngs):
    """[simultaneous_ci(panel, ...) for each panel], or the first error."""
    try:
        return [simultaneous_ci(panel, theta, M, B, rng) for panel, rng in zip(panels, rngs)]
    except HdtsError as exc:
        return exc


def _assert_same_outcome(panels, theta, M, B, rngs):
    want = _one_by_one(panels, theta, M, B, rngs)
    if isinstance(want, HdtsError):
        with pytest.raises(type(want)) as got:
            list(simultaneous_cis(panels, theta, M, B, rngs))
        assert str(got.value) == str(want)
        return
    got = list(simultaneous_cis(panels, theta, M, B, rngs))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), field.name


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 300), p=st.integers(1, 30), S=st.integers(1, 6),
       M=st.one_of(st.none(), st.integers(1, 300)), law=st.sampled_from(sorted(_LAWS)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=500, p=20, S=8, M=None, law="gaussian", seed=0)     # w = 71 > p
@example(n=203, p=20, S=3, M=10, law="t", seed=1)              # w = 20 <= p, 3 unused rows
@example(n=60, p=3, S=4, M=1, law="shell-pareto", seed=2)
@example(n=100, p=1, S=5, M=3, law="gaussian", seed=3)
def test_run_batched_intervals_equal_one_panel_intervals(n, p, S, M, law, seed):
    M = None if M is None else min(M, n)
    gen = RngContract(seed).derive("batched").generator()
    panels = [Panel(_LAWS[law].sample(gen, (n, p)) + gen.standard_normal(p))
              for _ in range(S)]
    rngs = [RngContract(seed).derive("batched-boot", s) for s in range(S)]
    _assert_same_outcome(panels, 0.9, M, 1000, rngs)


# (error type, degenerate columns) each (kinds, theta) case raises: panels
# are checked in order, each for a finite estimate, then theta, then
# columns at rounding level
_FIRST_PANEL_ERROR = {
    (("ok", "flat", "ok", "flat2"), 0.95): (AssumptionError, [2]),
    (("ok", "flat", "ok", "flat2"), 1.5): (ValidationError, None),
    (("ok", "flat", "huge"), 0.95): (AssumptionError, [2]),
    (("ok", "flat", "huge"), 1.5): (ValidationError, None),
    (("ok", "huge", "flat"), 0.95): (NumericalError, None),
    (("ok", "huge", "flat"), 1.5): (ValidationError, None),
    (("huge", "ok"), 0.95): (NumericalError, None),
    (("huge", "ok"), 1.5): (NumericalError, None),
    (("flat",), 0.95): (AssumptionError, [2]),
    (("flat",), 1.5): (ValidationError, None),
}


@pytest.mark.parametrize("kinds", [
    ("ok", "flat", "ok", "flat2"), ("ok", "flat", "huge"), ("ok", "huge", "flat"),
    ("huge", "ok"), ("flat",)])
@pytest.mark.parametrize("theta", [0.95, 1.5])
def test_a_run_with_a_failing_panel_raises_the_first_panel_error(kinds, theta):
    # columns at rounding level raise AssumptionError naming them; block sums
    # that overflow raise NumericalError; a bad theta fails at the first
    # panel with a finite estimate, as the one-panel calls do in order
    error, columns = _FIRST_PANEL_ERROR[kinds, theta]
    gen = RNG.derive("failing").generator()
    panels = []
    for kind in kinds:
        data = gen.standard_normal((100, 4))
        if kind == "flat":
            data[:, 2] = 0.25
        elif kind == "flat2":
            data[:, [0, 3]] = -7.0
        elif kind == "huge":
            data[:, 1] = 1e308
        panels.append(Panel(data))
    rngs = [RNG.derive("failing-boot", s) for s in range(len(kinds))]
    want = _one_by_one(panels, theta, 5, 1000, rngs)
    assert type(want) is error
    if columns is not None:
        assert want.columns.tolist() == columns
    _assert_same_outcome(panels, theta, 5, 1000, rngs)


def test_run_batched_intervals_check_their_inputs():
    panels = [Panel(np.eye(20)[:, :3]), Panel(np.eye(20)[:, :4])]
    with pytest.raises(ValidationError, match="one shape"):
        simultaneous_cis(panels, 0.95, None, 1000, [RNG, RNG])
    with pytest.raises(ValidationError, match="one stream per panel"):
        simultaneous_cis(panels[:1], 0.95, None, 1000, [RNG, RNG])
    assert list(simultaneous_cis([], 0.95, None, 1000, [])) == []
