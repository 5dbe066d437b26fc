"""Stationary p-dimensional processes driven by i.i.d. innovations.

Three families are supported:

* ``linear``       -- X_i = sum_{k=0..K} A_k eps_{i-k} with separable
                      coefficients A_k = (k+1)^{-(alpha+1)} * B, where B is the
                      banded cross-sectional mixer B[j,l] = rho^{|j-l|} 1{|j-l|<=h}.
                      The lag cutoff K makes simulation exact: presample
                      innovations are drawn explicitly.  Every sum of this
                      family (panel rows, column sums, m-dependent
                      approximations) is one windowed lag-weight product of
                      the innovations, followed by B.
* ``iid``          -- rows are independent draws of the innovation law: the
                      linear process at K = 0 and h = 0, which is how an iid
                      spec is stored, so it runs the linear code throughout.
* ``threshold-ar`` -- coordinatewise X_i = theta1*max(X_{i-1},0)
                      + theta2*min(X_{i-1},0) + eps_i, geometrically contracting
                      when |theta1| v |theta2| < 1; a burn-in prefix is discarded.

Time convention: panel row r holds the observation at time r, r = 0..n-1.
Couplings replace the innovation at time 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .rng import RngContract

FAMILIES = ("iid", "linear", "threshold-ar")

_DEFAULT_U0 = math.e ** 2  # log(u0) = 2, comfortably positive


# ---------------------------------------------------------------------------
# Innovation laws
# ---------------------------------------------------------------------------

def _pareto_survival(u, tail_index):
    """P(eps >= u) = u^{-q} (log u)^{-2} for u >= u0."""
    u = np.asarray(u, dtype=float)
    return u ** (-tail_index) * np.log(u) ** (-2.0)


def _pareto_tail_second_moment(tail_index: float, u0: float) -> float:
    """E[eps^2; |eps| >= u0] for the two-sided power-law tail."""
    from scipy.special import exp1
    s0 = float(_pareto_survival(u0, tail_index))
    a, t0 = tail_index - 2.0, math.log(u0)
    # integral of u * S(u) du over [u0, inf): in t = log(u) it is the integral
    # of e^{-a t} t^{-2} over [t0, inf), which parts turn into E_1
    val = math.exp(-a * t0) / t0 - a * float(exp1(a * t0))
    return 2.0 * (u0 ** 2 * s0 + 2.0 * val)


def _pareto_invert_survival(targets: np.ndarray, tail_index: float, u0: float) -> np.ndarray:
    """Solve S(u) = s for u >= u0, that is for s <= S(u0).

    With t = log(u), S(u) = s reads (q t/2) e^{q t/2} = q / (2 sqrt(s)), so
    t = (2/q) W_0(q / (2 sqrt(s))).  s is clamped to the smallest normal
    float, so that s = 0 still gives a finite u.
    """
    from scipy.special import lambertw
    s = np.maximum(np.asarray(targets, dtype=float), np.finfo(float).tiny)
    return np.exp((2.0 / tail_index) * lambertw(tail_index / (2.0 * np.sqrt(s))).real)


_SHELL_LO = 0.8  # lower edge of the shell body, as a fraction of u0


@dataclass(frozen=True)
class InnovationLaw:
    """Mean-zero innovation distribution with known variance.

    kinds:
      standard-gaussian                    variance 1
      student-t(df > 2)                    variance df/(df-2)
      symmetric-pareto(tail_index q > 2)   P(eps >= u) = u^{-q}(log u)^{-2}
                                           for u >= u0, symmetric, total
                                           variance exactly 1

    The part of the symmetric-pareto law below u0 is free; two bodies are
    provided, both sized to make the total variance exactly 1:
      body="uniform"  uniform on [-a, a]
      body="shell"    |eps| uniform on [0.8*u0, u0] with an atom at 0;
                      same tail, much heavier shoulders (kurtosis ~ 1/mass),
                      which is what makes the approximation-failure regime
                      visible at desk-scale (n, p)
    """

    kind: str
    df: float | None = None
    tail_index: float | None = None
    u0: float = _DEFAULT_U0
    body: str = "uniform"

    def __post_init__(self):
        if self.kind == "standard-gaussian":
            pass
        elif self.kind == "student-t":
            if self.df is None or not self.df > 2:
                raise ValidationError(f"student-t requires df > 2, got {self.df}")
        elif self.kind == "symmetric-pareto":
            if self.tail_index is None or not self.tail_index > 2:
                raise ValidationError(
                    f"symmetric-pareto requires tail index > 2, got {self.tail_index}")
            if not self.u0 > 1:
                raise ValidationError(f"symmetric-pareto requires u0 > 1, got {self.u0}")
            if self.body not in ("uniform", "shell"):
                raise ValidationError(f"unknown symmetric-pareto body {self.body!r}")
            if self._pareto_params()[2] <= 0:
                raise ValidationError(
                    "symmetric-pareto tail carries second moment >= 1; "
                    "unit total variance is infeasible for this (tail_index, u0)")
            self.body_mass()  # feasibility of the chosen body

    # -- constructors -------------------------------------------------------

    @staticmethod
    def gaussian() -> "InnovationLaw":
        return InnovationLaw("standard-gaussian")

    @staticmethod
    def student_t(df: float) -> "InnovationLaw":
        return InnovationLaw("student-t", df=df)

    @staticmethod
    def symmetric_pareto(tail_index: float, u0: float = _DEFAULT_U0,
                         body: str = "uniform") -> "InnovationLaw":
        return InnovationLaw("symmetric-pareto", tail_index=tail_index, u0=u0,
                             body=body)

    # -- law properties -----------------------------------------------------

    def _pareto_params(self):
        """(tail mass S(u0), tail second moment, body variance budget)."""
        s0 = float(_pareto_survival(self.u0, self.tail_index))
        tail2 = _pareto_tail_second_moment(self.tail_index, self.u0)
        return s0, tail2, 1.0 - tail2

    @property
    def variance(self) -> float:
        if self.kind == "standard-gaussian":
            return 1.0
        if self.kind == "student-t":
            return self.df / (self.df - 2.0)
        return 1.0  # symmetric-pareto is built to unit variance

    def admits_moment(self, q: float) -> bool:
        """Whether E|eps|^q is finite."""
        if self.kind == "standard-gaussian":
            return True
        if self.kind == "student-t":
            return q < self.df
        # the (log u)^{-2} correction makes the moment at exactly q = tail_index finite
        return q <= self.tail_index

    def body_halfwidth(self) -> float:
        """Half-width a of the uniform body of the symmetric-pareto law."""
        if self.kind != "symmetric-pareto" or self.body != "uniform":
            raise ValidationError("body_halfwidth applies to the uniform pareto body only")
        s0, _, budget = self._pareto_params()
        a = math.sqrt(3.0 * budget / (1.0 - 2.0 * s0))
        if a > self.u0:
            raise ValidationError(
                "symmetric-pareto body would exceed the tail threshold; "
                "increase u0 or the tail index")
        return a

    def body_mass(self) -> float:
        """Probability of a nonzero body draw (shell body), or the
        full body mass 1 - 2*S(u0) (uniform body)."""
        s0, _, budget = self._pareto_params()
        if self.body == "uniform":
            self.body_halfwidth()
            return 1.0 - 2.0 * s0
        lo = _SHELL_LO * self.u0
        second = (self.u0 ** 3 - lo ** 3) / (3.0 * (self.u0 - lo))
        m = budget / second
        if m > 1.0 - 2.0 * s0:
            raise ValidationError(
                "shell body mass exceeds the available probability; "
                "increase u0 or the tail index")
        return m

    # -- sampling -----------------------------------------------------------

    def sample(self, gen: np.random.Generator, shape) -> np.ndarray:
        if self.kind == "standard-gaussian":
            return gen.standard_normal(shape)
        if self.kind == "student-t":
            return gen.standard_t(self.df, size=shape)
        return self._sample_pareto(gen, shape)

    def _sample_pareto(self, gen: np.random.Generator, shape) -> np.ndarray:
        s0, _, _ = self._pareto_params()
        u = gen.uniform(size=shape)
        out = np.zeros(np.shape(u))
        left = u < s0
        right = u > 1.0 - s0
        mid = ~(left | right)
        if self.body == "uniform":
            a = self.body_halfwidth()
            out[mid] = -a + 2.0 * a * (u[mid] - s0) / (1.0 - 2.0 * s0)
        else:
            # inverse CDF of the shell: negative shell, atom at 0, positive shell
            m = self.body_mass()
            lo = _SHELL_LO * self.u0
            width = self.u0 - lo
            v = u - s0                      # in [0, 1 - 2*s0) on the body
            neg = mid & (v < m / 2.0)
            pos = mid & (v >= 1.0 - 2.0 * s0 - m / 2.0)
            out[neg] = -self.u0 + width * (v[neg] / (m / 2.0))
            vp = v[pos] - (1.0 - 2.0 * s0 - m / 2.0)
            out[pos] = lo + width * (vp / (m / 2.0))
        if left.any():
            out[left] = -_pareto_invert_survival(u[left], self.tail_index, self.u0)
        if right.any():
            out[right] = _pareto_invert_survival(1.0 - u[right], self.tail_index, self.u0)
        return out

    # -- moments of the coupling difference ----------------------------------

    def diff_norm(self, q: float) -> float:
        """||eps - eps'||_q for two independent copies.

        Closed form for Gaussian; 2-d quadrature (via the probability
        transform) for student-t.  Not available for symmetric-pareto.
        """
        if self.kind == "standard-gaussian":
            return math.sqrt(2.0) * gaussian_abs_moment_root(q)
        if self.kind == "student-t":
            if not self.admits_moment(q):
                raise ValidationError(
                    f"student-t(df={self.df}) has no finite moment of order {q}")
            return _student_t_diff_norm(self.df, q)
        raise ValidationError(
            "no closed-form coupling moment for symmetric-pareto; use mc_profile")


def gaussian_abs_moment_root(q: float) -> float:
    """(E|N(0,1)|^q)^{1/q} via the gamma function."""
    from scipy.special import gammaln
    log_mq = (q / 2.0) * math.log(2.0) + gammaln((q + 1.0) / 2.0) - gammaln(0.5)
    return math.exp(log_mq / q)


# Gauss-Legendre nodes per axis of the student-t coupling quadrature
_T_QUAD_ORDER = 320


@functools.lru_cache(maxsize=None)
def _student_t_diff_norm(df: float, q: float) -> float:
    """(E|T - T'|^q)^{1/q} for independent t(df) variables, by tensor
    Gauss-Legendre quadrature.

    Uses E|T - T'|^q = 2 int_0^inf f(y) int_0^inf s^q [f(y+s) + f(y-s)]
    ds dy (kink-free since the t density is smooth) with rational maps
    u -> c*u/(1-u)^gamma on both axes, which turn the polynomial tails
    into algebraic endpoint zeros.  Relative accuracy is ~1e-5 for
    q <= df - 4 and degrades to ~1e-3 as q approaches df - 2 (the
    convolution ridge limits the tensor rule); sufficient for profile and
    condition-report use.
    """
    from scipy.stats import t as t_dist
    pdf = t_dist(df).pdf
    nodes, weights = np.polynomial.legendre.leggauss(_T_QUAD_ORDER)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * weights
    c = 2.0
    gamma = max(1.0, 4.0 / (df - q))      # steeper map as q approaches df
    x = c * u / (1.0 - u) ** gamma        # s and y share the same map
    jac = c * (1.0 - u + gamma * u) / (1.0 - u) ** (gamma + 1.0)
    # inner integral over s for every y node, vectorized on a grid
    Y = x[:, None]
    S = x[None, :]
    inner_vals = (S ** q * (pdf(Y + S) + pdf(Y - S))) @ (wu * jac)
    val = float((pdf(x) * inner_vals) @ (wu * jac))
    return (2.0 * val) ** (1.0 / q)


# ---------------------------------------------------------------------------
# Process specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessSpec:
    """Generative description of one stationary process.

    Only the fields relevant to the chosen family are used; the rest keep
    their defaults.  ``K`` counts lags beyond 0, so the linear family uses
    the K+1 coefficient matrices A_0 .. A_K (K = 0 is the degenerate
    no-memory case).  An iid spec is stored as that case, with K = 0 and
    h = 0 whatever was passed, so it equals the iid spec with defaults.
    """

    family: str
    p: int
    innovation: InnovationLaw = field(default_factory=InnovationLaw.gaussian)
    alpha: float = 1.0
    K: int = 200
    h: int = 0
    rho: float = 0.0
    theta1: float = 0.3
    theta2: float = 0.3
    burn_in: int = 1024

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.p < 1:
            raise ValidationError(f"dimension p must be >= 1, got {self.p}")
        if self.family == "iid":
            object.__setattr__(self, "K", 0)
            object.__setattr__(self, "h", 0)
        if self.family == "linear":
            if self.alpha < 0:
                raise ValidationError(f"decay exponent alpha must be >= 0, got {self.alpha}")
            if self.K < 0:
                raise ValidationError(f"lag cutoff K must be >= 0, got {self.K}")
            if self.h < 0:
                raise ValidationError(f"mixing bandwidth h must be >= 0, got {self.h}")
            if not 0.0 <= self.rho < 1.0:
                raise ValidationError(f"cross decay rho must lie in [0, 1), got {self.rho}")
        if self.family == "threshold-ar":
            if max(abs(self.theta1), abs(self.theta2)) >= 1.0:
                raise ValidationError(
                    "threshold-ar requires |theta1| v |theta2| < 1 "
                    f"(got theta1={self.theta1}, theta2={self.theta2})")
            if self.burn_in < 0:
                raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")

    # -- linear-family coefficients -----------------------------------------

    def lag_weights(self) -> np.ndarray:
        """Temporal weights c_k = (k+1)^{-(alpha+1)}, k = 0..K."""
        k = np.arange(self.K + 1, dtype=float)
        return (k + 1.0) ** (-(self.alpha + 1.0))

    def cross_mixer(self) -> np.ndarray:
        """Banded cross-sectional mixer B[j,l] = rho^{|j-l|} 1{|j-l| <= h}."""
        if self.h == 0:
            return np.eye(self.p)
        dist = np.abs(np.subtract.outer(np.arange(self.p), np.arange(self.p)))
        B = np.where(dist <= self.h, self.rho ** dist, 0.0)
        return B


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnovationRecord:
    """Innovations that produced a panel.

    values[r] is eps at time (offset + r); the panel occupies times 0..n-1,
    so offset is -K for the linear family (0 for iid) and -burn_in for threshold-ar.
    """

    values: np.ndarray
    offset: int

    @property
    def n(self) -> int:
        return self.values.shape[0] + self.offset


@dataclass(frozen=True)
class Panel:
    """n x p observation matrix, row i = time i, plus the innovations that
    produced it when it was simulated."""

    data: np.ndarray
    innovations: InnovationRecord | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise ValidationError(f"panel data must be 2-d, got shape {data.shape}")
        if min(data.shape) < 1:
            raise ValidationError(
                f"panel needs n >= 1 rows and p >= 1 columns, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise NumericalError("panel contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    @staticmethod
    def from_data(data) -> "Panel":
        """Wrap an existing observation matrix (no innovation record)."""
        return Panel(data)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def _lag_sums(spec: ProcessSpec, eps: np.ndarray, g: np.ndarray, stride: int) -> np.ndarray:
    """The one lag sum of the iid and linear families: g @ window, then @ B.T.

    Window r is rows r*stride .. r*stride + L - 1 of eps, L = g.shape[-1],
    taken as a read-only strided view; the result has shape
    (windows, *g.shape[:-1], p).  The reversed lag weights c[::-1] at
    stride 1 give the panel rows X_t; lag-sum weights of length n + K at
    stride n give the single window S_n, and g may stack several weight
    rows.  g must be contiguous: a negative-stride view makes matmul leave
    BLAS.  Each output row reads only its own window, so inputs that agree
    on a window give bit-identical rows there.
    """
    (T, p), (row, col) = eps.shape, eps.strides
    L = g.shape[-1]
    windows = np.lib.stride_tricks.as_strided(
        eps, ((T - L) // stride + 1, L, p), (stride * row, row, col), writeable=False)
    x = g @ windows
    if spec.h > 0:
        x = x @ spec.cross_mixer().T
    return x


def _tar_path(eps: np.ndarray, theta1: float, theta2: float) -> np.ndarray:
    """Iterate the threshold recursion over all rows of eps, from zero."""
    T, p = eps.shape
    out = np.empty((T, p))
    x = np.zeros(p)
    for t in range(T):
        x = theta1 * np.maximum(x, 0.0) + theta2 * np.minimum(x, 0.0) + eps[t]
        out[t] = x
    return out


def _draw_innovations(spec: ProcessSpec, n: int, rng: RngContract) -> InnovationRecord:
    offset = -spec.burn_in if spec.family == "threshold-ar" else -spec.K
    gen = rng.derive("innovations").generator()
    values = spec.innovation.sample(gen, (n - offset, spec.p))
    return InnovationRecord(values=values, offset=offset)


def _build(spec: ProcessSpec, n: int, innov: InnovationRecord) -> np.ndarray:
    if spec.family == "threshold-ar":
        return _tar_path(innov.values, spec.theta1, spec.theta2)[spec.burn_in:]
    # c reversed, not lag_sum_weights(spec, 1, 0): equal up to rounding, and cheaper
    return _lag_sums(spec, innov.values, spec.lag_weights()[::-1].copy(), 1)


def simulate(spec: ProcessSpec, n: int, rng: RngContract) -> Panel:
    """Draw one panel of length n from the process.

    The linear family is exact (presample innovations drawn explicitly);
    threshold-ar discards spec.burn_in steps started from the zero state.
    """
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    innov = _draw_innovations(spec, n, rng)
    data = _build(spec, n, innov)
    return Panel(data=data, innovations=innov)


def simulate_coupled(spec: ProcessSpec, n: int, rng: RngContract) -> tuple[Panel, Panel]:
    """Draw a panel and its coupled copy with the time-0 innovation replaced.

    Both panels share every innovation except eps_0, which the copy swaps
    for an independent draw; rows where eps_0 has no influence agree
    bit-exactly.
    """
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    innov = _draw_innovations(spec, n, rng)
    eps_prime = spec.innovation.sample(rng.derive("coupling").generator(), (spec.p,))
    values_c = innov.values.copy()
    values_c[-innov.offset] = eps_prime
    innov_c = InnovationRecord(values=values_c, offset=innov.offset)
    panel = Panel(data=_build(spec, n, innov), innovations=innov)
    coupled = Panel(data=_build(spec, n, innov_c), innovations=innov_c)
    return panel, coupled


def lag_sum_weights(spec: ProcessSpec, n: int, first_lag: int) -> np.ndarray:
    """D_t = sum of c_k over first_lag <= k <= K with 0 <= t + k <= n - 1, for
    t = -K..n-1 (iid and linear families; K = 0 for iid).  With eps the
    innovations at those times, (D @ eps) @ B.T is S_n for first_lag = 0 and
    S_n - S_{n,m} for first_lag = m + 1."""
    c = spec.lag_weights()
    K = c.shape[0] - 1
    # ts[k] = sum_{j>=k} c_j: a segment deep in the decaying tail is then a
    # difference of two small sums, not of two sums near sum(c)
    ts = np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]])
    t = np.arange(-K, n)
    lo = np.clip(np.maximum(first_lag, -t), 0, K + 1)
    hi = np.clip(np.minimum(K, n - 1 - t) + 1, 0, K + 1)
    return np.where(hi > lo, ts[lo] - ts[hi], 0.0)


def column_sums(spec: ProcessSpec, n: int, rng: RngContract) -> np.ndarray:
    """S_n, the column sums of the panel simulate(spec, n, rng) would draw,
    from the same innovation stream.

    For iid and linear specs the sum is the lag-sum weights applied to the
    innovations, so no panel is built; it agrees with the panel's sum to
    rounding.  threshold-ar has no weight form and sums the simulated panel.
    """
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    if spec.family == "threshold-ar":
        return simulate(spec, n, rng).data.sum(axis=0)
    s = _lag_sums(spec, _draw_innovations(spec, n, rng).values,
                  lag_sum_weights(spec, n, 0), n)[0]
    if not np.all(np.isfinite(s)):
        raise NumericalError("column sums contain non-finite values")
    return s


def m_dependent_approx(spec: ProcessSpec, innov: InnovationRecord, m: int) -> Panel:
    """Panel of the m-dependent approximations X_{i,m} = E[X_i | eps_{i-m..i}]
    built from stored innovations: the lag sum truncated at min(m, K), so
    the original panel for iid (K = 0).  threshold-ar raises.
    """
    if spec.family not in ("iid", "linear"):
        raise ValidationError(
            f"m-dependent approximations exist for iid and linear only, not {spec.family!r}")
    if m < 0:
        raise ValidationError(f"m must be >= 0, got {m}")
    if innov is None:
        raise ValidationError("m_dependent_approx requires the panel's innovation record")
    n = innov.n
    g = spec.lag_weights()[:min(m, spec.K) + 1][::-1].copy()
    # reuse rows covering times -min(m,K)..n-1 of the record
    need = innov.values[innov.values.shape[0] - n - (g.shape[0] - 1):]
    return Panel(data=_lag_sums(spec, need, g, 1), innovations=innov)
