"""Stationary p-dimensional processes driven by i.i.d. innovations.

Three families are supported:

* ``linear``       -- X_i = sum_{k=0..K} A_k eps_{i-k} with separable
                      coefficients A_k = (k+1)^{-(alpha+1)} * B, where B is the
                      banded cross-sectional mixer B[j,l] = rho^{|j-l|} 1{|j-l|<=h}.
                      The lag cutoff K makes simulation exact: presample
                      innovations are drawn explicitly.  Every sum of this
                      family (panel rows, column sums, the m-dependent gaps
                      S_n - S_{n,m}) is one windowed lag-weight product of
                      the innovations, followed by B.
* ``iid``          -- rows are independent draws of the innovation law: the
                      linear process at K = 0 and h = 0, which is how an iid
                      spec is stored, so it runs the linear code throughout.
* ``threshold-ar`` -- coordinatewise X_i = theta1*max(X_{i-1},0)
                      + theta2*min(X_{i-1},0) + eps_i, geometrically contracting
                      when |theta1| v |theta2| < 1; a burn-in prefix is discarded.
                      One kernel computes every path: time segments that
                      step together, each checked bit for bit against its
                      predecessor's end state and re-run from the exact
                      state where it differs, so it equals the plain
                      step-by-step loop.  Several paths can share the
                      stepped state, a stack at a time within the byte
                      budget STACK_BYTES.

One private function, _panels, turns innovations into panels for every
family: simulate_many feeds it drawn innovations, simulate_coupled each
stream's innovations and then its coupled copy's.  Time convention: panel
row r holds the observation at time r, r = 0..n-1.  Couplings replace the
innovation at time 0.  A Panel holds its data only.
"""

from __future__ import annotations

import functools
import itertools
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
            if self.df is None or not 2 < self.df < math.inf:
                raise ValidationError(f"student-t requires a finite df > 2, got {self.df}")
        elif self.kind == "symmetric-pareto":
            if self.tail_index is None or not 2 < self.tail_index < math.inf:
                raise ValidationError(
                    f"symmetric-pareto requires a finite tail index > 2, got {self.tail_index}")
            if not 1 < self.u0 < math.inf:
                raise ValidationError(f"symmetric-pareto requires a finite u0 > 1, got {self.u0}")
            if self.body not in ("uniform", "shell"):
                raise ValidationError(f"unknown symmetric-pareto body {self.body!r}")
            try:
                if self._pareto_params()[2] <= 0:
                    raise ValidationError(
                        "symmetric-pareto tail carries second moment >= 1; "
                        "unit total variance is infeasible for this (tail_index, u0)")
                self.body_mass()  # feasibility of the chosen body
            except OverflowError:
                # u0 ** 2 (tail moment) or u0 ** 3 (shell body) exceeds float range
                raise ValidationError(
                    f"symmetric-pareto u0 = {self.u0!r} is too large: the second "
                    f"moments of the law overflow double precision") from None

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: the arrays a cache shares with every caller."""
    a.setflags(write=False)
    return a


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
            if not 0.0 <= self.alpha < math.inf:
                raise ValidationError(
                    f"decay exponent alpha must be finite and >= 0, got {self.alpha}")
            if self.K < 0:
                raise ValidationError(f"lag cutoff K must be >= 0, got {self.K}")
            if self.h < 0:
                raise ValidationError(f"mixing bandwidth h must be >= 0, got {self.h}")
            if not 0.0 <= self.rho < 1.0:
                raise ValidationError(f"cross decay rho must lie in [0, 1), got {self.rho}")
        if self.family == "threshold-ar":
            if not (abs(self.theta1) < 1.0 and abs(self.theta2) < 1.0):
                raise ValidationError(
                    "threshold-ar requires |theta1| v |theta2| < 1 "
                    f"(got theta1={self.theta1}, theta2={self.theta2})")
            if self.burn_in < 0:
                raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")

    # -- linear-family coefficients -----------------------------------------
    # Built once per spec and shared by every caller, so they are read-only.

    @functools.lru_cache(maxsize=8)
    def lag_weights(self) -> np.ndarray:
        """Temporal weights c_k = (k+1)^{-(alpha+1)}, k = 0..K."""
        k = np.arange(self.K + 1, dtype=float)
        return _read_only((k + 1.0) ** (-(self.alpha + 1.0)))

    @functools.lru_cache(maxsize=8)
    def cross_mixer(self) -> np.ndarray:
        """Banded cross-sectional mixer B[j,l] = rho^{|j-l|} 1{|j-l| <= h}."""
        if self.h == 0:
            return _read_only(np.eye(self.p))
        dist = np.abs(np.subtract.outer(np.arange(self.p), np.arange(self.p)))
        return _read_only(np.where(dist <= self.h, self.rho ** dist, 0.0))


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Panel:
    """n x p observation matrix, row i = time i, stored C-contiguous so that
    column reductions do not depend on the caller's memory layout."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float, order="C")
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
        """Wrap an existing observation matrix."""
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


def _tar_steps(x: np.ndarray, eps: np.ndarray, theta1: float, theta2: float,
               out: np.ndarray | None = None, lo: int = 0) -> np.ndarray:
    """The one threshold step loop: from state x, x <- f(x) + eps[t] for every
    row t of eps, storing out[t] = x[lo:] when out is given; returns the last
    state as a new array.  x may carry any trailing shape (one path, or a
    stack of segments).  The step runs in place, in the order of
    theta1*max(x, 0) + theta2*min(x, 0) + eps[t], so it keeps those bits."""
    x = x.copy()
    neg = np.empty_like(x)
    for t in range(eps.shape[0]):
        np.minimum(x, 0.0, out=neg)
        np.maximum(x, 0.0, out=x)
        x *= theta1
        neg *= theta2
        x += neg
        x += eps[t]
        if out is not None:
            out[t] = x[lo:]
    return x


def _tar_paths(values, S: int, theta1: float, theta2: float, skip: int) -> np.ndarray:
    """The one threshold-AR kernel: S paths from the zero state, stepped as
    one stacked state.

    values yields S innovation arrays of one shape (T, p); each is copied
    into the stack as it arrives, so a lazy iterable holds one at a time.
    Returns the (T - skip, S, p) rows skip.. of every path, bit for bit the
    plain step-by-step loop's.  The map acts coordinatewise, so stacking
    paths side by side changes no bit of any of them.

    With rho = |theta1| v |theta2|, two paths of the map draw together by at
    least the factor rho per step, so L = ceil(96 / -log2 rho) steps shrink
    any start-up error below 2^-96 of the state the warm-up missed.  That is
    below the last bit of the end state unless the end state is some 2^-43
    times smaller, so on continuous laws repairs almost never run.  The T
    times are cut into G segments of L steps that advance together as one
    (G, S p) state.

    * Warm-up.  Segment k >= 1 starts from the zero state at time (k-1)L and
      steps over the L times before its own; segment 0 starts exactly.
    * Check.  The recursion is deterministic, so once segment k holds the
      end state of segment k-1 bit for bit it is exact from then on.  The
      check compares end states, in order k = 1 .. G-1, so it needs no
      stored rows.
    * Repair.  Coordinates of segment k that did not coalesce are re-run
      over its L steps from the exact end state of segment k-1.

    Only the segments from the one holding time skip on are stored, so at
    most L - 1 rows before skip are kept.  Correctness never depends on L,
    only the speed does: a coordinate that never coalesces costs the plain
    loop's steps.  For G < 3, where T <= 2L and segments would take no
    fewer steps, the whole path runs as one segment.
    """
    values = iter(values)
    v = next(values)
    T, p = v.shape
    rho = max(abs(theta1), abs(theta2))
    L = 1 if rho == 0.0 else math.ceil(96.0 / -math.log2(rho))
    G = -(-T // L)
    if G < 3:
        G, L = 1, T
    # the tail pads the last segment to L steps; its extra rows are dropped
    stack = np.zeros((G * L, S, p))
    stack[:T, 0] = v
    for r, v in enumerate(values, 1):
        stack[:T, r] = v
    del v
    eps = stack.reshape(G * L, S * p)
    row, col = eps.strides
    steps = np.lib.stride_tricks.as_strided(
        eps, (L, G, S * p), (row, L * row, col), writeable=False)  # [s, k] = row kL + s
    k0 = skip // L
    out = np.empty(((G - k0) * L, S * p))
    start = np.zeros((G, S * p))
    if G > 1:
        start[1:] = _tar_steps(start[1:], steps[:, :-1], theta1, theta2)
    end = _tar_steps(start, steps, theta1, theta2,
                     out.reshape(G - k0, L, S * p).swapaxes(0, 1), k0)
    # a check can newly fail only where the segment before was repaired
    suspect = np.any(start[1:].view(np.uint64) != end[:-1].view(np.uint64), axis=1)
    repaired = False
    for k in range(1, G):
        if not (repaired or suspect[k - 1]):
            continue
        bad = np.flatnonzero(start[k].view(np.uint64) != end[k - 1].view(np.uint64))
        repaired = bad.size > 0
        if repaired:
            fixed = np.empty((L, bad.size))
            end[k, bad] = _tar_steps(end[k - 1, bad], eps[k * L:(k + 1) * L, bad],
                                     theta1, theta2, fixed)
            if k >= k0:
                out[(k - k0) * L:(k - k0 + 1) * L, bad] = fixed
    lo = skip - k0 * L
    return out[lo:lo + T - skip].reshape(T - skip, S, p)


def _draw_innovations(spec: ProcessSpec, n: int, rng: RngContract) -> np.ndarray:
    """The innovations simulate(spec, n, rng) draws, at times -K..n-1 or -burn_in..n-1."""
    presample = spec.burn_in if spec.family == "threshold-ar" else spec.K
    return spec.innovation.sample(rng.derive("innovations").generator(), (n + presample, spec.p))


@functools.lru_cache(maxsize=8)
def _panel_weights(spec: ProcessSpec) -> np.ndarray:
    """c reversed and contiguous, the panel rows' window weights; not
    lag_sum_weights(spec, 1, 0): equal up to rounding, and cheaper."""
    return _read_only(spec.lag_weights()[::-1].copy())


# Innovation bytes of one threshold-AR stack: _panels steps at most
# max(1, STACK_BYTES // (8 p (n + burn_in))) paths as one state.  Each
# thread that draws holds one stack: its innovations while it is stepped,
# then its panels' rows.  2 MiB holds a run of 8 replications at p = 20,
# n = 500 and burn_in = 1024, so that a run's paths step together and its
# estimates (gboot.simultaneous_cis) are built as one stack.
STACK_BYTES = 2 << 20


def _panels(spec: ProcessSpec, n: int, innovations, count: int):
    """The panel of each of the count arrays the iterator innovations yields,
    in order.  threshold-ar steps a stack of paths at a time (STACK_BYTES)
    through the one kernel, which acts coordinatewise, so where stacks split
    changes no bit.  iid and linear build each panel alone, since the bits
    of a matrix product depend on its shape."""
    if spec.family != "threshold-ar":
        for eps in innovations:
            yield Panel(_lag_sums(spec, eps, _panel_weights(spec), 1))
        return
    size = max(1, STACK_BYTES // (8 * spec.p * (n + spec.burn_in)))
    for start in range(0, count, size):
        S = min(size, count - start)
        paths = _tar_paths(itertools.islice(innovations, S), S, spec.theta1, spec.theta2,
                           spec.burn_in)
        for r in range(S):
            yield Panel(paths[:, r].copy())
        del paths  # so that the next stack is stepped with this one's rows freed


def simulate_many(spec: ProcessSpec, n: int, streams):
    """Panels simulate(spec, n, s) for s in streams, in order and bit for bit,
    as an iterator; threshold-ar steps them a stack at a time (_panels)."""
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    streams = list(streams)
    return _panels(spec, n, (_draw_innovations(spec, n, s) for s in streams), len(streams))


def simulate(spec: ProcessSpec, n: int, rng: RngContract) -> Panel:
    """Draw one panel of length n from the process: simulate_many on the
    one stream rng.

    The linear family is exact (presample innovations drawn explicitly);
    threshold-ar discards spec.burn_in steps started from the zero state.
    """
    return next(simulate_many(spec, n, [rng]))


def simulate_coupled(spec: ProcessSpec, n: int, streams):
    """(panel, copy) for each stream s, in order, as an iterator: simulate(spec,
    n, s) and its copy with eps_0 redrawn from s.derive("coupling"), so rows
    that eps_0 does not reach agree bit-exactly.  All panels go through
    _panels as one sequence: threshold-ar steps many pairs as one stack, and
    pair r equals the pair of streams[r] alone."""
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    streams = list(streams)

    def innovations():
        for s in streams:
            eps = _draw_innovations(spec, n, s)
            yield eps
            eps = eps.copy()
            eps[-n] = spec.innovation.sample(s.derive("coupling").generator(), (spec.p,))
            yield eps

    panels = _panels(spec, n, innovations(), 2 * len(streams))
    return zip(panels, panels)


@functools.lru_cache(maxsize=8)
def lag_sum_weights(spec: ProcessSpec, n: int, first_lag: int) -> np.ndarray:
    """D_t = sum of c_k over first_lag <= k <= K with 0 <= t + k <= n - 1, for
    t = -K..n-1 (iid and linear families; K = 0 for iid).  With eps the
    innovations at those times, (D @ eps) @ B.T is S_n for first_lag = 0 and
    S_n - S_{n,m} for first_lag = m + 1.  Built once per (spec, n, first_lag)
    and shared, so read-only."""
    c = spec.lag_weights()
    K = c.shape[0] - 1
    # ts[k] = sum_{j>=k} c_j: a segment deep in the decaying tail is then a
    # difference of two small sums, not of two sums near sum(c)
    ts = np.concatenate([np.cumsum(c[::-1])[::-1], [0.0]])
    t = np.arange(-K, n)
    lo = np.clip(np.maximum(first_lag, -t), 0, K + 1)
    hi = np.clip(np.minimum(K, n - 1 - t) + 1, 0, K + 1)
    return _read_only(np.where(hi > lo, ts[lo] - ts[hi], 0.0))


def column_sums(spec: ProcessSpec, n: int, streams):
    """S_n for s in streams, in order, as an iterator: the column sums of the
    panel simulate(spec, n, s) would draw.  For iid and linear specs each is
    the lag-sum weights applied to the innovations, so no panel is built;
    it agrees with the panel's sum to rounding.  threshold-ar has no weight
    form and sums the panels of simulate_many, bit for bit."""
    if n < 1:
        raise ValidationError(f"panel length n must be >= 1, got {n}")
    if spec.family == "threshold-ar":
        return (panel.data.sum(axis=0) for panel in simulate_many(spec, n, streams))
    weights = lag_sum_weights(spec, n, 0)
    return (_finite_sums(_lag_sums(spec, _draw_innovations(spec, n, s), weights, n)[0])
            for s in streams)


def _finite_sums(s: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(s)):
        raise NumericalError("column sums contain non-finite values")
    return s
