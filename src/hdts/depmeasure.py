"""Functional dependence measures, dependence-adjusted norms, and the
explicit quantities appearing in the Gaussian-approximation conditions.

Conventions: all logarithms are natural; delta[i, j] is the L^q distance
between X_{ij} and its copy with the time-0 innovation replaced, so lag i
runs over 0, 1, 2, ...; Delta[m, j] = sum_{i >= m} delta[i, j].
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .errors import BoundaryError, NumericalError, ValidationError
from .longrun import f_alpha_factor, plan_blocks
from .model import ProcessSpec, simulate_coupled
from .rng import RngContract

# AuxNorms attributes (at decay 0, at the profile's alpha) per auxiliary order
_AUX_NAMES = {2.0: ("psi_2_0", "psi_2_a"), 3.0: ("psi_3_0", None),
              4.0: ("psi_4_0", "psi_4_a"), 6.0: ("psi_6_0", None),
              8.0: ("psi_8_0", None)}
# Monte Carlo draws of max_j |eps_j - eps'_j| for the closed-form omega
_OMEGA_DRAWS = 10 ** 5
# multinomial resamples of the replications behind each Monte Carlo standard error
_SE_RESAMPLES = 200


def gaussian_maxabs_moment_root(p: int, q: float) -> float:
    """(E[max_{j<=p} |N_j|^q])^{1/q} for p independent standard normals.

    Uses E M^q = int_0^inf f(u) du with f(u) = q u^{q-1} P(M > u) and the
    stable tail P(M > u) = 1 - exp(p*log(1 - 2*Phi^c(u))), integrated in log
    space as f / f(u*), u* the peak of f, so that neither u^{q-1} nor the
    moment leaves the float range before the q-th root is taken.  log f is
    concave, with curvature at least (q-1)/u*^2 left of the peak and about 1
    right of it, so 40 such widths either side hold all of the integral but
    a factor e^-800.  log f carries a rounding error of |log f(u*)| ulps,
    which bounds the tolerance quad can meet; the root loses only that over
    q.  Where it exceeds 1e-3 (q beyond about 1e10), NumericalError.
    """
    from scipy import integrate, optimize
    from scipy.special import log_ndtr, ndtr

    def log_f(u: float) -> float:
        if u <= 0.0:
            return -math.inf
        tail = -math.expm1(p * math.log1p(-2.0 * float(ndtr(-u))))
        # once Phi^c(u) underflows, P(M > u) = 2 p Phi^c(u) to double precision
        log_tail = math.log(tail) if tail > 0.0 else math.log(2.0 * p) + float(log_ndtr(-u))
        return math.log(q) + (q - 1.0) * math.log(u) + log_tail

    # the peak lies below sqrt(q - 1) or at the bulk of M, near sqrt(2 log 2p)
    hi = math.sqrt(q) + math.sqrt(2.0 * math.log(2.0 * p)) + 10.0
    # log f / q stays within a few hundred where log f would leave the float range
    peak = float(optimize.minimize_scalar(lambda u: -log_f(u) / q, bounds=(0.0, hi),
                                          method="bounded").x)
    top = log_f(peak)
    rounding = 16.0 * np.finfo(float).eps * abs(top)
    if not rounding <= 1e-3:
        raise NumericalError(
            f"E max|N|^q is not resolved in double precision at q = {q!r}")
    lo = max(0.0, peak - 40.0 * max(1.0, peak / math.sqrt(q - 1.0)))
    mass = sum(integrate.quad(lambda u: math.exp(log_f(u) - top), a, b, limit=200,
                              epsabs=0.0, epsrel=max(1e-10, rounding))[0]
               for a, b in ((lo, peak), (peak, peak + 40.0)))
    return math.exp((top + math.log(mass)) / q)


# ---------------------------------------------------------------------------
# Profile container
# ---------------------------------------------------------------------------

@dataclass
class AuxNorms:
    """Uniform adjusted norms Psi at auxiliary (order, decay) pairs.

    The suffix encodes the pair: psi_3_0 is Psi_{3,0}; psi_4_a is
    Psi_{4,alpha} at the profile's own alpha.
    """

    psi_2_0: float | None = None
    psi_2_a: float | None = None
    psi_3_0: float | None = None
    psi_4_0: float | None = None
    psi_4_a: float | None = None
    psi_6_0: float | None = None
    psi_8_0: float | None = None

    def to_dict(self):
        return asdict(self)


# DependenceProfile fields written under another JSON name
_JSON_NAMES = {"Psi": "Psi_q_alpha", "Upsilon": "Upsilon_q_alpha",
               "sup_norm": "Linf_norm_q_alpha", "Theta": "Theta_q_alpha",
               "Phi": "Phi_psinu_alpha", "Phi_0": "Phi_psinu_0"}


@dataclass
class DependenceProfile:
    """Per-coordinate dependence measures and their high-dimensional aggregates."""

    q: float
    alpha: float
    p: int
    Psi: float
    Upsilon: float
    sup_norm: float          # || |X|_inf ||_{q, alpha}
    Theta: float
    delta: np.ndarray | None = None      # (lags+1, p)
    Delta: np.ndarray | None = None      # (lags+1, p) tail sums
    coord_norms: np.ndarray | None = None
    omega: np.ndarray | None = None      # (lags+1,)
    Omega: np.ndarray | None = None
    Phi: float | None = None             # Phi_{psi_nu, alpha}
    Phi_0: float | None = None           # Phi_{psi_nu, 0}
    nu: float | None = None
    aux: AuxNorms = field(default_factory=AuxNorms)
    delta_se: np.ndarray | None = None
    omega_se: np.ndarray | None = None
    source: dict = field(default_factory=lambda: {"kind": "synthetic"})

    def to_json_dict(self) -> dict:
        """Every field, under its _JSON_NAMES name where it has one; arrays
        as lists and aux as a dict."""
        def plain(value):
            if isinstance(value, np.ndarray):
                return value.tolist()
            return value.to_dict() if isinstance(value, AuxNorms) else value
        return {_JSON_NAMES.get(f.name, f.name): plain(getattr(self, f.name))
                for f in fields(self)}

    @staticmethod
    def from_json_dict(d) -> "DependenceProfile":
        """Inverse of to_json_dict; a key that is unknown, missing while
        required, or of the wrong type raises ValidationError naming it."""
        return _record_from_json(DependenceProfile, d, "profile")


def _record_from_json(cls, d, where: str):
    """Instance of the dataclass cls (DependenceProfile or AuxNorms) from
    a JSON object, checking each value against its field's annotation."""
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(d).__name__}")
    by_key = {_JSON_NAMES.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(d) - set(by_key))
    if unknown:
        raise ValidationError(f"{where} has unknown key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, f in by_key.items():
        if key in d:
            kwargs[f.name] = _value_from_json(f.type, d[key], f"{where} key {key!r}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{where} lacks the required key {key!r}")
    return cls(**kwargs)


def _value_from_json(annotation: str, value, where: str):
    kind, _, optional = annotation.partition(" | ")
    if kind == "AuxNorms":
        return AuxNorms() if value is None else _record_from_json(AuxNorms, value, where)
    if value is None and optional:
        return None
    if kind == "np.ndarray":
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{where} is not a numeric array") from None
    if kind in ("float", "int") and (
            isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValidationError(f"{where} is not a number: {value!r}")
    return value


def adjusted_norm(Delta, alpha: float) -> float:
    """sup_m (m+1)^alpha * Delta_m over the stored range of tail sums.

    For processes with a finite lag cutoff the stored range is exhaustive
    (the tail sums vanish beyond it), so the supremum is exact.
    """
    Delta = np.asarray(Delta, dtype=float)
    if Delta.size == 0:
        raise ValidationError("adjusted_norm needs at least one tail sum")
    return float(adjusted_norms(Delta[:, None], alpha)[0])


def adjusted_norms(Delta: np.ndarray, alpha: float) -> np.ndarray:
    """adjusted_norm of each column of a (lags, k) array of tail sums."""
    m = np.arange(Delta.shape[0], dtype=float)
    return np.max(((m + 1.0) ** alpha)[:, None] * Delta, axis=0)


def _tail_sums(values: np.ndarray) -> np.ndarray:
    """Delta[m] = sum_{i >= m} values[i] along axis 0 (same shape as input)."""
    return np.flip(np.cumsum(np.flip(values, axis=0), axis=0), axis=0)


def _coord_scale(spec: ProcessSpec, order: float) -> np.ndarray:
    """kappa_j with delta_{i,order,j} = c_i kappa_j; exact for Gaussian
    innovations, and for any law with a closed coupling moment when h = 0."""
    return spec.innovation.diff_norm(order) * np.linalg.norm(spec.cross_mixer(), axis=1)


def _coord_aggregate(Delta: np.ndarray, q: float, alpha: float):
    """(coord_norms, Psi, Upsilon) from the per-coordinate tail sums.

    Upsilon = (sum_j c_j^q)^(1/q); where that sum overflows, it is taken as
    m (sum_j (c_j/m)^q)^(1/q) with m = max_j c_j, which is finite wherever
    the norms are.
    """
    coord_norms = adjusted_norms(Delta, alpha)
    Psi = float(np.max(coord_norms))
    with np.errstate(over="ignore"):
        Upsilon = float(np.sum(coord_norms ** q) ** (1.0 / q))
    if math.isinf(Upsilon) and math.isfinite(Psi):
        Upsilon = Psi * float(np.sum((coord_norms / Psi) ** q) ** (1.0 / q))
    return coord_norms, Psi, Upsilon


def _linf_aggregate(Omega: np.ndarray, Upsilon: float, alpha: float, p: int):
    """(sup_norm, Theta) from the tail sums of the L^inf measure."""
    sup_norm = adjusted_norm(Omega, alpha)
    return sup_norm, min(Upsilon, sup_norm * math.log(p))


def _check_order(q: float) -> None:
    if not 2.0 <= q < math.inf:
        raise ValidationError(f"need a finite moment order q >= 2, got {q}")


def _check_mc_order(spec: ProcessSpec, q: float) -> None:
    """The order checks of the Monte Carlo norms: finite q >= 2 that the law admits."""
    _check_order(q)
    if not spec.innovation.admits_moment(q):
        raise ValidationError(
            f"innovation law {spec.innovation.kind} has no finite moment of order {q}")


def _set_aux(aux: AuxNorms, order: float, psi0: float, psia: float) -> None:
    """Store Psi_{order,0}, and Psi_{order,alpha} where AuxNorms has it."""
    name_0, name_a = _AUX_NAMES[order]
    setattr(aux, name_0, psi0)
    if name_a:
        setattr(aux, name_a, psia)


# ---------------------------------------------------------------------------
# Closed-form profiles
# ---------------------------------------------------------------------------

def _sup_q_scaling(nu: float) -> float:
    """sup_{q >= 2} (E|N|^q)^{1/q} / q^nu = 2^{-nu} for nu >= 1/2: c_q / sqrt(q)
    is non-increasing on [2, inf), so the supremum sits at q = 2, where c_2 = 1."""
    if nu < 0.5:
        raise ValidationError(
            f"Gaussian coordinates need nu >= 1/2 for a finite sub-exponential norm, got {nu}")
    return 2.0 ** -nu


def _delta_profile(spec: ProcessSpec, q: float, alpha: float) -> DependenceProfile:
    """closed_form_profile without its L^inf measures (sup_norm and Theta
    NaN, omega and Phi unset), which theoretical_rate without nu never reads."""
    _check_order(q)
    if not math.isfinite(alpha):
        raise ValidationError(f"need a finite alpha, got {alpha}")
    if spec.family not in ("iid", "linear"):
        raise ValidationError(
            f"no closed-form profile for family {spec.family!r}; use mc_profile")
    law = spec.innovation
    if law.kind == "symmetric-pareto":
        raise ValidationError(
            "no closed-form profile for symmetric-pareto innovations; use mc_profile")
    if law.kind == "student-t":
        if spec.h > 0:
            raise ValidationError(
                "closed-form student-t profiles require h = 0; use mc_profile")
        if not law.admits_moment(q):
            raise ValidationError(
                f"student-t(df={law.df}) has no finite moment of order {q}")

    c = spec.lag_weights()                       # (K+1,), [1.0] for iid
    kappa = _coord_scale(spec, q)
    delta = c[:, None] * kappa[None, :]
    Delta = _tail_sums(delta)
    coord_norms, Psi, Upsilon = _coord_aggregate(Delta, q, alpha)

    # uniform norms at auxiliary orders; s_a = sup_m (m+1)^a sum_{i>=m} c_i
    tail_c = _tail_sums(c)
    aux = AuxNorms()
    for order in _AUX_NAMES:
        if law.admits_moment(order):
            k_max = np.max(_coord_scale(spec, order))
            _set_aux(aux, order, float(k_max * adjusted_norm(tail_c, 0.0)),
                     float(k_max * adjusted_norm(tail_c, alpha)))

    return DependenceProfile(
        q=q, alpha=alpha, p=spec.p, Psi=Psi, Upsilon=Upsilon, sup_norm=math.nan,
        Theta=math.nan, delta=delta, Delta=Delta, coord_norms=coord_norms, aux=aux,
        source={"kind": "closed-form"})


@np.errstate(over="ignore", invalid="ignore")
def closed_form_profile(spec: ProcessSpec, q: float, alpha: float,
                        nu: float | None = None) -> DependenceProfile:
    """Exact dependence profile for iid/linear specs with Gaussian or
    student-t innovations.  Norms that overflow come out inf or nan, unwarned.

    Gaussian innovations admit closed forms for every linear combination;
    student-t is supported for h = 0 (single-coordinate rows), with the
    coupling moment computed by quadrature.  The L^inf measures omega use
    quadrature when the cross-section is independent and Monte Carlo
    (10^5 draws from RngContract(0), standard error recorded) otherwise.
    """
    profile = _delta_profile(spec, q, alpha)
    law, p = spec.innovation, spec.p
    c = spec.lag_weights()
    B = spec.cross_mixer()

    omega_se = None
    source = profile.source                      # fresh dict, filled in here
    if p == 1:
        omega_base = float(profile.delta[0, 0])  # kappa_1, as c_0 = 1
        source["omega"] = "scalar"
    elif law.kind == "standard-gaussian" and spec.h == 0:
        omega_base = math.sqrt(2.0) * gaussian_maxabs_moment_root(p, q)
        source["omega"] = "quadrature"
    else:
        gen = RngContract(0).derive("omega-maxabs").generator()
        if law.kind == "standard-gaussian":
            D = math.sqrt(2.0) * gen.standard_normal((_OMEGA_DRAWS, p)) @ B.T
        else:
            D = law.sample(gen, (_OMEGA_DRAWS, p)) - law.sample(gen, (_OMEGA_DRAWS, p))
        v = np.max(np.abs(D), axis=1) ** q
        omega_base = float(np.mean(v) ** (1.0 / q))
        se_mean = float(np.std(v, ddof=1) / math.sqrt(_OMEGA_DRAWS))
        omega_se_base = se_mean / q * np.mean(v) ** (1.0 / q - 1.0)
        omega_se = omega_se_base * c
        source["omega"] = {"mode": "monte-carlo", "draws": _OMEGA_DRAWS}

    omega = omega_base * c
    Omega = _tail_sums(omega)
    sup_norm, Theta = _linf_aggregate(Omega, profile.Upsilon, alpha, p)

    Phi = Phi_0 = None
    if nu is not None:
        if law.kind != "standard-gaussian":
            raise ValidationError(
                "sub-exponential norms are only available in closed form for "
                "Gaussian innovations")
        g = _sup_q_scaling(nu)
        b_max = np.max(np.linalg.norm(B, axis=1))
        tail_c = _tail_sums(c)
        Phi = float(math.sqrt(2.0) * b_max * adjusted_norm(tail_c, alpha) * g)
        Phi_0 = float(math.sqrt(2.0) * b_max * adjusted_norm(tail_c, 0.0) * g)

    return replace(profile, sup_norm=sup_norm, Theta=Theta, omega=omega, Omega=Omega,
                   Phi=Phi, Phi_0=Phi_0, nu=nu, omega_se=omega_se)


# ---------------------------------------------------------------------------
# Monte Carlo profiles
# ---------------------------------------------------------------------------

def _coupled_absdiff(spec: ProcessSpec, q: float, R: int, rng: RngContract,
                     tag: str, lags: int, f=lambda x: x) -> tuple[np.ndarray, np.ndarray]:
    """|f(X) - f(X')| over R coupled paths of lags + 1 steps, shape (R, lags+1, k),
    and the multinomial resample weights (_SE_RESAMPLES, R) of the replications.

    Path r is simulate_coupled on rng.derive(tag, r), and the weights come
    from rng.derive(tag + "-boot"); R and the moment order q are checked
    before any path is simulated.
    """
    if R < 100:
        raise ValidationError(f"need R >= 100 replications, got {R}")
    _check_mc_order(spec, q)

    def absdiff(r: int) -> np.ndarray:
        x, xc = simulate_coupled(spec, lags + 1, rng.derive(tag, r))
        return np.abs(f(x.data) - f(xc.data))

    diffs = np.stack([absdiff(r) for r in range(R)])
    bgen = rng.derive(tag + "-boot").generator()
    weights = bgen.multinomial(R, np.full(R, 1.0 / R), size=_SE_RESAMPLES) / R
    return diffs, weights


def mc_profile(spec: ProcessSpec, q: float, alpha: float, R: int,
               rng: RngContract, lags: int = 30) -> DependenceProfile:
    """Dependence profile estimated from R coupled simulations.

    delta_hat[i, j] = (R^{-1} sum_r |X_ij - X'_ij|^q)^{1/q} from
    simulate_coupled; bootstrap standard errors over replications are
    attached.  Tail sums beyond the simulated horizon are extrapolated
    only for the linear family (scalar lag structure); otherwise they are
    truncated at the recorded horizon.
    """
    absdiff, weights = _coupled_absdiff(spec, q, R, rng, "mc-profile", lags)
    n = lags + 1
    p = spec.p

    def power_mean_root(order: float) -> np.ndarray:
        return np.mean(absdiff ** order, axis=0) ** (1.0 / order)

    delta = power_mean_root(q)

    # multinomial bootstrap over replications for SE bands
    vals_q = absdiff.reshape(R, -1) ** q
    boot = (weights @ vals_q)
    boot = np.clip(boot, 0.0, None) ** (1.0 / q)
    delta_se = boot.std(axis=0, ddof=1).reshape(n, p)

    maxdiff = np.max(absdiff, axis=2)            # (R, n)
    omega = np.mean(maxdiff ** q, axis=0) ** (1.0 / q)
    boot_om = (weights @ (maxdiff ** q)) ** (1.0 / q)
    omega_se = boot_om.std(axis=0, ddof=1)

    source: dict = {"kind": "monte-carlo", "R": R, "lags": lags,
                    "bootstrap": _SE_RESAMPLES}
    law = spec.innovation
    extend = spec.family == "linear" and spec.K > lags
    c = spec.lag_weights()

    def tail_sums(d: np.ndarray, kappa=None) -> np.ndarray:
        """Tail sums of d; for the linear family the scalar lag structure
        d_i = c_i * kappa extends d past the horizon, with kappa from lag 0
        unless given."""
        if extend:
            kappa = d[0] / c[0] if kappa is None else kappa
            d = np.concatenate([d, np.multiply.outer(c[lags + 1:], kappa)])
        return _tail_sums(d)

    kappa = None
    if not extend:
        source["truncation_lag"] = lags
    elif law.kind == "standard-gaussian" or (law.kind == "student-t" and spec.h == 0):
        kappa = _coord_scale(spec, q)
        source["tail"] = "closed-form"
    else:
        source["tail"] = "extrapolated-from-lag-0"
    Delta = tail_sums(delta, kappa)
    Omega = tail_sums(omega)
    coord_norms, Psi, Upsilon = _coord_aggregate(Delta, q, alpha)
    sup_norm, Theta = _linf_aggregate(Omega, Upsilon, alpha, p)

    aux = AuxNorms()
    for order in _AUX_NAMES:
        if law.admits_moment(order):
            D_o = tail_sums(power_mean_root(order))
            _set_aux(aux, order, float(np.max(adjusted_norms(D_o, 0.0))),
                     float(np.max(adjusted_norms(D_o, alpha))))

    return DependenceProfile(
        q=q, alpha=alpha, p=p, Psi=Psi, Upsilon=Upsilon, sup_norm=sup_norm,
        Theta=Theta, delta=delta[:n], Delta=Delta, coord_norms=coord_norms,
        omega=omega[:n], Omega=Omega, aux=aux, delta_se=delta_se,
        omega_se=omega_se, source=source)


# ---------------------------------------------------------------------------
# Condition checking
# ---------------------------------------------------------------------------

@dataclass
class ConditionValue:
    name: str
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf

    @property
    def satisfied(self) -> bool:
        # finite-sample proxy for the asymptotic o(.) statement
        return self.ratio < 1.0

    def to_json_dict(self):
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "ratio": self.ratio, "satisfied": self.satisfied}


@dataclass
class GAConditionReport:
    n: int
    p: float
    q: float
    alpha: float
    nu: float | None
    regime: str
    L1: float | None
    L2: float | None
    L3: float | None
    W1: float | None
    W2: float | None
    W3: float | None
    W4: float | None
    N1: float | None
    N2: float | None
    N3: float | None
    N4: float | None
    F_alpha: float | None
    conditions: list[ConditionValue]
    ultra_c: float | None = None
    alpha_one_flag: bool = False

    def to_json_dict(self) -> dict:
        return {**asdict(self),
                "conditions": [c.to_json_dict() for c in self.conditions]}


def ultra_high_dim_exponent(alpha: float, beta: float) -> float:
    """Largest c with log p = o(n^c) in the sub-exponential regime."""
    if alpha <= 0 or beta <= 0 or beta > 2:
        raise ValidationError(f"need alpha > 0 and 0 < beta <= 2, got {alpha}, {beta}")
    if beta >= 2.0 / 3.0:
        return 1.0 / (8.0 + 2.0 / alpha + 2.0 / beta)
    if beta >= 0.5:
        return 1.0 / (7.0 + (1.0 / beta + 0.5) * (1.0 / alpha + 2.0))
    return 1.0 / (3.0 + 2.0 / beta + (1.0 / beta + 0.5) * (1.0 / alpha + 2.0))


def power_law_min_tau(kappa1: float, kappa2: float, q: float, alpha: float) -> float:
    """Smallest growth exponent tau (n ~ p^tau) validating the approximation
    when Psi ~ p^kappa1 and Theta ~ p^kappa2."""
    if not 0 <= kappa1 <= kappa2:
        raise ValidationError(f"need 0 <= kappa1 <= kappa2, got {kappa1}, {kappa2}")
    boundary = 0.5 - 1.0 / q
    if alpha == boundary:
        raise BoundaryError(f"alpha = 1/2 - 1/q = {boundary} is excluded")
    base = 2.0 * kappa1 / alpha + 8.0 * kappa1
    if alpha > boundary:
        return max(kappa2 / boundary, base, (2.0 / q) * base + 2.0 * kappa2)
    return max(kappa2 / alpha, base, (1.0 - 2.0 * alpha) * base + 2.0 * kappa2)


def ga_condition_check(profile: DependenceProfile, n: int,
                       p: float | None = None, nu: float | None = None
                       ) -> GAConditionReport:
    """Evaluate every explicit approximation condition at finite (n, p).

    Each condition is reported as left/right values with a satisfied flag
    (ratio < 1 as the finite-sample proxy for the o(.) statement).  Norms not
    finite and > 0 and a nu outside [0, inf) raise ValidationError;
    arithmetic that leaves the float range raises NumericalError.
    """
    try:
        return _ga_conditions(profile, n, p, nu)
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"condition arithmetic left the float range: {exc}") from None


def _ga_conditions(profile: DependenceProfile, n: int, p, nu) -> GAConditionReport:
    q, alpha = profile.q, profile.alpha
    p = float(p if p is not None else profile.p)
    _check_order(q)
    if not (math.isfinite(alpha) and math.isfinite(p)):
        raise ValidationError(f"need a finite alpha and p, got {alpha} and {p}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    if p <= 1:
        raise ValidationError(f"need p > 1 so that log p > 0, got {p}")
    if alpha <= 0:
        raise ValidationError(f"need alpha > 0, got {alpha}")
    boundary = 0.5 - 1.0 / q
    if abs(alpha - boundary) < 1e-12:
        raise BoundaryError(
            f"alpha = 1/2 - 1/q = {boundary} sits on the regime boundary")
    nu = nu if nu is not None else profile.nu
    if nu is not None and not 0.0 <= nu < math.inf:
        raise ValidationError(f"need a finite nu >= 0, got {nu}")

    lp = math.log(p)
    lpn = math.log(p * n)
    Theta = profile.Theta
    aux = profile.aux
    need = {"Psi_2_alpha": aux.psi_2_a, "Psi_2_0": aux.psi_2_0,
            "Psi_3_0": aux.psi_3_0, "Psi_4_0": aux.psi_4_0}
    missing = [k for k, v in need.items() if v is None]
    if missing:
        raise ValidationError(f"profile lacks auxiliary norms: {', '.join(missing)}")
    norms = {"Psi": profile.Psi, "Upsilon": profile.Upsilon, "sup_norm": profile.sup_norm,
             "Theta": Theta, "Phi": profile.Phi, "Phi_0": profile.Phi_0, **need}
    bad = [k for k, v in norms.items() if v is not None and not 0.0 < v < math.inf]
    if bad:
        raise ValidationError(f"profile norms must be finite and > 0: {', '.join(bad)}")

    L1 = (n ** (1.0 / q - 0.5) * lp ** 0.5 * Theta) ** (1.0 / (alpha - 0.5 + 1.0 / q)) \
        if alpha > boundary else None
    L2 = (aux.psi_2_a * aux.psi_2_0 * lp ** 2) ** (1.0 / alpha)
    W1 = (aux.psi_3_0 ** 6 + aux.psi_4_0 ** 4) * lpn ** 7
    W2 = aux.psi_2_a ** 2 * lpn ** 4
    W3 = (n ** (-alpha) * lpn ** 1.5 * Theta) ** (1.0 / (0.5 - alpha - 1.0 / q)) \
        if alpha < boundary else None
    N1 = (n / lp) ** (q / 2.0) / Theta ** q
    N2 = n * lp ** (-2.0) * aux.psi_2_a ** (-2.0)
    N3 = (n ** 0.5 * lp ** (-0.5) / Theta) ** (1.0 / (0.5 - alpha)) \
        if alpha < 0.5 else None

    plan = plan_blocks(n)
    try:
        F_alpha = f_alpha_factor(q, alpha, plan.w, plan.M)
    except BoundaryError:
        F_alpha = None

    conditions: list[ConditionValue] = []
    alpha_one = abs(alpha - 1.0) < 1e-12
    if alpha > boundary:
        regime = "weaker"
        conditions.append(ConditionValue(
            "decay:Theta*n^(1/q-1/2)*log(pn)^(3/2)",
            Theta * n ** (1.0 / q - 0.5) * lpn ** 1.5, 1.0))
        conditions.append(ConditionValue(
            "balance:max(L1,L2)*max(W1,W2)<min(N1,N2)",
            max(L1, L2) * max(W1, W2), min(N1, N2)))
        if alpha_one:
            conditions.append(ConditionValue(
                "alpha=1:max(W1,W2)<n/(L2*log n)",
                max(W1, W2), n / (L2 * math.log(n))))
    else:
        regime = "stronger"
        conditions.append(ConditionValue(
            "decay:Theta*sqrt(log p)<n^alpha",
            Theta * lp ** 0.5, n ** alpha))
        conditions.append(ConditionValue(
            "balance:L2*max(W1,W2,W3)<min(N2,N3)",
            L2 * max(W1, W2, W3), min(N2, N3)))

    L3 = N4 = W4 = ultra_c = None
    if nu is not None:
        if profile.Phi is None or profile.Phi_0 is None:
            raise ValidationError(
                "sub-exponential check requested but the profile has no "
                "finite Phi norms")
        regime = "sub-exponential"
        beta = 2.0 / (1.0 + 2.0 * nu)
        L3 = (lp ** (1.0 / beta + 0.5) * profile.Phi) ** (1.0 / alpha)
        N4 = n * lp ** (-1.0 - 2.0 / beta) * profile.Phi_0 ** (-2.0)
        W4 = lpn ** (3.0 + 2.0 / beta) * profile.Phi_0 ** 2 + lpn ** 4
        conditions.append(ConditionValue(
            "subexp:max(L2,L3)*max(W1,W4)<N4",
            max(L2, L3) * max(W1, W4), N4))
        conditions.append(ConditionValue(
            "subexp:L2^alpha*max(W1,W4)<n",
            L2 ** alpha * max(W1, W4), float(n)))
        if alpha_one:
            conditions.append(ConditionValue(
                "alpha=1:max(W1,W4)<n/(L2*log n)",
                max(W1, W4), n / (L2 * math.log(n))))
        ultra_c = ultra_high_dim_exponent(alpha, beta)
    values = [L1, L2, L3, W1, W2, W3, W4, N1, N2, N3, N4] + [
        v for c in conditions for v in (c.lhs, c.rhs)]
    if not all(math.isfinite(v) for v in values if v is not None):
        raise OverflowError("a condition value is not finite")

    return GAConditionReport(
        n=n, p=p, q=q, alpha=alpha, nu=nu, regime=regime,
        L1=L1, L2=L2, L3=L3, W1=W1, W2=W2, W3=W3, W4=W4,
        N1=N1, N2=N2, N3=N3, N4=N4, F_alpha=F_alpha,
        conditions=conditions, ultra_c=ultra_c, alpha_one_flag=alpha_one)
