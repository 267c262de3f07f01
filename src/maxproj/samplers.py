"""Random generation for the alternative distributions of the power study.

All alternatives are specified by small frozen dataclasses; :func:`sample`
draws exact iid variates from them.

The rotationally symmetric families (von Mises-Fisher, Watson, the
Legendre-profile class) share one exact sampler: the cosine t = theta . X is
drawn by rejection, proposing from the *uniform* projection law
((t+1)/2 ~ Beta((d-1)/2, (d-1)/2)) and accepting with probability
w(t)/max w, where w is the family's angular profile.  The proposal already
carries the (1-t^2)^{(d-3)/2} geometry factor, so the envelope constant is
simply max w: exp(kappa) for exp(kappa t) and exp(kappa t^2), and 1 + kappa
for the profile 1 + kappa P_m.  Each profile is written pre-divided by that
maximum, so it is the acceptance probability itself.  The remaining tangent
direction is uniform on the equator subsphere.

The Bingham family (density proportional to exp(x' A x)) is not rotationally
symmetric and uses rejection from an angular central Gaussian proposal with a
one-dimensional tuning constant, found by bisection once per spectrum.  Both
rejection samplers raise :class:`NumericalError` when their acceptance rate
falls below ``_MIN_ACCEPT``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._errors import InputError, NumericalError
from .geometry import as_unit_vector, uniform_points
from .legendre import legendre_eval
from .rng import as_generator

#: lowest acceptance rate of either rejection sampler, which then raises
_MIN_ACCEPT = 1e-4
#: candidates proposed before the acceptance rate is checked
_ACCEPT_WINDOW = 200_000
#: highest order of a Legendre profile: the float monomial form of P_m stays
#: within 1e-10 of [-1, 1] on [-1, 1] up to here for every d, and above it
#: rounding grows until the density is wrong (|P_100| reaches 2e16)
MAX_PROFILE_ORDER = 20


@dataclass(frozen=True)
class Uniform:
    d: int


@dataclass(frozen=True)
class VonMisesFisher:
    theta: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "theta", as_unit_vector(self.theta))
        if self.kappa < 0:
            raise InputError("concentration must be >= 0")

    @property
    def d(self):
        return self.theta.shape[0]


@dataclass(frozen=True)
class Watson:
    theta: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "theta", as_unit_vector(self.theta))
        if self.kappa < 0:
            raise InputError("negative Watson concentration is out of scope")

    @property
    def d(self):
        return self.theta.shape[0]


@dataclass(frozen=True)
class LegendreProfile:
    """Density (1 + kappa P_m(theta . x)) / |S^{d-1}|, kappa in [0, 1]."""

    m: int
    theta: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "theta", as_unit_vector(self.theta))
        if not 1 <= self.m <= MAX_PROFILE_ORDER:
            raise InputError(f"profile order must lie in 1..{MAX_PROFILE_ORDER}, got {self.m}")
        if not 0.0 <= self.kappa <= 1.0:
            raise InputError("kappa must lie in [0, 1] for a non-negative density")

    @property
    def d(self):
        return self.theta.shape[0]


@dataclass(frozen=True)
class Bingham:
    """Density exp(x' A x) / c(d, A) with symmetric A."""

    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError("A must be a square matrix")
        if np.max(np.abs(A - A.T)) > 1e-12:
            raise InputError("A must be symmetric")
        object.__setattr__(self, "A", (A + A.T) / 2.0)

    @property
    def d(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class MixtureVMF:
    """Finite mixture of von Mises-Fisher components."""

    weights: tuple
    components: tuple  # VonMisesFisher instances

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) != len(self.components) or not self.components:
            raise InputError("need one weight per component")
        if not all(x > 0 for x in w) or abs(sum(w) - 1.0) > 1e-12:  # NaN is not > 0
            raise InputError(f"weights must be positive and sum to 1, got {w}")
        ds = {c.d for c in self.components}
        if len(ds) != 1:
            raise InputError("components must share the dimension")
        object.__setattr__(self, "weights", w)

    @property
    def d(self):
        return self.components[0].d


# ---------------------------------------------------------------------------
# sampling


def _cosine_profile(spec):
    """The family's profile pre-divided by its maximum, w(t) / max w, vectorized."""
    if isinstance(spec, VonMisesFisher):
        k = spec.kappa
        return lambda t: np.exp(k * (t - 1.0))
    if isinstance(spec, Watson):
        k = spec.kappa
        return lambda t: np.exp(k * (t * t - 1.0))
    if isinstance(spec, LegendreProfile):
        k, m, d = spec.kappa, spec.m, spec.d
        return lambda t: (1.0 + k * legendre_eval(d, m, t)) / (1.0 + k)
    raise InputError(f"not a rotationally symmetric family: {spec}")


def _rejection(out, propose, what):
    """Fill ``out`` along its first axis with accepted proposals and return it.

    ``propose(block)`` draws ``block`` candidates and returns them with the
    mask of the accepted ones.  Blocks hold at least 2048 candidates and twice
    the number still missing.  Once ``_ACCEPT_WINDOW`` candidates have been
    proposed, an acceptance rate below ``_MIN_ACCEPT`` raises
    :class:`NumericalError`, naming the sampler as ``what``.
    """
    n = out.shape[0]
    filled = proposed = accepted = 0
    while filled < n:
        block = max(2048, 2 * (n - filled))
        cand, keep = propose(block)
        got = cand[keep]
        take = min(got.shape[0], n - filled)
        out[filled : filled + take] = got[:take]
        filled += take
        proposed += block
        accepted += got.shape[0]
        if proposed >= _ACCEPT_WINDOW and accepted < _MIN_ACCEPT * proposed:
            raise NumericalError(
                f"{what} rejection acceptance {accepted/proposed:.2e} below {_MIN_ACCEPT:g}"
            )
    return out


def _sample_cosines(spec, n, rng):
    ratio = _cosine_profile(spec)
    a = (spec.d - 1) / 2.0

    def propose(block):
        t = 2.0 * rng.beta(a, a, size=block) - 1.0
        return t, rng.random(block) <= ratio(t)

    return _rejection(np.empty(n), propose, "cosine")


def _equator_directions(theta, n, rng):
    """Uniform directions on the subsphere orthogonal to theta."""
    d = theta.shape[0]
    z = rng.standard_normal((n, d))
    z -= np.outer(z @ theta, theta)
    norms = np.linalg.norm(z, axis=1)
    while (redo := norms < 1e-12).any():
        fresh = rng.standard_normal((int(redo.sum()), d))
        fresh -= np.outer(fresh @ theta, theta)
        z[redo] = fresh
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def _sample_symmetric(spec, n, rng):
    t = _sample_cosines(spec, n, rng)
    xi = _equator_directions(spec.theta, n, rng)
    return t[:, None] * spec.theta[None, :] + np.sqrt(1.0 - t * t)[:, None] * xi


@lru_cache(maxsize=64)
def _bingham_tuning(shifted_eigs):
    """Proposal constant b in [1, d] solving f(b) = sum 1/(b + 2 a_i) - 1 = 0.

    ``shifted_eigs`` is the tuple of the d values a_i >= 0, one of them 0.
    f decreases in b, f(1) >= 0 because of the zero a_i and f(d) <= 0, so
    bisection down to adjacent doubles brackets the root; the end with the
    smaller |f| is returned.  Cached on the spectrum, so a spec is solved once
    however many samples it draws.
    """
    a2 = 2.0 * np.array(shifted_eigs)

    def f(b):
        return float(np.sum(1.0 / (b + a2)) - 1.0)

    lo, hi = 1.0, float(a2.shape[0])
    if abs(f(hi)) < 1e-13:  # all a_i = 0: the root is d, where f(d) = 0 up to rounding
        return hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo if abs(f(lo)) <= abs(f(hi)) else hi


def _sample_bingham(spec, n, rng):
    d = spec.d
    eigs, vecs = np.linalg.eigh(spec.A)
    a = eigs.max() - eigs  # >= 0, exp(x'Ax) ∝ exp(-x' diag(a) x) in eigencoords
    b = _bingham_tuning(tuple(a.tolist()))
    log_m = -(d - b) / 2.0 + (d / 2.0) * math.log(d / b)
    prop_sd = np.sqrt(1.0 / (1.0 + 2.0 * a / b))

    def propose(block):
        y = rng.standard_normal((block, d)) * prop_sd
        x = y / np.linalg.norm(y, axis=1)[:, None]
        s = (x * x) @ a
        log_ratio = -s + (d / 2.0) * np.log1p(2.0 * s / b) - log_m
        return x, np.log(rng.random(block)) <= log_ratio

    return _rejection(np.empty((n, d)), propose, "Bingham") @ vecs.T


def sample(spec, n, rng):
    """Draw ``n`` iid variates from ``spec``; deterministic given ``rng``.

    Returns an ``(n, d)`` array of unit rows.
    """
    if n < 1:
        raise InputError(f"need n >= 1 draws, got {n}")
    rng = as_generator(rng)
    if isinstance(spec, Uniform):
        return uniform_points(spec.d, n, rng)
    if isinstance(spec, (VonMisesFisher, Watson, LegendreProfile)):
        if spec.kappa == 0.0:
            return uniform_points(spec.d, n, rng)
        return _sample_symmetric(spec, n, rng)
    if isinstance(spec, Bingham):
        return _sample_bingham(spec, n, rng)
    if isinstance(spec, MixtureVMF):
        u = rng.random(n)
        edges = np.cumsum(spec.weights)
        labels = np.searchsorted(edges, u, side="right")
        labels = np.minimum(labels, len(spec.components) - 1)
        out = np.empty((n, spec.d))
        for i, comp in enumerate(spec.components):
            idx = np.flatnonzero(labels == i)
            if idx.size:
                out[idx] = sample(comp, idx.size, rng)
        return out
    raise InputError(f"unknown alternative spec: {spec!r}")


# ---------------------------------------------------------------------------
# study presets and CLI spec strings


def _theta1(d):
    v = np.zeros(d)
    v[0] = 1.0
    return v


def _theta2(d):
    return as_unit_vector(-np.ones(d))


def _theta3(d):
    v = np.ones(d)
    v[0] = -1.0
    return as_unit_vector(v)


def _a1(d):
    return np.diag(np.arange(1.0, d + 1.0))


def _a2(d):
    out = np.zeros((d, d))
    out[0, 0] = -float(d)
    out[-1, -1] = float(d)
    return out


def _mix2(d, kw):
    """mixvmf1/mixvmf2: weights (p, 1-p) on vMF(-e1, k1) and vMF(e1, k2)."""
    p = kw["p"]
    return MixtureVMF((p, 1.0 - p), (VonMisesFisher(-_theta1(d), kw["k1"]),
                                     VonMisesFisher(_theta1(d), kw["k2"])))


def _mix3(d, kw):
    """mixvmf3/mixvmf4: weights (p, p, 1-2p) on vMF(theta2, k1), vMF(theta3, k2), vMF(e1, k3)."""
    p = kw["p"]
    return MixtureVMF((p, p, 1.0 - 2.0 * p), (VonMisesFisher(_theta2(d), kw["k1"]),
                                              VonMisesFisher(_theta3(d), kw["k2"]),
                                              VonMisesFisher(_theta1(d), kw["k3"])))


#: preset -> (required keys, optional keys with their defaults, builder of the
#: spec from the dimension and the full parameter dict)
PRESETS = {
    "uniform": ((), {}, lambda d, kw: Uniform(d)),
    "vmf1": (("kappa",), {}, lambda d, kw: VonMisesFisher(_theta1(d), kw["kappa"])),
    "mixvmf1": (("p",), {"k1": 1.0, "k2": 1.0}, _mix2),
    "mixvmf2": (("p",), {"k1": 1.0, "k2": 4.0}, _mix2),
    "mixvmf3": (("p",), {"k1": 2.0, "k2": 3.0, "k3": 3.0}, _mix3),
    "mixvmf4": (("p",), {"k1": 2.0, "k2": 3.0, "k3": 4.0}, _mix3),
    "bing1": (("kappa",), {}, lambda d, kw: Bingham(kw["kappa"] * _a1(d))),
    "bing2": (("kappa",), {}, lambda d, kw: Bingham(kw["kappa"] * _a2(d))),
    "lp": (("m", "kappa"), {}, lambda d, kw: LegendreProfile(
        int(kw["m"]), _theta1(d), kw["kappa"])),
}


def preset(name, d, **params):
    """Named alternatives of the simulation study.

    vmf1(kappa); mixvmf1(p)/mixvmf2(p) with antipodal centers;
    mixvmf3(p)/mixvmf4(p) with three centers; bing1(kappa)/bing2(kappa);
    lp(m, kappa); uniform.  :data:`PRESETS` lists each one's required and
    optional keys.  A missing or unknown key, a non-finite value, an ``m``
    that is not an integer in 1..:data:`MAX_PROFILE_ORDER` or a ``p`` that
    leaves a mixture weight at or below 0 raises :class:`InputError`, its
    message prefixed with the preset's name.
    """
    name = name.lower()
    if name not in PRESETS:
        raise InputError(f"unknown alternative preset {name!r}")
    required, optional, build = PRESETS[name]
    keys = (*required, *optional)
    for key, value in params.items():
        if key not in keys:
            raise InputError(f"preset {name!r} takes {', '.join(keys) or 'no parameters'}, "
                             f"not {key!r}")
        if not math.isfinite(value):
            raise InputError(f"preset {name!r}: {key}={value} is not finite")
    for key in required:
        if key not in params:
            raise InputError(f"preset {name!r} needs the parameter {key!r}")
    if name == "lp" and params["m"] != int(params["m"]):
        raise InputError(f"preset 'lp': the order m must be an integer, got {params['m']}")
    try:
        return build(d, {**optional, **params})
    except InputError as err:
        raise InputError(f"preset {name!r}: {err}") from None


def parse_alternative(text, d):
    """Parse shorthand like ``vmf:kappa=1`` or ``lp:m=3,kappa=1``.

    The leading token is a preset name (``vmf`` aliases ``vmf1``); parameters
    follow after a colon as comma-separated ``key=value`` pairs.
    """
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    if name == "vmf":
        name = "vmf1"
    params = {}
    for chunk in rest.split(","):
        if not chunk:
            continue
        key, _, val = chunk.partition("=")
        if not val:
            raise InputError(f"malformed alternative parameter {chunk!r} in {text!r}")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise InputError(f"preset {name!r}: {key.strip()}={val!r} is not a number") from None
    label = text if params else name
    return label, preset(name, d, **params)
