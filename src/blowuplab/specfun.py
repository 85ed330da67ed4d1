"""Special functions for the test-function machinery.

Provides the modified Bessel function of the second kind K_nu (by direct
quadrature of its integral representation), the radial eigenfunction phi
of the Laplacian (Delta phi = phi) and the time profile rho built from K.
The test function psi(r, t) = rho(t) * phi(r) enters only through its log
factors, log rho(t) + log phi(r), which the monitor and lemma layer add.

Everything is evaluated in scaled/log form internally so that the e^{+-t}
factors never overflow double precision; plain-valued accessors exponentiate
at the end and log-valued accessors are exposed for the monitor layer.

K_nu takes one fixed rule: the trapezoid rule with _KV_STEPS equal steps on
the truncated range. Its integrand is analytic and decays double
exponentially, so the rule converges exponentially and needs no adaptivity.

phi is in closed form for N = 1 and N = 3 (2 cosh r and 4 pi sinh(r)/r).
Every other fixed-rule quadrature (phi's sphere average for N = 2 and
N >= 4 here, c_fg and lemma31_ratio in functionals) takes one 256-node
Gauss-Legendre rule, fixed_rule. Its nodes and weights are data, read on
first use from gauss_legendre_256.txt; K_nu's grid is built on first use.

A batch of points (times for K_nu, radii for phi) is summed in chunks of
rows, each (rows x nodes) temporary holding at most _CHUNK_ELEMENTS values,
so its temporaries do not grow with the batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _FIXED_NODES-point Gauss-Legendre rule on [-1, 1], read once.

    gauss_legendre_256.txt holds np.polynomial.legendre.leggauss(256) exactly:
    one node and its weight per line, as float.hex strings. Callers share the
    cached arrays, so they are returned read-only.
    """
    text = (Path(__file__).parent / f"gauss_legendre_{_FIXED_NODES}.txt").read_text()
    pairs = np.array([float.fromhex(v) for v in text.split()])
    rule = pairs.reshape(_FIXED_NODES, 2).T.copy()
    rule.flags.writeable = False
    return rule[0], rule[1]


# Nodes of fixed_rule, the one Gauss-Legendre rule of every fixed-rule quadrature.
_FIXED_NODES = 256

# Equal steps of the K_nu trapezoid rule.
_KV_STEPS = 64

# Values in one (rows x nodes) temporary of a batched quadrature: 128 KiB.
_CHUNK_ELEMENTS = 1 << 14


def fixed_rule(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """The fixed _FIXED_NODES-point Gauss-Legendre rule on [0, upper]."""
    nodes, weights = _gauss_legendre()
    return 0.5 * upper * (nodes + 1.0), 0.5 * upper * weights


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """The weights of the trapezoid rule on n equally spaced nodes h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _by_rows(row_sums, x, nodes: int) -> np.ndarray:
    """row_sums(chunk) over the points of x, in chunks of rows whose
    (rows x nodes) temporaries hold at most _CHUNK_ELEMENTS values.

    row_sums maps a 1-D chunk of points to one value per point, each summed
    along its own row, so the chunking changes no value. Shaped like x.
    """
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    rows = max(1, _CHUNK_ELEMENTS // nodes)
    for lo in range(0, flat.size, rows):
        out[lo : lo + rows] = row_sums(flat[lo : lo + rows])
    return out.reshape(x.shape)


@functools.cache
def _unit_trapezoid() -> tuple[np.ndarray, np.ndarray]:
    """The _KV_STEPS-step trapezoid rule on [0, 1], built once, read-only."""
    nodes = np.linspace(0.0, 1.0, _KV_STEPS + 1)
    weights = trapezoid_weights(_KV_STEPS + 1, 1.0 / _KV_STEPS)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class TestFunctionContext:
    """Precomputed setting for psi(r, t) = rho(t) * phi(r)."""

    N: int
    mu: float
    R: float = 1.0

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"dimension must be >= 1, got {self.N}")
        if self.mu < 0:
            raise DomainError(f"damping coefficient must be >= 0, got {self.mu}")
        if not self.R > 0:
            raise DomainError(f"support radius must be positive, got {self.R}")


def _zeta_max(nu: float, t):
    # Truncate where exp(-t(cosh z - 1)) * cosh(nu z) is negligible relative
    # to the scaled integral (which is >= O(sqrt(pi/2t)) for large t); the
    # decay is capped at 745, where e^{-decay} falls below the smallest double.
    decay = min(745.0, 60.0 + 20.0 * abs(nu))
    return np.arccosh(1.0 + decay / t)


def _kv_scaled(nu: float, t):
    """I(nu, t) = e^t K_nu(t) = int_0^inf e^{-t(cosh z - 1)} cosh(nu z) dz.

    The trapezoid rule with _KV_STEPS equal steps on [0, _zeta_max]. The
    integrand is even, analytic and decays double exponentially, so the rule
    converges exponentially (Trefethen & Weideman, SIAM Review 2014). It is
    evaluated as e^{-2t sinh^2(z/2)}: cosh z - 1 cancels near z = 0, and the
    cancellation costs relative accuracy at large t. Over t in [0.1, 1e4],
    against 40-digit mpmath, the relative error is at most 1.3e-15 for
    |nu| <= 4 and 3.3e-15 for |nu| <= 8. The rule's own error is far smaller:
    the rest is the rounding of the integrand, whose arguments grow with |nu|.
    t may be an array (a float gives a float): each t sums its nodes along its
    own row, bitwise alike in a batch of any size, which is taken in chunks
    (_by_rows). It is even in nu, bitwise.
    """
    nodes, weights = _unit_trapezoid()

    def row_sums(t):
        zmax = _zeta_max(nu, t)
        z = zmax[:, None] * nodes
        vals = np.exp(-2.0 * t[:, None] * np.sinh(0.5 * z) ** 2) * np.cosh(nu * z)
        return zmax * np.add.reduce(vals * weights, axis=-1)

    out = _by_rows(row_sums, np.asarray(t, dtype=float), nodes.size)
    return out if out.ndim else float(out)


def bessel_k(nu: float, t: float) -> float:
    """K_nu(t) = int_0^inf exp(-t cosh z) cosh(nu z) dz, for t > 0."""
    if t <= 0:
        raise DomainError(f"argument must be positive, got t={t}")
    return math.exp(-t) * _kv_scaled(nu, t)


def log_bessel_k(nu: float, t):
    """log K_nu(t), t a float or an array; representable where K underflows."""
    if np.any(t <= 0):
        raise DomainError(f"argument must be positive, got t={t}")
    return -t + np.log(_kv_scaled(nu, t))


def _sphere_area(n: int) -> float:
    # |S^{n}| for the unit n-sphere embedded in R^{n+1}; |S^0| = 2.
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def surface_area(N: int) -> float:
    """|S^{N-1}|, the area factor of the radial volume element in R^N."""
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    return _sphere_area(N - 1)


def phi(N: int, r):
    """Radial eigenfunction with Delta phi = phi, phi > 0, increasing in r.

    N = 1 gives e^r + e^{-r} and N = 3 gives 4 pi sinh(r)/r; every other N
    the sphere average of e^{x.omega} reduced to a 1-D theta integral, whose
    rule each radius sums along its own row, bitwise alike in any batch,
    which is taken in chunks (_by_rows).
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("radius must be nonnegative")
    if N == 1:
        out = 2.0 * np.cosh(r_arr)
    elif N == 3:  # r = 0 divides by a safe 1.0 and takes the limit 4 pi
        safe = np.where(r_arr == 0, 1.0, r_arr)
        out = np.where(r_arr == 0, 4.0 * math.pi, 4.0 * math.pi * np.sinh(safe) / safe)
    else:
        theta, w = fixed_rule(math.pi)
        cos, sin_pow = np.cos(theta), np.sin(theta) ** (N - 2)
        row_sums = lambda r: np.add.reduce(np.exp(r[:, None] * cos) * sin_pow * w, axis=-1)
        out = _sphere_area(N - 2) * _by_rows(row_sums, r_arr, theta.size)
    return out if np.ndim(r) else float(out)


def log_phi(N: int, r):
    """log phi(N, r), stable for large r (phi grows like e^r)."""
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("radius must be nonnegative")
    if N == 1:
        out = r_arr + np.log1p(np.exp(-2.0 * r_arr))
    elif N == 3:  # log(4 pi sinh(r)/r); r = 0 takes the limit log(4 pi)
        safe = np.where(r_arr == 0, 1.0, r_arr)
        inner = safe + np.log(2.0 * math.pi * -np.expm1(-2.0 * safe) / safe)
        out = np.where(r_arr == 0, math.log(4.0 * math.pi), inner)
    else:
        theta, w = fixed_rule(math.pi)
        cos_m1, sin_pow = np.cos(theta) - 1.0, np.sin(theta) ** (N - 2)
        row_sums = lambda r: np.add.reduce(np.exp(r[:, None] * cos_m1) * sin_pow * w, axis=-1)
        out = r_arr + np.log(_sphere_area(N - 2) * _by_rows(row_sums, r_arr, theta.size))
    return out if np.ndim(r) else float(out)


def rho(ctx: TestFunctionContext, t: float) -> float:
    """rho(t) = (t+1)^{(mu+1)/2} K_{(mu-1)/2}(t+1) > 0."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    nu = (ctx.mu - 1.0) / 2.0
    return (t + 1.0) ** ((ctx.mu + 1.0) / 2.0) * bessel_k(nu, t + 1.0)


def log_rho(ctx: TestFunctionContext, t):
    """log rho(t), t a float or an array; use where e^{-t} underflows."""
    if np.any(t < 0):
        raise DomainError(f"time must be nonnegative, got {t}")
    nu = (ctx.mu - 1.0) / 2.0
    return ((ctx.mu + 1.0) / 2.0) * np.log(t + 1.0) + log_bessel_k(nu, t + 1.0)


def rho_log_derivative(ctx: TestFunctionContext, t):
    """rho'(t)/rho(t), t a float or an array, via the exact Bessel-ratio identity.

    Equals mu/(1+t) - K_{(mu+1)/2}(t+1) / K_{(mu-1)/2}(t+1); the scaled
    integrals are used so the e^{-t} factors cancel analytically.
    """
    if np.any(t < 0):
        raise DomainError(f"time must be nonnegative, got {t}")
    hi = _kv_scaled((ctx.mu + 1.0) / 2.0, t + 1.0)
    lo = _kv_scaled((ctx.mu - 1.0) / 2.0, t + 1.0)
    return ctx.mu / (1.0 + t) - hi / lo
