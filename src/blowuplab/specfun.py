"""Special functions for the test-function machinery.

Provides the modified Bessel function of the second kind K_nu (by direct
quadrature of its integral representation), the radial eigenfunction phi
of the Laplacian (Delta phi = phi), the time profile rho built from K,
and the separable test function psi(r, t) = rho(t) * phi(r).

Everything is evaluated in scaled/log form internally so that the e^{+-t}
factors never overflow double precision; plain-valued accessors exponentiate
at the end and log-valued accessors are exposed for the monitor layer.

The K_nu quadrature doubles its panels until two levels agree. It evaluates
the doubling levels in batches, one numpy pass per batch, with each level's
panel edges being np.linspace written out; its results are bitwise those of
evaluating one level at a time.

Every fixed-rule quadrature (phi's sphere average here, c_fg and
lemma31_ratio in functionals) takes one 256-node Gauss-Legendre rule,
fixed_rule, which like the K_nu panel rule is built on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], built once per n.

    Callers share the cached arrays, so they are returned read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# Gauss-Legendre nodes per quadrature panel for K_nu.
_PANEL_NODES = 16

# Nodes of fixed_rule, the one rule of every fixed-rule quadrature.
_FIXED_NODES = 256


def fixed_rule(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """The fixed _FIXED_NODES-point Gauss-Legendre rule on [0, upper]."""
    nodes, weights = _gauss_legendre(_FIXED_NODES)
    return 0.5 * upper * (nodes + 1.0), 0.5 * upper * weights


@dataclass(frozen=True)
class BesselEvalConfig:
    """Evaluation policy for the K_nu quadrature."""

    tol: float = 1e-12
    exp_cap: float = 745.0  # natural-log units; caps the decay of the tail
    max_nodes: int = 1 << 17

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise DomainError(f"tolerance must be positive, got {self.tol}")
        if self.max_nodes < 16:
            raise DomainError(f"node budget must be >= 16, got {self.max_nodes}")


@dataclass(frozen=True)
class TestFunctionContext:
    """Precomputed setting for psi(r, t) = rho(t) * phi(r)."""

    N: int
    mu: float
    R: float = 1.0
    bessel: BesselEvalConfig = field(default_factory=BesselEvalConfig)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError(f"dimension must be >= 1, got {self.N}")
        if self.mu < 0:
            raise DomainError(f"damping coefficient must be >= 0, got {self.mu}")
        if not self.R > 0:
            raise DomainError(f"support radius must be positive, got {self.R}")


def _zeta_max(nu: float, t: float, cfg: BesselEvalConfig) -> float:
    # Truncate where exp(-t(cosh z - 1)) * cosh(nu z) is negligible relative
    # to the scaled integral (which is >= O(sqrt(pi/2t)) for t >= cap).
    decay = min(cfg.exp_cap, 60.0 + 20.0 * abs(nu))
    return math.acosh(1.0 + decay / t)


class _PanelLevels(NamedTuple):
    """Panel counts 2**k0 ... 2**(k0+count-1) laid end to end (read-only)."""

    index: np.ndarray  # each level's edge indices 0..P
    per_edge: np.ndarray  # the P of the level each edge belongs to
    left: np.ndarray  # each panel's left edge position
    right: np.ndarray  # each panel's right edge position
    levels: tuple[slice, ...]  # each level's nodes, by their offsets

    def edges(self, zmax: float) -> np.ndarray:
        # np.linspace(0, zmax, P + 1) written out: arange * (delta / div).
        # linspace then sets the endpoint to zmax; P is a power of two, so
        # P * (zmax / P) is zmax already.
        return self.index * (zmax / self.per_edge)


@functools.cache
def _panel_levels(k0: int, count: int) -> _PanelLevels:
    """The layout of levels k0 ... k0+count-1, built on first use."""
    panels = [1 << k for k in range(k0, k0 + count)]
    starts = np.cumsum([0] + [P + 1 for P in panels])
    right = np.concatenate([s + np.arange(1, P + 1) for s, P in zip(starts, panels)])
    offsets = [_PANEL_NODES * n for n in itertools.accumulate(panels, initial=0)]
    layout = _PanelLevels(
        index=np.concatenate([np.arange(P + 1, dtype=float) for P in panels]),
        per_edge=np.repeat(np.array(panels, dtype=float), [P + 1 for P in panels]),
        left=right - 1,
        right=right,
        levels=tuple(map(slice, offsets[:-1], offsets[1:])),
    )
    for arr in layout[:-1]:
        arr.flags.writeable = False
    return layout


def _level_estimates(nu: float, t: float, zmax: float, k0: int, count: int) -> list[float]:
    """Panel-rule estimates of I(nu, t) at 2**k0 ... 2**(k0+count-1) panels.

    All levels share one pass over their nodes. Each level's edges are its
    np.linspace written out, and every elementwise step and each level's dot
    product are those of evaluating that level alone, so the estimates are
    bitwise those of evaluating the levels one by one.
    """
    lay = _panel_levels(k0, count)
    base_x, base_w = _gauss_legendre(_PANEL_NODES)
    edges = lay.edges(zmax)
    hi = edges[lay.right]
    lo = edges[lay.left]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    z = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    w = (half[:, None] * base_w[None, :]).ravel()
    vals = np.exp(-t * (np.cosh(z) - 1.0)) * np.cosh(nu * z)
    return [float(np.dot(w[lv], vals[lv])) for lv in lay.levels]


# Doubling levels evaluated together in one pass of _level_estimates.
_BATCH_LEVELS = 4


def _kv_scaled(nu: float, t: float, cfg: BesselEvalConfig) -> float:
    """Scaled integral I(nu, t) = e^t K_nu(t), by panel-doubled Gauss-Legendre.

    Level k splits [0, zmax] into 2**k panels of _PANEL_NODES nodes each.
    Level k is accepted once it agrees with level k-1 to cfg.tol, and then
    level k+1 is returned if it fits the node budget. The levels are
    evaluated _BATCH_LEVELS at a time (never past the budget, except that
    the 2-panel level is always evaluated), and the result is bitwise that
    of doubling one level at a time.
    """
    zmax = _zeta_max(nu, t, cfg)
    # deepest level the node budget admits
    top = max(1, int(cfg.max_nodes // _PANEL_NODES).bit_length() - 1)
    est: list[float] = []

    def level(k: int) -> float:
        while k >= len(est):
            k0 = len(est)
            est.extend(_level_estimates(nu, t, zmax, k0, min(_BATCH_LEVELS, top + 1 - k0)))
        return est[k]

    k = 1
    while True:
        cur = level(k)
        if abs(cur - level(k - 1)) <= cfg.tol * max(1.0, abs(cur)):
            # One extra doubling drives the error far below the stopping
            # tolerance so downstream finite differences see a smooth map.
            return level(k + 1) if k < top else cur
        if k == top:
            raise AccuracyError(
                f"K_nu quadrature did not reach tol={cfg.tol} within "
                f"{cfg.max_nodes} nodes (nu={nu}, t={t})"
            )
        k += 1


def bessel_k(nu: float, t: float, cfg: BesselEvalConfig | None = None) -> float:
    """K_nu(t) = int_0^inf exp(-t cosh z) cosh(nu z) dz, for t > 0."""
    if t <= 0:
        raise DomainError(f"argument must be positive, got t={t}")
    cfg = cfg or BesselEvalConfig()
    return math.exp(-t) * _kv_scaled(nu, t, cfg)


def log_bessel_k(nu: float, t: float, cfg: BesselEvalConfig | None = None) -> float:
    """log K_nu(t); representable even where K itself underflows."""
    if t <= 0:
        raise DomainError(f"argument must be positive, got t={t}")
    cfg = cfg or BesselEvalConfig()
    return -t + math.log(_kv_scaled(nu, t, cfg))


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

    N = 1 gives e^r + e^{-r}; N >= 2 the sphere average of e^{x.omega}
    reduced to a 1-D theta integral.
    """
    if N < 1:
        raise DomainError(f"dimension must be >= 1, got {N}")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("radius must be nonnegative")
    if N == 1:
        out = 2.0 * np.cosh(r_arr)
    else:
        theta, w = fixed_rule(math.pi)
        core = np.exp(r_arr[..., None] * np.cos(theta)) * np.sin(theta) ** (N - 2)
        out = _sphere_area(N - 2) * core @ w
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
    else:
        theta, w = fixed_rule(math.pi)
        core = np.exp(r_arr[..., None] * (np.cos(theta) - 1.0)) * np.sin(theta) ** (N - 2)
        out = r_arr + np.log(_sphere_area(N - 2) * (core @ w))
    return out if np.ndim(r) else float(out)


def rho(ctx: TestFunctionContext, t: float) -> float:
    """rho(t) = (t+1)^{(mu+1)/2} K_{(mu-1)/2}(t+1) > 0."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    nu = (ctx.mu - 1.0) / 2.0
    return (t + 1.0) ** ((ctx.mu + 1.0) / 2.0) * bessel_k(nu, t + 1.0, ctx.bessel)


def log_rho(ctx: TestFunctionContext, t: float) -> float:
    """log rho(t); use for t large enough that e^{-t} underflows."""
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    nu = (ctx.mu - 1.0) / 2.0
    return ((ctx.mu + 1.0) / 2.0) * math.log(t + 1.0) + log_bessel_k(
        nu, t + 1.0, ctx.bessel
    )


def rho_log_derivative(ctx: TestFunctionContext, t: float) -> float:
    """rho'(t)/rho(t) via the exact Bessel-ratio identity.

    Equals mu/(1+t) - K_{(mu+1)/2}(t+1) / K_{(mu-1)/2}(t+1); the scaled
    integrals are used so the e^{-t} factors cancel analytically.
    """
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    hi = _kv_scaled((ctx.mu + 1.0) / 2.0, t + 1.0, ctx.bessel)
    lo = _kv_scaled((ctx.mu - 1.0) / 2.0, t + 1.0, ctx.bessel)
    return ctx.mu / (1.0 + t) - hi / lo


def psi(ctx: TestFunctionContext, r: float, t: float) -> float:
    """psi(r, t) = rho(t) * phi(r)."""
    return rho(ctx, t) * phi(ctx.N, r)


def log_psi(ctx: TestFunctionContext, r, t: float):
    """log psi(r, t) = log rho(t) + log phi(r); overflow-safe."""
    return log_rho(ctx, t) + log_phi(ctx.N, r)
