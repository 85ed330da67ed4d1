"""Special functions for the test-function machinery.

Provides the modified Bessel function of the second kind K_nu (by direct
quadrature of its integral representation), the radial eigenfunction phi
of the Laplacian (Delta phi = phi), the time profile rho built from K,
and the separable test function psi(r, t) = rho(t) * phi(r).

Everything is evaluated in scaled/log form internally so that the e^{+-t}
factors never overflow double precision; plain-valued accessors exponentiate
at the end and log-valued accessors are exposed for the monitor layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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

# Fixed 256-node rule on [0, pi] for the sphere-average reduction of phi.
_PHI_NODES, _PHI_WEIGHTS = _gauss_legendre(256)
_PHI_THETA = 0.5 * math.pi * (_PHI_NODES + 1.0)
_PHI_W = 0.5 * math.pi * _PHI_WEIGHTS


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


def _kv_scaled(nu: float, t: float, cfg: BesselEvalConfig) -> float:
    """Scaled integral I(nu, t) = e^t K_nu(t), by panel-doubled Gauss-Legendre."""
    zmax = _zeta_max(nu, t, cfg)
    base_x, base_w = _gauss_legendre(_PANEL_NODES)

    def estimate(panels: int) -> float:
        edges = np.linspace(0.0, zmax, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        z = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
        w = (half[:, None] * base_w[None, :]).ravel()
        vals = np.exp(-t * (np.cosh(z) - 1.0)) * np.cosh(nu * z)
        return float(np.dot(w, vals))

    panels = 1
    prev = estimate(panels)
    while True:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) <= cfg.tol * max(1.0, abs(cur)):
            # One extra doubling drives the error far below the stopping
            # tolerance so downstream finite differences see a smooth map.
            if panels * 2 * _PANEL_NODES <= cfg.max_nodes:
                cur = estimate(panels * 2)
            return cur
        if panels * 2 * _PANEL_NODES > cfg.max_nodes:
            raise AccuracyError(
                f"K_nu quadrature did not reach tol={cfg.tol} within "
                f"{cfg.max_nodes} nodes (nu={nu}, t={t})"
            )
        prev = cur


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
        core = np.exp(r_arr[..., None] * np.cos(_PHI_THETA)) * np.sin(_PHI_THETA) ** (
            N - 2
        )
        out = _sphere_area(N - 2) * core @ _PHI_W
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
        core = np.exp(r_arr[..., None] * (np.cos(_PHI_THETA) - 1.0)) * np.sin(
            _PHI_THETA
        ) ** (N - 2)
        out = r_arr + np.log(_sphere_area(N - 2) * (core @ _PHI_W))
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
