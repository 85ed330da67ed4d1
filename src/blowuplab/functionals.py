"""Weighted-average functionals monitored along numerical trajectories.

Tracks F = int u dx, G = (1+t)^{mu/2} F, the test-function averages
G1 = int u psi dx and G2 = int u_t psi dx, Gamma(t), and the nonlinear
integrals; verifies the F'' identity and desk-scale versions of the
integral bound and coercivity lemmas.

All psi-weighted integrands are assembled in log space (log rho + log phi
per point, exponentiated only after the e^{+-t} factors cancel), so they
stay representable far past where rho(t) * phi(r) would overflow naively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InsufficientDataError, WindowEmptyError
from .exponents import ModelParams
from .specfun import (
    TestFunctionContext,
    _gauss_legendre,
    log_phi,
    log_rho,
    phi,
    rho,
    rho_log_derivative,
    surface_area,
)

if TYPE_CHECKING:  # pragma: no cover
    from .solver import InitialProfile, State

_CFG_QUAD_NODES = 512
_LEMMA_QUAD_NODES = 1024


@dataclass(frozen=True)
class FunctionalSnapshot:
    t: float
    F: float
    G: float
    G1: float
    G2: float
    Gamma: float
    int_ut_p: float
    int_u_q: float


@dataclass(frozen=True)
class MonitorSeries:
    """Time series of the monitored functionals (one row per snapshot).

    Its fields are the one monitor schema: the collector in `solver.run`,
    the columns of monitors.csv and their reader all follow this list.
    """

    t: np.ndarray
    max_abs_u: np.ndarray
    F: np.ndarray
    G: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    Gamma: np.ndarray
    int_ut_p: np.ndarray
    int_u_q: np.ndarray
    dt: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @classmethod
    def from_rows(cls, rows) -> "MonitorSeries":
        """One series from a list of dicts keyed by MONITOR_COLUMNS."""
        return cls(
            **{
                name: np.array([row[name] for row in rows], dtype=float)
                for name in MONITOR_COLUMNS
            }
        )


MONITOR_COLUMNS = tuple(f.name for f in fields(MonitorSeries))


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def compute_snapshot(
    state: "State",
    ctx: TestFunctionContext,
    params: ModelParams,
    log_phi_grid: Optional[np.ndarray] = None,
) -> FunctionalSnapshot:
    """All functional values at one state, trapezoid rule on the solver grid."""
    n = state.u.shape[0]
    h = state.h
    r = np.arange(n) * h
    w = _trapezoid_weights(n, h)
    area = surface_area(params.N)
    rpow = r ** (params.N - 1)
    wr = w * rpow

    if log_phi_grid is None:
        log_phi_grid = log_phi(params.N, r)
    lrho = log_rho(ctx, state.t)
    # psi on the grid via log space; bounded since log rho ~ -t + O(log t)
    # while log phi <= r + O(log r) and the support keeps r <= t + R.
    psi_grid = np.exp(lrho + log_phi_grid)

    F = area * float(np.dot(wr, state.u))
    G = (1.0 + state.t) ** (params.mu / 2.0) * F
    G1 = area * float(np.dot(wr, state.u * psi_grid))
    G2 = area * float(np.dot(wr, state.v * psi_grid))
    int_ut_p = area * float(np.dot(wr, np.abs(state.v) ** params.p))
    int_u_q = area * float(np.dot(wr, np.abs(state.u) ** params.q))
    gamma = params.mu / (1.0 + state.t) - 2.0 * rho_log_derivative(ctx, state.t)
    return FunctionalSnapshot(state.t, F, G, G1, G2, gamma, int_ut_p, int_u_q)


def c_fg(ctx: TestFunctionContext, profile: "InitialProfile", eps: float) -> float:
    """eps * C(f, g) = eps rho(0) int [(mu - rho'(0)/rho(0)) f + g] phi dx.

    Positive for nonnegative, nonvanishing data. f = g = the bump profile.
    """
    nodes, wts = _gauss_legendre(_CFG_QUAD_NODES)
    r = 0.5 * profile.R * (nodes + 1.0)
    w = 0.5 * profile.R * wts
    f = profile.values(r)
    g = f  # the default data take g = f
    rho0 = rho(ctx, 0.0)
    rld0 = rho_log_derivative(ctx, 0.0)
    dens = ((ctx.mu - rld0) * f + g) * phi(ctx.N, r) * r ** (ctx.N - 1)
    return eps * rho0 * surface_area(ctx.N) * float(np.dot(w, dens))


@dataclass(frozen=True)
class ResidualReport:
    t: np.ndarray
    residual: np.ndarray
    relative: np.ndarray


def residual_F(series: MonitorSeries, params: ModelParams) -> ResidualReport:
    """Defect of F'' + mu/(1+t) F' = a int|u_t|^p + b int|u|^q on the series.

    Derivatives by second-order differences on the (possibly nonuniform)
    monitor time grid; the relative residual is scaled by the combined
    magnitude of the identity's terms.
    """
    if len(series) < 5:
        raise InsufficientDataError(
            f"need >= 5 monitor times for the F'' identity, got {len(series)}"
        )
    t, F = series.t, series.F
    Fp = np.gradient(F, t, edge_order=2)
    Fpp = np.gradient(Fp, t, edge_order=2)
    damp = params.mu / (1.0 + t) * Fp
    nl = params.a * series.int_ut_p + params.b * series.int_u_q
    res = Fpp + damp - nl
    scale = np.abs(Fpp) + np.abs(damp) + np.abs(nl) + 1e-300
    return ResidualReport(t=t, residual=res, relative=np.abs(res) / scale)


def lemma31_ratio(ctx: TestFunctionContext, t: float, r_exp: float) -> float:
    """[int_{|x|<=t+R} psi^r dx] / [rho^r(t) e^{rt} (1+t)^{(2-r)(N-1)/2}].

    Bounded in t by the integral lemma for the test function; computed fully
    in log space (numerator by radial Gauss-Legendre quadrature).
    """
    if t < 0:
        raise WindowEmptyError(f"time must be nonnegative, got {t}")
    if r_exp <= 1:
        raise InsufficientDataError(f"exponent must exceed 1, got {r_exp}")
    upper = t + ctx.R
    nodes, wts = _gauss_legendre(_LEMMA_QUAD_NODES)
    s = 0.5 * upper * (nodes + 1.0)
    w = 0.5 * upper * wts

    lrho = log_rho(ctx, t)
    log_f = r_exp * (lrho + log_phi(ctx.N, s)) + (ctx.N - 1) * np.log(s)
    m = float(np.max(log_f))
    num_log = m + math.log(float(np.dot(w, np.exp(log_f - m)))) + math.log(
        surface_area(ctx.N)
    )
    den_log = (
        r_exp * lrho
        + r_exp * t
        + (2.0 - r_exp) * (ctx.N - 1) / 2.0 * math.log(1.0 + t)
    )
    return math.exp(num_log - den_log)


@dataclass(frozen=True)
class CoercivityReport:
    t_lo: float
    t_hi: float
    min_g1_over_eps: float
    min_g2_over_eps: float
    violated: bool


def coercivity_report(
    series: MonitorSeries, eps: float, t_lo: float = 2.0
) -> CoercivityReport:
    """min G1/eps and G2/eps over [t_lo, 0.9 T_end]; flags nonpositive minima."""
    if len(series) == 0:
        raise InsufficientDataError("empty monitor series")
    t_end = float(series.t[-1])
    t_hi = 0.9 * t_end
    mask = (series.t >= t_lo) & (series.t <= t_hi)
    if t_lo >= t_hi or not np.any(mask):
        raise WindowEmptyError(
            f"coercivity window [{t_lo}, {t_hi:.3g}] contains no samples"
        )
    if eps <= 0:
        # Zero data: report zeros and flag (the lemmas need nonvanishing data).
        return CoercivityReport(t_lo, t_hi, 0.0, 0.0, violated=True)
    g1 = float(np.min(series.G1[mask])) / eps
    g2 = float(np.min(series.G2[mask])) / eps
    return CoercivityReport(t_lo, t_hi, g1, g2, violated=(g1 <= 0 or g2 <= 0))
