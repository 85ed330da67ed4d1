"""Weighted-average functionals monitored along numerical trajectories.

Tracks F = int u dx, G = (1+t)^{mu/2} F, the test-function averages
G1 = int u psi dx and G2 = int u_t psi dx, Gamma(t), and the nonlinear
integrals; verifies the F'' identity and desk-scale versions of the
integral bound and coercivity lemmas.

A snapshot takes every integral on the state's window, the cells that can
be nonzero (r <= t + R plus the stencil cell), with the weights and log
phi of the state's radial grid and the nonlinear sources the state takes
once (State.ut_p, State.u_q), so it does no work on the zero-padded tail
of a stored state and takes no power the step also takes. It takes the
psi-weighted integrals against phi(r) e^{-t}, below about e^R there, so
no tail overflows. monitor_series scales them by e^t rho(t) and forms
Gamma with one log_rho and one rho_log_derivative call over a run's
snapshot times.
The radial quadratures of c_fg and lemma31_ratio take specfun's fixed rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, InsufficientDataError
from .exponents import ModelParams
from .specfun import (
    TestFunctionContext,
    fixed_rule,
    log_phi,
    log_rho,
    phi,
    rho,
    rho_log_derivative,
    surface_area,
    trapezoid_weights,
)

if TYPE_CHECKING:  # pragma: no cover
    from .solver import InitialProfile, State

class FunctionalSnapshot(NamedTuple):
    """The state integrals at one time; u_phi and v_phi are int u phi e^{-t} dx
    and int u_t phi e^{-t} dx. G1, G2 and Gamma come from monitor_series."""

    t: float
    max_abs_u: float
    F: float
    G: float
    u_phi: float
    v_phi: float
    int_ut_p: float
    int_u_q: float
    dt: float


@dataclass(frozen=True)
class MonitorSeries:
    """Time series of the monitored functionals (one row per snapshot).

    Its fields are the one monitor schema: the columns of monitors.csv and
    their reader follow this list. A FunctionalSnapshot is one row without
    the rho-dependent G1, G2 and Gamma, and with the u_phi and v_phi that
    monitor_series scales into G1 and G2.
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


MONITOR_COLUMNS = tuple(f.name for f in fields(MonitorSeries))


def monitor_series(ctx: TestFunctionContext, snapshots: list) -> MonitorSeries:
    """A run's series from its snapshots, whose fields become columns through
    one zip: G1, G2 and Gamma take rho from one log_rho and one
    rho_log_derivative call over the snapshot times."""
    if not snapshots:  # an unmonitored run takes no rho work
        return MonitorSeries(*[np.empty(0)] * len(MONITOR_COLUMNS))
    col = {
        name: np.array(values, dtype=float)
        for name, values in zip(FunctionalSnapshot._fields, zip(*snapshots))
    }
    t, u_phi, v_phi = col["t"], col.pop("u_phi"), col.pop("v_phi")
    scale = np.exp(log_rho(ctx, t) + t)  # e^t rho(t), from phi e^{-t} to psi
    gamma = ctx.mu / (1.0 + t) - 2.0 * rho_log_derivative(ctx, t)
    return MonitorSeries(**col, G1=scale * u_phi, G2=scale * v_phi, Gamma=gamma)


def snapshot_weights(n: int, h: float, N: int) -> np.ndarray:
    """Trapezoid weights times r^{N-1} on the first n cells of the grid."""
    return trapezoid_weights(n, h) * (np.arange(n) * h) ** (N - 1)


def compute_snapshot(state: "State", params: ModelParams) -> FunctionalSnapshot:
    """The integrals, max|u| and last dt of one state; trapezoid rule on its grid.

    Every integral takes the state's window, with the weights and log phi
    of its grid; the nonlinear ones dot the weights with the state's
    sources |v|^p and |u|^q, state.ut_p and state.u_q. A source the
    equation lacks (a = 0 or b = 0) is not taken: its integral is 0.0.
    """
    m = state.window
    area = surface_area(params.N)
    # phi(r) e^{-t} is about e^{r - t}, bounded since the support keeps r <= t + R
    phi_t = np.exp(state.grid.log_phi[:m] - state.t)

    w = state.grid.weights[:m]  # cells past the window are zero and add nothing
    F = area * float(np.dot(w, state.u[:m]))
    G = (1.0 + state.t) ** (params.mu / 2.0) * F
    u_phi = area * float(np.dot(w, state.u[:m] * phi_t))
    v_phi = area * float(np.dot(w, state.v[:m] * phi_t))
    int_ut_p = area * float(np.dot(w, state.ut_p(params.p))) if params.a else 0.0
    int_u_q = area * float(np.dot(w, state.u_q(params.q))) if params.b else 0.0
    return FunctionalSnapshot(
        state.t, state.amps[0], F, G, u_phi, v_phi, int_ut_p, int_u_q, state.dt_prev
    )


def c_fg(ctx: TestFunctionContext, profile: "InitialProfile", eps: float) -> float:
    """eps * C(f, g) = eps rho(0) int [(mu - rho'(0)/rho(0)) f + g] phi dx.

    Positive for nonnegative, nonvanishing data. f = g = the bump profile.
    """
    r, w = fixed_rule(profile.R)
    f = profile.values(r)
    g = f  # the default data take g = f
    rho0 = rho(ctx, 0.0)
    rld0 = rho_log_derivative(ctx, 0.0)
    dens = ((ctx.mu - rld0) * f + g) * phi(ctx.N, r) * r ** (ctx.N - 1)
    return eps * rho0 * surface_area(ctx.N) * float(np.dot(w, dens))


def residual_F(series: MonitorSeries, params: ModelParams) -> np.ndarray:
    """Relative defect of F'' + mu/(1+t) F' = a int|u_t|^p + b int|u|^q on the series.

    Derivatives by second-order differences on the (possibly nonuniform)
    monitor time grid; the residual is scaled by the combined magnitude of
    the identity's terms.
    """
    if len(series) < 5:
        raise InsufficientDataError(
            f"need >= 5 monitor times for the F'' identity, got {len(series)}"
        )
    t, F = series.t, series.F
    Fp = np.gradient(F, t, edge_order=2)
    Fpp = np.gradient(Fp, t, edge_order=2)
    damp = params.mu / (1.0 + t) * Fp
    # as in the solver, a source the equation lacks is skipped, not weighted
    # by 0: its column may be inf (|u|^q overflows at large q), and 0 * inf is nan
    nl = 0.0
    if params.a:
        nl = series.int_ut_p
    if params.b:
        nl = nl + series.int_u_q
    res = Fpp + damp - nl
    scale = np.abs(Fpp) + np.abs(damp) + np.abs(nl) + 1e-300
    return np.abs(res) / scale


def lemma31_ratio(ctx: TestFunctionContext, t: float, r_exp: float) -> float:
    """[int_{|x|<=t+R} psi^r dx] / [rho^r(t) e^{rt} (1+t)^{(2-r)(N-1)/2}].

    Bounded in t by the integral lemma for the test function; computed fully
    in log space (numerator by the fixed rule on [0, t + R]).
    """
    if t < 0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if r_exp <= 1:
        raise InsufficientDataError(f"exponent must exceed 1, got {r_exp}")
    upper = t + ctx.R
    s, w = fixed_rule(upper)

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
    min_g1_over_eps: float
    min_g2_over_eps: float
    violated: bool


def coercivity_report(
    series: MonitorSeries, eps: float, t_lo: float = 2.0
) -> CoercivityReport:
    """min G1/eps and G2/eps over [t_lo, 0.9 T_end]; flags minima that are
    not positive, NaN included."""
    if len(series) == 0:
        raise InsufficientDataError("empty monitor series")
    t_end = float(series.t[-1])
    t_hi = 0.9 * t_end
    mask = (series.t >= t_lo) & (series.t <= t_hi)
    if t_lo >= t_hi or not np.any(mask):
        raise InsufficientDataError(
            f"coercivity window [{t_lo}, {t_hi:.3g}] contains no samples"
        )
    if eps <= 0:
        # Zero data: report zeros and flag (the lemmas need nonvanishing data).
        return CoercivityReport(0.0, 0.0, violated=True)
    g1 = float(np.min(series.G1[mask])) / eps
    g2 = float(np.min(series.G2[mask])) / eps
    return CoercivityReport(g1, g2, violated=not (g1 > 0 and g2 > 0))
