"""Radially symmetric finite-difference solver with blow-up detection.

Solves u_tt - u_rr - (N-1)/r u_r + mu/(1+t) u_t = a|u_t|^p + b|u|^q on a
uniform radial grid with small compactly supported data, adapting dt near
blow-up and reporting a numerical lifespan validated by grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import ConfigError, NoBlowUpObservedError, NoTheoremError
from .exponents import ModelParams, RegionClassification, classify
from .functionals import MonitorSeries, _trapezoid_weights, compute_snapshot
from .specfun import TestFunctionContext, log_phi, surface_area

# Amplitude-scaled dt safety factor near blow-up.
ETA = 0.5
# Cap on relative dt growth between consecutive steps.
DT_GROWTH = 1.05


@dataclass(frozen=True)
class InitialProfile:
    """Nonnegative smooth bump supported in [0, R), peak value 1 at r = 0."""

    shape: str = "bump"
    R: float = 1.0
    normalized: bool = True

    def __post_init__(self) -> None:
        if self.shape != "bump":
            raise ConfigError(f"unknown profile shape {self.shape!r}")
        if not self.R > 0:
            raise ConfigError(f"support radius must be positive, got {self.R}")

    def values(self, r: np.ndarray) -> np.ndarray:
        x = np.asarray(r, dtype=float) / self.R
        out = np.zeros_like(x)
        inside = x < 1.0
        xi = x[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
        return out


@dataclass(frozen=True)
class SimConfig:
    """One radial Cauchy problem: model, data size, grid and run policy.

    The grid has nr + 1 cells on [0, L]. A run's state holds only the part
    the solution's support r <= t + R has reached, so nr fixes h = L / nr and
    caps the state's length; it is not what a step costs.
    """

    params: ModelParams
    eps: float
    profile: InitialProfile = field(default_factory=InitialProfile)
    L: float = 12.0
    nr: int = 600
    cfl: float = 0.9
    t_max: float = 10.0
    blowup_threshold: float = 1e6
    dt_min: float = 1e-10
    # Monitor sampling interval in steps; the F'' identity check differences
    # the monitor grid, so its accuracy scales with (stride * dt)^2.
    monitor_stride: int = 10
    # Test hook for manufactured solutions; not part of the config schema.
    forcing: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ConfigError(f"eps must be nonnegative, got {self.eps}")
        if self.nr < 64:
            raise ConfigError(f"nr must be >= 64, got {self.nr}")
        if not 0 < self.cfl <= 1:
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not self.t_max > 0:
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if self.monitor_stride < 1:
            raise ConfigError(f"monitor_stride must be >= 1, got {self.monitor_stride}")
        if self.forcing is None and self.L < self.t_max + self.profile.R:
            raise ConfigError(
                f"L={self.L} must cover the support cone: need L >= t_max + R = "
                f"{self.t_max + self.profile.R}"
            )

    @property
    def h(self) -> float:
        return self.L / self.nr


@dataclass
class State:
    """Two-level grid state at time t (current level u, previous u_prev).

    u, u_prev and v share one length n and hold the first n cells of the
    radial grid; every cell past n is zero. The solver keeps n between the
    active window plus its stencil cell and the full grid (nr + 1 cells).
    """

    t: float
    dt_prev: float
    u: np.ndarray
    u_prev: Optional[np.ndarray]
    v: np.ndarray  # second-order u_t reconstruction at the current level
    step: int
    h: float

    def finite(self) -> bool:
        return bool(np.isfinite(self.u).all() and np.isfinite(self.v).all())


@dataclass(frozen=True)
class RunResult:
    outcome: str  # "blowup" | "reached_tmax" | "unstable"
    t_blowup: Optional[float]
    reason: str
    monitors: MonitorSeries
    h: float
    steps: int
    amp0: float


@dataclass(frozen=True)
class LifespanEstimate:
    t_est: float
    uncertainty: float
    levels: tuple
    extrapolated: bool


def _grid(cfg: SimConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.L, cfg.nr + 1)


def _active_hi(cfg: SimConfig, t: float) -> int:
    # Finite speed of propagation: nothing outside r <= t + R can be nonzero,
    # so cells beyond a small stencil margin are pinned to exact zero.
    if cfg.forcing is not None:
        return cfg.nr - 1
    return min(cfg.nr - 1, int((t + cfg.profile.R) / cfg.h) + 3)


def _padded(a: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    if a is None:
        return None
    out = np.zeros(n)
    out[: a.shape[0]] = a
    return out


def _cover(state: State, cfg: SimConfig, hi: int) -> State:
    """state, zero-padded if needed so that it holds cells 0..hi + 1.

    The length grows geometrically (x2, capped at nr + 1), so the number of
    regrowths is logarithmic and the length stays within twice the window.
    """
    n = state.u.shape[0]
    if hi + 2 <= n:
        return state
    n = min(cfg.nr + 1, max(2 * n, hi + 2))
    return replace(
        state,
        u=_padded(state.u, n),
        u_prev=_padded(state.u_prev, n),
        v=_padded(state.v, n),
    )


def build_initial_state(cfg: SimConfig) -> State:
    """State at t = 0 with u = eps f, u_t = eps g on the support window."""
    n = _active_hi(cfg, 0.0) + 2
    f = cfg.eps * cfg.profile.values(np.arange(n) * cfg.h)
    return State(t=0.0, dt_prev=0.0, u=f, u_prev=None, v=f.copy(), step=0, h=cfg.h)


def propose_dt(state: State, cfg: SimConfig) -> float:
    """CFL step shrunk by the amplitude of the nonlinear sources.

    The stability limit is h/sqrt(N), not h: the regularized origin row of
    the radial Laplacian has Gershgorin radius 4N/h^2, so cfl is taken as a
    fraction of that limit.
    """
    p, q = cfg.params.p, cfg.params.q
    # everything beyond the active window is exactly zero, so the max scans
    # can stop there (the state may hold up to twice the window)
    hi = _active_hi(cfg, state.t) + 1
    amp = (
        float(np.max(np.abs(state.u[:hi]))) ** (q - 1.0)
        + float(np.max(np.abs(state.v[:hi]))) ** (p - 1.0)
        + 1.0
    )
    dt = min(cfg.cfl * cfg.h / math.sqrt(cfg.params.N), ETA / amp)
    if state.dt_prev > 0:
        dt = min(dt, DT_GROWTH * state.dt_prev)
    return dt


def time_step(state: State, cfg: SimConfig, dt: Optional[float] = None) -> State:
    """Advance one step; the first step is a second-order Taylor start.

    dt defaults to propose_dt(state, cfg); a caller that has already
    proposed it passes it in.
    """
    params = cfg.params
    a, b = float(params.a), float(params.b)
    if dt is None:
        dt = propose_dt(state, cfg)
    t_next = state.t + dt
    hi = _active_hi(cfg, t_next)
    state = _cover(state, cfg, hi)
    forcing = None
    if cfg.forcing is not None:
        # forced runs keep the whole grid active (_active_hi is nr - 1)
        forcing = np.asarray(cfg.forcing(_grid(cfg), state.t), dtype=float)

    if state.step == 0:
        w = slice(0, hi + 1)
        u0, v0 = state.u[w], state.v[w]
        src = a * np.abs(v0) ** params.p + b * np.abs(u0) ** params.q
        acc = kernels.radial_laplacian(state.u, cfg.h, params.N, hi)
        acc = acc - params.mu * v0 + src
        if forcing is not None:
            acc = acc + forcing[w]
        u1 = np.zeros_like(state.u)
        v1 = np.zeros_like(state.u)
        u1[w] = u0 + dt * v0 + 0.5 * dt * dt * acc
        v1[w] = v0 + dt * acc
        return State(
            t=t_next, dt_prev=dt, u=u1, u_prev=state.u, v=v1, step=1, h=cfg.h
        )

    u_next, v_next = kernels.advance(
        state.u,
        state.u_prev,
        state.v,
        forcing,
        state.t,
        dt,
        state.dt_prev,
        cfg.h,
        params.N,
        params.mu,
        a,
        b,
        params.p,
        params.q,
        hi,
    )
    return State(
        t=t_next,
        dt_prev=dt,
        u=u_next,
        u_prev=state.u,
        v=v_next,
        step=state.step + 1,
        h=cfg.h,
    )


def discrete_energy(state: State, cfg: SimConfig) -> float:
    """E = 1/2 int (u_t^2 + u_r^2) dx on the radial grid (trapezoid)."""
    n = state.u.shape[0]
    r = np.arange(n) * cfg.h
    ur = np.gradient(state.u, cfg.h, edge_order=2)
    w = _trapezoid_weights(n, cfg.h)
    dens = 0.5 * (state.v**2 + ur**2) * r ** (cfg.params.N - 1)
    return surface_area(cfg.params.N) * float(np.dot(w, dens))


def run(cfg: SimConfig, monitor: bool = True) -> RunResult:
    """Iterate time_step until blow-up, t >= t_max, or instability."""
    ctx = TestFunctionContext(N=cfg.params.N, mu=cfg.params.mu, R=cfg.profile.R)
    rows: list[dict] = []
    lphi = np.empty(0)  # log phi on the cells the state has held so far

    def record(state: State, amp: float, dt: float) -> None:
        nonlocal lphi
        n = state.u.shape[0]
        if lphi.shape[0] < n:
            new = np.arange(lphi.shape[0], n) * cfg.h
            lphi = np.concatenate((lphi, log_phi(cfg.params.N, new)))
        snap = compute_snapshot(state, ctx, cfg.params, lphi[:n])
        rows.append(dict(vars(snap), max_abs_u=amp, dt=dt))

    state = build_initial_state(cfg)
    amp0 = float(np.max(np.abs(state.u)))
    if monitor:
        record(state, amp0, 0.0)

    outcome, t_blow, reason = "reached_tmax", None, ""
    while state.t < cfg.t_max:
        dt = propose_dt(state, cfg)
        if dt < cfg.dt_min:
            outcome, t_blow = "blowup", state.t
            reason = f"dt={dt:.3e} fell below dt_min"
            break
        state = time_step(state, cfg, dt)
        hi = _active_hi(cfg, state.t) + 1
        if not (
            np.isfinite(state.u[:hi]).all() and np.isfinite(state.v[:hi]).all()
        ):
            outcome, reason = "unstable", "non-finite values in grid state"
            break
        amp = float(np.max(np.abs(state.u[:hi])))
        if monitor and state.step % cfg.monitor_stride == 0:
            record(state, amp, state.dt_prev)
        if amp0 > 0 and amp >= cfg.blowup_threshold * amp0:
            outcome, t_blow = "blowup", state.t
            reason = f"amplitude reached {cfg.blowup_threshold:g} x initial"
            break

    if monitor and state.finite() and state.step % cfg.monitor_stride != 0:
        record(state, float(np.max(np.abs(state.u))), state.dt_prev)
    return RunResult(
        outcome=outcome,
        t_blowup=t_blow,
        reason=reason,
        monitors=MonitorSeries.from_rows(rows),
        h=cfg.h,
        steps=state.step,
        amp0=amp0,
    )


def measure_lifespan(cfg: SimConfig, refine: int = 2) -> LifespanEstimate:
    """Blow-up time across grid refinements with Richardson extrapolation.

    Runs at nr, 2nr, ... (refine levels). With >= 3 levels the convergence
    order is estimated from the level differences; with 2 it is assumed to
    be the scheme order 2. Non-monotone level sequences fail over to the
    finest-level value with the uncertainty flagged.
    """
    if refine < 1:
        raise ConfigError(f"refine must be >= 1, got {refine}")
    tag = classify(cfg.params)
    if tag is RegionClassification.NO_THEOREM:
        raise NoTheoremError(f"no blow-up theorem applies to {cfg.params}")

    ts = []
    for level in range(refine):
        level_cfg = replace(cfg, nr=cfg.nr * 2**level)
        result = run(level_cfg, monitor=False)
        if result.outcome != "blowup":
            exc = NoBlowUpObservedError(
                f"run at level {level} ended with {result.outcome!r} "
                f"(t_max={cfg.t_max}, eps={cfg.eps})"
            )
            exc.outcome = result.outcome
            raise exc
        ts.append(result.t_blowup)

    levels = tuple(ts)
    if refine == 1:
        return LifespanEstimate(ts[0], math.nan, levels, extrapolated=False)
    d = np.diff(ts)
    unc = abs(float(d[-1]))
    if refine == 2:
        return LifespanEstimate(ts[1] + float(d[0]) / 3.0, unc, levels, True)
    monotone = (
        abs(d[-1]) < abs(d[-2]) and d[-1] * d[-2] > 0 and abs(d[-2]) > 0
    )
    if not monotone:
        return LifespanEstimate(ts[-1], unc, levels, extrapolated=False)
    alpha = math.log2(abs(d[-2]) / abs(d[-1]))
    t_est = ts[-1] + float(d[-1]) / (2.0**alpha - 1.0)
    return LifespanEstimate(t_est, unc, levels, extrapolated=True)
