"""Radially symmetric finite-difference solver with blow-up detection.

Solves u_tt - u_rr - (N-1)/r u_r + mu/(1+t) u_t = a|u_t|^p + b|u|^q on a
uniform radial grid with small compactly supported data, adapting dt near
blow-up; `run` is one solve at one grid spacing.
A state's RadialGrid owns the per-cell arrays that the step (stencil) and
the monitor (snapshot weights, log phi) read; a regrowth builds a new grid.
"""

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError
from .exponents import ModelParams, classify  # where perfbench's tracer counts theorem lookups
from .functionals import MonitorSeries, compute_snapshot, monitor_series, snapshot_weights
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

    def __post_init__(self) -> None:
        if self.shape != "bump":
            raise ConfigError(f"unknown profile shape {self.shape!r}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ConfigError(f"support radius must be finite and positive, got {self.R}")

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

    L and nr fix the grid spacing h = L / nr and nothing else. A run's state
    holds the cells its support r <= t + R has reached, however far past L,
    so its cost follows h and t + R alone.

    Every field is a key of the run-config JSON (see runio); a field with
    no default is a required key.
    """

    params: ModelParams
    eps: float
    L: float
    nr: int
    t_max: float
    profile: InitialProfile = field(default_factory=InitialProfile)
    cfl: float = 0.9
    blowup_threshold: float = 1e6
    dt_min: float = 1e-10
    # Monitor sampling interval in steps; the F'' identity check differences
    # the monitor grid, so its accuracy scales with (stride * dt)^2.
    monitor_stride: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ConfigError(f"eps must be finite and nonnegative, got {self.eps}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ConfigError(f"L must be finite and positive, got {self.L}")
        if self.nr < 64:
            raise ConfigError(f"nr must be >= 64, got {self.nr}")
        if not 0 < self.cfl < 1:
            raise ConfigError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"t_max must be finite and positive, got {self.t_max}")
        # at a threshold <= 1 the first step's amplitude already counts as blow-up
        if not (math.isfinite(self.blowup_threshold) and self.blowup_threshold > 1):
            raise ConfigError(
                f"blowup_threshold must be finite and > 1, got {self.blowup_threshold}"
            )
        if not (math.isfinite(self.dt_min) and self.dt_min >= 0):
            raise ConfigError(f"dt_min must be finite and nonnegative, got {self.dt_min}")
        # propose_dt never exceeds this bound, so at or below dt_min every run
        # would end as blow-up at t = 0
        dt_max = min(self.cfl_dt, ETA)
        if dt_max <= self.dt_min:
            raise ConfigError(
                f"dt_min must lie below min(cfl h / sqrt(N), {ETA}) = {dt_max:g} "
                f"at nr={self.nr}, got {self.dt_min}"
            )
        if self.monitor_stride < 1:
            raise ConfigError(f"monitor_stride must be >= 1, got {self.monitor_stride}")

    @property
    def h(self) -> float:
        return self.L / self.nr

    @property
    def cfl_dt(self) -> float:
        """The CFL step cfl h / sqrt(N) that caps every step (propose_dt)."""
        return self.cfl * self.h / math.sqrt(self.params.N)


@dataclass(frozen=True)
class RadialGrid:
    """The first n cells of the radial grid of spacing h in dimension N and
    the per-cell arrays of a state of that length, each built on first read."""

    N: int
    h: float
    n: int

    @functools.cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """kernels.radial_stencil on cells 1..n - 1."""
        return kernels.radial_stencil(self.N, self.h, self.n - 1)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights times r^{N-1}, functionals.snapshot_weights."""
        return snapshot_weights(self.n, self.h, self.N)

    @functools.cached_property
    def log_phi(self) -> np.ndarray:
        return log_phi(self.N, np.arange(self.n) * self.h)


@dataclass
class State:
    """Two-level grid state at time t (current level u, previous u_prev).

    u, u_prev and v share one length n and hold the first n cells of the
    radial grid, whose RadialGrid of length n is `grid`; every cell past n
    is zero. `window` counts the cells that can be nonzero, the active
    window plus its stencil cell; the solver keeps n between window and
    twice that.

    A state's arrays are never modified after construction: each step and
    each regrowth builds a new State. So a state owns everything derived
    from them: |u| and |v| on the window (mag_u, mag_v) and their maxima
    `amps` are taken once, when it is built, and the nonlinear sources
    |v|^p and |u|^q once each, on first read (ut_p, u_q). Every reader of
    the state (dt control, the finiteness check and the blow-up test, the
    step and the monitor) shares them, and a source that nothing reads
    (b = 0 in an unmonitored run) is never taken. A read with another
    exponent takes the pass again.
    """

    t: float
    dt_prev: float
    u: np.ndarray
    u_prev: Optional[np.ndarray]
    v: np.ndarray  # second-order u_t reconstruction at the current level
    step: int
    grid: RadialGrid
    window: int

    def __post_init__(self) -> None:
        w = self.window
        self.mag_u, self.mag_v = np.abs(self.u[:w]), np.abs(self.v[:w])
        self._ut_p = self._u_q = (None, None)
        # (max|u|, max|v|), each NaN if its array holds one: NaN propagates
        # through max and |inf| is inf, so both are finite exactly when every
        # cell is. Cells past the window are exact zeros, so these are the
        # maxima over the stored cells; np.maximum.reduce is the reduction
        # np.max wraps.
        self.amps = (
            float(np.maximum.reduce(self.mag_u)),
            float(np.maximum.reduce(self.mag_v)),
        )

    def ut_p(self, p: float) -> np.ndarray:
        """|v|^p on the window, the |u_t|^p source."""
        if self._ut_p[0] != p:
            self._ut_p = (p, np.power(self.mag_v, p))
        return self._ut_p[1]

    def u_q(self, q: float) -> np.ndarray:
        """|u|^q on the window, the |u|^q source."""
        if self._u_q[0] != q:
            self._u_q = (q, np.power(self.mag_u, q))
        return self._u_q[1]

    def finite(self) -> bool:
        return all(map(math.isfinite, self.amps))


@dataclass(frozen=True)
class RunResult:
    outcome: str  # "blowup" | "reached_tmax" | "unstable"
    t_blowup: Optional[float]
    reason: str
    monitors: MonitorSeries
    steps: int
    amp0: float


def _active_hi(cfg: SimConfig, t: float) -> int:
    # Finite speed of propagation: nothing outside r <= t + R can be nonzero,
    # so cells beyond a small stencil margin are pinned to exact zero.
    return int((t + cfg.profile.R) / cfg.h) + 3


def _padded(a: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    if a is None:
        return None
    out = np.zeros(n)
    out[: a.shape[0]] = a
    return out


def _cover(state: State, hi: int) -> State:
    """state if it holds cells 0..hi + 1 with a window that covers cells
    0..hi; otherwise a new state of the same values that does.

    The length grows geometrically (x2), so the number of regrowths is
    logarithmic and the length stays within twice the window. A step whose
    dt nears h or passes it can reach past the window, which then widens
    to hi + 2. The cells a new state gains are exact zeros, so the |u|,
    |v|, maxima and sources it takes are the old ones, zero-padded.
    """
    n = state.u.shape[0]
    if hi + 2 <= n and hi < state.window:
        return state
    grid = state.grid
    if hi + 2 > n:
        n = max(2 * n, hi + 2)
        grid = RadialGrid(grid.N, grid.h, n)
    return replace(
        state,
        u=_padded(state.u, n),
        u_prev=_padded(state.u_prev, n),
        v=_padded(state.v, n),
        grid=grid,
        window=max(state.window, hi + 2),
    )


def build_initial_state(cfg: SimConfig) -> State:
    """State at t = 0 with u = eps f, u_t = eps g on the support window."""
    n = _active_hi(cfg, 0.0) + 2
    f = cfg.eps * cfg.profile.values(np.arange(n) * cfg.h)
    grid = RadialGrid(cfg.params.N, cfg.h, n)
    return State(
        t=0.0, dt_prev=0.0, u=f, u_prev=None, v=f.copy(), step=0, grid=grid, window=n
    )


def propose_dt(state: State, cfg: SimConfig) -> float:
    """CFL step shrunk by the amplitude of the active nonlinear sources.

    The stability limit is taken as h/sqrt(N), not h: the regularized origin
    row of the radial Laplacian has Gershgorin radius 4N/h^2, and cfl is a
    fraction of the limit that radius gives. 4N/h^2 is a bound, not the
    spectral radius, which is 4/h^2 for N = 1 and about 4.842/h^2 and
    6.000/h^2 for N = 2 and 3, so for N >= 2 the limit is conservative.
    """
    p, q, a, b = cfg.params.p, cfg.params.q, cfg.params.a, cfg.params.b
    amp_u, amp_v = state.amps
    # a source the equation lacks is skipped, not weighted by 0: 0 * inf is nan
    try:
        amp = (amp_u ** (q - 1.0) if b else 0.0) + (amp_v ** (p - 1.0) if a else 0.0) + 1.0
    except OverflowError:  # past the float range: no step is small enough
        return 0.0
    dt = min(cfg.cfl_dt, ETA / amp)
    if state.dt_prev > 0:
        dt = min(dt, DT_GROWTH * state.dt_prev)
    return dt


def time_step(state: State, cfg: SimConfig, dt: Optional[float] = None, forcing=None) -> State:
    """Advance one step by kernels.advance; the first step (dt_prev = 0)
    is its second-order Taylor start.

    dt defaults to propose_dt(state, cfg); a caller that has already
    proposed it passes it in. A step reads the state's sources on cells
    0..hi, which _cover makes sure its window covers. forcing(r, t), the
    manufactured-solution source, is added to the right-hand side; it is
    evaluated on those cells only, so it must vanish outside r <= t + R.
    """
    params = cfg.params
    if dt is None:
        dt = propose_dt(state, cfg)
    t_next = state.t + dt
    hi = _active_hi(cfg, t_next)
    state = _cover(state, hi)
    if forcing is not None:
        forcing = np.asarray(forcing(np.arange(hi + 1) * cfg.h, state.t), dtype=float)

    u_next, v_next = kernels.advance(
        state.u, state.u_prev, state, forcing, state.t, dt, state.dt_prev, cfg.h,
        params.N, params.mu, params.a, params.b, params.p, params.q, hi, state.grid.stencil,
    )
    return State(
        t=t_next,
        dt_prev=dt,
        u=u_next,
        u_prev=state.u,
        v=v_next,
        step=state.step + 1,
        grid=state.grid,
        window=hi + 2,
    )


def discrete_energy(state: State, cfg: SimConfig) -> float:
    """E = 1/2 int (u_t^2 + u_r^2) dx on the radial grid (trapezoid)."""
    ur = np.gradient(state.u, cfg.h, edge_order=2)
    dens = 0.5 * (state.v**2 + ur**2)
    return surface_area(cfg.params.N) * float(np.dot(state.grid.weights, dens))


def run(cfg: SimConfig, monitor: bool = True, forcing=None) -> RunResult:
    """Iterate time_step until blow-up, t >= t_max, or instability; forcing
    is passed to every step."""
    ctx = TestFunctionContext(N=cfg.params.N, mu=cfg.params.mu, R=cfg.profile.R)
    snaps = []

    def record(state: State) -> None:
        snaps.append(compute_snapshot(state, cfg.params))

    state = build_initial_state(cfg)
    amp0 = state.amps[0]
    if monitor:
        record(state)

    outcome, t_blow, reason = "reached_tmax", None, ""
    while state.t < cfg.t_max:
        dt = propose_dt(state, cfg)
        if dt < cfg.dt_min:
            outcome, t_blow = "blowup", state.t
            reason = f"dt={dt:.3e} fell below dt_min"
            break
        # the kernel divides by dt^2 and dt dt_prev >= dt^2 / DT_GROWTH
        if dt * dt < sys.float_info.min:
            outcome, t_blow = "blowup", state.t
            reason = f"dt={dt:.3e} fell below the floor dt^2 >= smallest normal float"
            break
        state = time_step(state, cfg, dt, forcing)
        if not state.finite():
            outcome, reason = "unstable", "non-finite values in grid state"
            break
        amp = state.amps[0]
        if monitor and state.step % cfg.monitor_stride == 0:
            record(state)
        if amp0 > 0 and amp >= cfg.blowup_threshold * amp0:
            outcome, t_blow = "blowup", state.t
            reason = f"amplitude reached {cfg.blowup_threshold:g} x initial"
            break

    if monitor and state.finite() and state.step % cfg.monitor_stride != 0:
        record(state)
    return RunResult(
        outcome=outcome,
        t_blowup=t_blow,
        reason=reason,
        monitors=monitor_series(ctx, snaps),
        steps=state.step,
        amp0=amp0,
    )
