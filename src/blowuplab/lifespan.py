"""Lifespan measurement: sweep rows, epsilon sweeps, scaling-law fits, and
comparison with theory.

Measures a numerical lifespan as one row per epsilon, its blow-up time
across grid refinements, over a decreasing epsilon ladder; fits log T
against log eps (power law) or eps^{-(p-1)} (critical exponential law), and
issues a consistency verdict against the theoretical exponent.
"""

import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .errors import ConfigError, DomainError, InsufficientDataError
from .exponents import LifespanBound, lifespan_exponent
from .solver import SimConfig

DEFAULT_TAU = 0.25


def richardson(levels) -> tuple[float, float, float]:
    """(T, bar, order) of blow-up times at grid spacings h, h/2, h/4, ...

    If the last two level differences d shrink without changing sign, T is
    extrapolated with the order they show, log2(d[-2] / d[-1]); otherwise T
    is the finest level and order NaN. bar is |d[-1]|, NaN for one level.
    """
    d = [b - a for a, b in zip(levels, levels[1:])]
    bar = abs(d[-1]) if d else math.nan
    if len(d) >= 2 and d[-1] * d[-2] > 0 and abs(d[-1]) < abs(d[-2]):
        order = math.log2(d[-2] / d[-1])
        return levels[-1] + d[-1] / (2.0**order - 1.0), bar, order
    return levels[-1], bar, math.nan


@dataclass(frozen=True)
class SweepRow:
    """One epsilon's measured lifespan, as measure_lifespan returns it.

    `levels` holds the blow-up time of each grid level that blew up, and
    T_est and uncertainty are richardson(levels)'s T and bar. A row whose
    outcome is not "blowup" has NaN T_est and uncertainty; it is a
    measurement, not an error: a censored row says T > t_max.
    """

    eps: float
    T_est: float
    uncertainty: float
    outcome: str  # "blowup" | "reached_tmax" | "unstable"
    levels: tuple = ()


def measure_lifespan(cfg: SimConfig, refine: int = 2) -> SweepRow:
    """The sweep row of cfg: its blow-up time at nr, 2nr, ... (refine
    levels), estimated by richardson.

    Builds and so checks every level's config before the first run. At the
    first level that does not blow up the row takes that level's outcome,
    NaN T_est and uncertainty, and the levels before it. It measures any
    config, one that no theorem covers included.
    """
    if refine < 1:
        raise ConfigError(f"refine must be >= 1, got {refine}")
    level_cfgs = [replace(cfg, nr=cfg.nr * 2**level) for level in range(refine)]
    ts = []
    for level_cfg in level_cfgs:
        # looked up on the module: the benchmark tracer and the tests patch solver.run
        result = solver.run(level_cfg, monitor=False)
        if result.outcome != "blowup":
            return SweepRow(cfg.eps, math.nan, math.nan, result.outcome, tuple(ts))
        ts.append(result.t_blowup)
    t_est, bar, _ = richardson(ts)
    return SweepRow(cfg.eps, t_est, bar, "blowup", tuple(ts))


@dataclass(frozen=True)
class SweepConfig:
    """One epsilon sweep; each field is a key of the sweep-config JSON.

    eps_list is a strictly decreasing ladder of at least 3 positive, finite
    epsilons, and tau the verdict band, in (0, 1).
    """

    base: SimConfig
    eps_list: tuple
    refine: int = 2
    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        eps = self.eps_list
        if len(eps) < 3:
            raise ConfigError(f"need >= 3 epsilons, got {len(eps)}")
        if not all(0 < e < math.inf for e in eps):
            raise ConfigError("all epsilons must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("epsilon ladder must be strictly decreasing")
        if not 0 < self.tau < 1:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    bound: LifespanBound


@dataclass(frozen=True)
class FitReport:
    kind: str  # "power" | "exponential"
    slope: float
    intercept: float
    r_squared: float
    theoretical_exponent: float | None
    relative_deviation: float | None
    n_points: int


@dataclass(frozen=True)
class Verdict:
    verdict: str  # "consistent" | "inconclusive" | "inconsistent"
    measured: float
    theoretical: float
    tau: float


def sweep(cfg: SweepConfig, jobs: int = 1) -> SweepResult:
    """One measure_lifespan row per epsilon of cfg, largest epsilon first.

    The largest-epsilon row calibrates the constant in T ~ C eps^{-k}
    (k from the theoretical bound) if it blew up; the horizon for smaller
    epsilons is grown to at least 3x the predicted lifespan. Only eps and
    t_max change from row to row, so every row's level l runs at
    h = base.h / 2**l. A row that reached t_max or went unstable is kept
    with its outcome; the fits leave it out.
    """
    base, eps_list = cfg.base, cfg.eps_list
    bound = lifespan_exponent(base.params)

    measure = functools.partial(measure_lifespan, refine=cfg.refine)
    eps0 = eps_list[0]
    first = measure(replace(base, eps=eps0))
    rows = [first]

    if first.outcome == "blowup" and bound.kind == "algebraic":
        c_cal = first.T_est * eps0**bound.exponent
        t_pred = lambda e: c_cal * e**-bound.exponent
    else:
        t_pred = lambda e: base.t_max

    tail = [replace(base, eps=e, t_max=max(base.t_max, 3.0 * t_pred(e))) for e in eps_list[1:]]

    # a pool forks all its workers at once: no more than the rows and CPUs
    workers = min(jobs, len(tail), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the serial path should not pay for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows.extend(pool.map(measure, tail))
    else:
        rows.extend(map(measure, tail))
    return SweepResult(tuple(rows), bound)


def _blowup_rows(result: SweepResult):
    rows = [r for r in result.rows if r.outcome == "blowup"]
    for outcome, what in (
        ("reached_tmax", "censored row(s) (reached t_max)"),
        ("unstable", "unstable row(s) (non-finite state)"),
    ):
        dropped = sum(r.outcome == outcome for r in result.rows)
        if dropped:
            warnings.warn(f"{dropped} {what} excluded from the fit", stacklevel=3)
    for r in rows:
        # richardson can extrapolate a blow-up row past zero; log T must stay finite
        if not 0 < r.T_est < math.inf:
            raise InsufficientDataError(
                f"blow-up row eps={r.eps!r} has T_est={r.T_est!r}, not a positive finite time"
            )
    if len(rows) < 3:
        raise InsufficientDataError(f"need >= 3 blow-up rows, got {len(rows)}")
    return rows


def _linfit(x: list, y: list):
    """(slope, intercept, r^2) of the least-squares line through (x, y).

    Closed form about the means, each sum math.fsum's exactly rounded one;
    no LAPACK solve is made.
    """
    n = len(x)
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / math.fsum(a * a for a in dx)
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = math.fsum(b * b for b in dy)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_power_law(result: SweepResult) -> FitReport:
    """Least squares on (log eps, log T); expected slope ~ -k."""
    rows = _blowup_rows(result)
    x = np.log([r.eps for r in rows]).tolist()
    y = np.log([r.T_est for r in rows]).tolist()
    slope, intercept, r2 = _linfit(x, y)
    k = result.bound.exponent if result.bound.kind == "algebraic" else None
    dev = abs(slope + k) / k if k else None
    return FitReport("power", slope, intercept, r2, k, dev, len(rows))


def fit_exponential_law(result: SweepResult, p: float) -> FitReport:
    """Least squares on (eps^{-(p-1)}, log T); slope estimates the constant C."""
    rows = _blowup_rows(result)
    x = [r.eps ** -(p - 1.0) for r in rows]
    y = np.log([r.T_est for r in rows]).tolist()
    slope, intercept, r2 = _linfit(x, y)
    rate = result.bound.exponent if result.bound.kind == "exponential" else None
    return FitReport("exponential", slope, intercept, r2, rate, None, len(rows))


def compare_to_theory(
    fit: FitReport, bound: LifespanBound, tau: float = DEFAULT_TAU
) -> Verdict:
    """Verdict on |slope| against the theoretical exponent k within (1 +- tau).

    Faster measured blow-up than the upper bound permits (sustained) would be
    inconsistent; slower is merely inconclusive, since the theorems only
    bound T from above.
    """
    kinds = {"power": "algebraic", "exponential": "exponential"}
    if kinds.get(fit.kind) != bound.kind:
        raise DomainError(
            f"fit kind {fit.kind!r} does not match bound kind {bound.kind!r}"
        )
    k = bound.exponent
    measured = abs(fit.slope)
    if (1.0 - tau) * k <= measured <= (1.0 + tau) * k:
        verdict = "consistent"
    elif measured > (1.0 + tau) * k:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return Verdict(verdict, measured, k, tau)
