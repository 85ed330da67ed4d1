"""Epsilon sweeps, scaling-law fits, and comparison with theory.

Measures numerical lifespans across a decreasing epsilon ladder, fits
log T against log eps (power law) or eps^{-(p-1)} (critical exponential
law), and issues a consistency verdict against the theoretical exponent.
"""

import functools
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InsufficientDataError, KindMismatchError
from .exponents import LifespanBound, lifespan_exponent
from .solver import SimConfig, SweepRow, measure_lifespan

DEFAULT_TAU = 0.25


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


def sweep(
    base: SimConfig, eps_list, refine: int = 2, jobs: int = 1
) -> SweepResult:
    """One measure_lifespan row per epsilon, largest epsilon first.

    The ladder must pass SweepConfig's checks (ConfigError otherwise).
    The largest-epsilon row calibrates the constant in T ~ C eps^{-k}
    (k from the theoretical bound) if it blew up; the horizon for smaller
    epsilons is grown to at least 3x the predicted lifespan. Only eps and
    t_max change from row to row, so every row's level l runs at
    h = base.h / 2**l. A row that reached t_max or went unstable is kept
    with its outcome; the fits leave it out.
    """
    eps_list = SweepConfig(base, tuple(map(float, eps_list)), refine).eps_list

    bound = lifespan_exponent(base.params)

    measure = functools.partial(measure_lifespan, refine=refine)
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
    if len(rows) < 3:
        raise InsufficientDataError(f"need >= 3 blow-up rows, got {len(rows)}")
    return rows


def _linfit(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_power_law(result: SweepResult) -> FitReport:
    """Least squares on (log eps, log T); expected slope ~ -k."""
    rows = _blowup_rows(result)
    x = np.log([r.eps for r in rows])
    y = np.log([r.T_est for r in rows])
    slope, intercept, r2 = _linfit(x, y)
    k = result.bound.exponent if result.bound.kind == "algebraic" else None
    dev = abs(slope + k) / k if k else None
    return FitReport("power", slope, intercept, r2, k, dev, len(rows))


def fit_exponential_law(result: SweepResult, p: float) -> FitReport:
    """Least squares on (eps^{-(p-1)}, log T); slope estimates the constant C."""
    rows = _blowup_rows(result)
    x = np.array([r.eps ** -(p - 1.0) for r in rows])
    y = np.log([r.T_est for r in rows])
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
        raise KindMismatchError(
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
