"""Epsilon sweeps, scaling-law fits, and comparison with theory.

Measures numerical lifespans across a decreasing epsilon ladder, fits
log T against log eps (power law) or eps^{-(p-1)} (critical exponential
law), and issues a consistency verdict against the theoretical exponent.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, InsufficientDataError, KindMismatchError
from .errors import NoBlowUpObservedError
from .exponents import LifespanBound, lifespan_exponent
from .solver import SimConfig, measure_lifespan

DEFAULT_TAU = 0.25


@dataclass(frozen=True)
class SweepRow:
    eps: float
    T_est: float
    uncertainty: float
    outcome: str  # "blowup" | "reached_tmax" | "unstable"


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    base: SimConfig
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


def _scaled_config(base: SimConfig, eps: float, t_max: float) -> SimConfig:
    # Keep h fixed while growing the domain with the horizon so the support
    # cone never reaches the outer boundary.
    h = base.h
    L = max(base.L, t_max + base.profile.R + 1.0)
    nr = max(base.nr, int(math.ceil(L / h)))
    return replace(base, eps=eps, t_max=t_max, L=nr * h, nr=nr)


def _measure_row(args) -> SweepRow:
    cfg, refine = args
    try:
        est = measure_lifespan(cfg, refine)
        return SweepRow(cfg.eps, est.t_est, est.uncertainty, "blowup")
    except NoBlowUpObservedError as exc:
        return SweepRow(cfg.eps, math.nan, math.nan, exc.outcome)


def sweep(
    base: SimConfig, eps_list, refine: int = 2, jobs: int = 1
) -> SweepResult:
    """One measure_lifespan row per epsilon, largest epsilon first.

    The largest-epsilon run calibrates the constant in T ~ C eps^{-k}
    (k from the theoretical bound); the horizon for smaller epsilons is
    grown to at least 3x the predicted lifespan.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise InsufficientDataError(f"need >= 3 epsilons, got {len(eps_list)}")
    if any(e <= 0 for e in eps_list):
        raise ConfigError("all epsilons must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("epsilon ladder must be strictly decreasing")

    bound = lifespan_exponent(base.params)

    eps0 = eps_list[0]
    first = _measure_row((replace(base, eps=eps0), refine))
    rows = [first]

    if first.outcome == "blowup" and bound.kind == "algebraic":
        c_cal = first.T_est * eps0**bound.exponent
        t_pred = lambda e: c_cal * e**-bound.exponent
    else:
        t_pred = lambda e: base.t_max

    tail_args = []
    for e in eps_list[1:]:
        t_max = max(base.t_max, 3.0 * t_pred(e))
        tail_args.append((_scaled_config(base, e, t_max), refine))

    if jobs > 1 and tail_args:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows.extend(pool.map(_measure_row, tail_args))
    else:
        rows.extend(_measure_row(a) for a in tail_args)
    return SweepResult(tuple(rows), base, bound)


def _blowup_rows(result: SweepResult):
    rows = [r for r in result.rows if r.outcome == "blowup"]
    for outcome, what in (
        ("reached_tmax", "censored row(s) (reached t_max)"),
        ("unstable", "unstable row(s) (non-finite state)"),
    ):
        dropped = sum(r.outcome == outcome for r in result.rows)
        if dropped:
            warnings.warn(f"{dropped} {what} excluded from the fit", stacklevel=3)
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
    if len(rows) < 3:
        raise InsufficientDataError(f"need >= 3 blow-up rows, got {len(rows)}")
    x = np.log([r.eps for r in rows])
    y = np.log([r.T_est for r in rows])
    slope, intercept, r2 = _linfit(x, y)
    k = result.bound.exponent if result.bound.kind == "algebraic" else None
    dev = abs(slope + k) / k if k else None
    return FitReport("power", slope, intercept, r2, k, dev, len(rows))


def fit_exponential_law(result: SweepResult, p: float) -> FitReport:
    """Least squares on (eps^{-(p-1)}, log T); slope estimates the constant C."""
    rows = _blowup_rows(result)
    if len(rows) < 3:
        raise InsufficientDataError(f"need >= 3 blow-up rows, got {len(rows)}")
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
