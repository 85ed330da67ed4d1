"""Sweep orchestration, scaling-law fits, and theory verdicts."""

import math

import numpy as np
import pytest

from blowuplab.errors import (
    ConfigError,
    InsufficientDataError,
    KindMismatchError,
)
from blowuplab.exponents import LifespanBound, ModelParams
from blowuplab.lifespan import (
    SweepResult,
    SweepRow,
    compare_to_theory,
    fit_exponential_law,
    fit_power_law,
    sweep,
)
from blowuplab.solver import SimConfig

PARAMS = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
BASE = SimConfig(params=PARAMS, eps=0.4, L=12.0, nr=300, t_max=10.0)


def _synthetic(eps_list, k, C=2.0, kind="algebraic", noise=None):
    """Rows sampled from an exact power law T = C eps^{-k}."""
    rows = []
    for i, e in enumerate(eps_list):
        t = C * e**-k
        if noise is not None:
            t *= 1.0 + noise[i]
        rows.append(SweepRow(eps=e, T_est=t, uncertainty=0.0, outcome="blowup"))
    return SweepResult(tuple(rows), BASE, LifespanBound(kind, k))


class TestFits:
    def test_power_fit_recovers_exact_slope(self):
        res = _synthetic([0.4, 0.2, 0.1, 0.05], k=4.0 / 3.0)
        fit = fit_power_law(res)
        assert fit.slope == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.relative_deviation == pytest.approx(0.0, abs=1e-12)

    def test_power_fit_r_squared_degrades_with_noise(self):
        clean = _synthetic([0.4, 0.2, 0.1, 0.05], k=2.0)
        noisy = _synthetic([0.4, 0.2, 0.1, 0.05], k=2.0, noise=[0.2, -0.15, 0.1, -0.2])
        assert fit_power_law(noisy).r_squared < fit_power_law(clean).r_squared

    def test_exponential_fit_recovers_rate(self):
        # T = exp(C eps^{-(p-1)}): slope of log T vs eps^{-(p-1)} equals C.
        p, C = 2.0, 0.7
        rows = tuple(
            SweepRow(e, math.exp(C * e ** -(p - 1.0)), 0.0, "blowup")
            for e in (0.5, 0.4, 0.3, 0.2)
        )
        res = SweepResult(rows, BASE, LifespanBound("exponential", p - 1.0))
        fit = fit_exponential_law(res, p)
        assert fit.slope == pytest.approx(C, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_censored_rows_excluded_with_warning(self):
        rows = (
            SweepRow(0.4, 10.0, 0.0, "blowup"),
            SweepRow(0.2, 25.0, 0.0, "blowup"),
            SweepRow(0.1, 63.0, 0.0, "blowup"),
            SweepRow(0.05, math.nan, math.nan, "reached_tmax"),
        )
        res = SweepResult(rows, BASE, LifespanBound("algebraic", 4.0 / 3.0))
        with pytest.warns(UserWarning, match="censored"):
            fit = fit_power_law(res)
        assert fit.n_points == 3

    def test_too_few_blowup_rows(self):
        rows = (
            SweepRow(0.4, 10.0, 0.0, "blowup"),
            SweepRow(0.2, math.nan, math.nan, "reached_tmax"),
            SweepRow(0.1, math.nan, math.nan, "reached_tmax"),
        )
        res = SweepResult(rows, BASE, LifespanBound("algebraic", 4.0 / 3.0))
        with pytest.warns(UserWarning, match="censored"):
            with pytest.raises(InsufficientDataError):
                fit_power_law(res)


class TestVerdict:
    BOUND = LifespanBound("algebraic", 4.0 / 3.0)

    def _fit(self, slope):
        res = _synthetic([0.4, 0.2, 0.1], k=-slope)
        return fit_power_law(res)

    def test_consistent_within_band(self):
        v = compare_to_theory(self._fit(-4.0 / 3.0), self.BOUND, tau=0.25)
        assert v.verdict == "consistent"
        v = compare_to_theory(self._fit(-1.1), self.BOUND, tau=0.25)
        assert v.verdict == "consistent"

    def test_slower_blowup_is_inconclusive(self):
        # theorems only bound T from above: a shallower slope proves nothing
        v = compare_to_theory(self._fit(-0.5), self.BOUND, tau=0.25)
        assert v.verdict == "inconclusive"

    def test_faster_blowup_is_inconsistent(self):
        v = compare_to_theory(self._fit(-3.0), self.BOUND, tau=0.25)
        assert v.verdict == "inconsistent"

    def test_kind_mismatch(self):
        fit = self._fit(-4.0 / 3.0)
        with pytest.raises(KindMismatchError):
            compare_to_theory(fit, LifespanBound("exponential", 1.0), tau=0.25)


class TestSweep:
    def test_ladder_validation(self):
        with pytest.raises(InsufficientDataError):
            sweep(BASE, [0.4, 0.2])
        with pytest.raises(ConfigError):
            sweep(BASE, [0.4, 0.2, -0.1])
        with pytest.raises(ConfigError):
            sweep(BASE, [0.2, 0.4, 0.1])

    def test_end_to_end_small_ladder(self):
        result = sweep(BASE, [0.4, 0.3, 0.2], refine=1)
        assert [r.eps for r in result.rows] == [0.4, 0.3, 0.2]
        assert all(r.outcome == "blowup" for r in result.rows)
        ts = [r.T_est for r in result.rows]
        assert ts[0] < ts[1] < ts[2]
        fit = fit_power_law(result)
        assert fit.slope < 0
        assert fit.r_squared > 0.9

    def test_horizon_grows_for_small_eps(self):
        # eps small enough that the default t_max cannot contain the run:
        # the sweep must extend t_max from the calibrated prediction instead
        # of returning a censored row.
        result = sweep(BASE, [0.4, 0.3, 0.15], refine=1)
        row = result.rows[-1]
        assert row.outcome == "blowup"
        assert row.T_est > BASE.t_max

    def test_parallel_matches_serial(self):
        serial = sweep(BASE, [0.4, 0.3, 0.2], refine=1, jobs=1)
        parallel = sweep(BASE, [0.4, 0.3, 0.2], refine=1, jobs=3)
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.eps, a.T_est, a.outcome) == (b.eps, b.T_est, b.outcome)
            assert np.isnan(a.uncertainty) == np.isnan(b.uncertainty)


class TestOutcomes:
    def test_unstable_run_is_recorded_as_unstable(self, fake_runs):
        fake_runs(unstable={0.2})
        result = sweep(BASE, [0.4, 0.3, 0.2, 0.1], refine=1)
        assert [r.outcome for r in result.rows] == ["blowup", "blowup", "unstable", "blowup"]
        assert math.isnan(result.rows[2].T_est)

    def test_censored_and_unstable_rows_warned_apart(self):
        rows = (
            SweepRow(0.4, 2.0 * 0.4**-2, 0.0, "blowup"),
            SweepRow(0.3, 2.0 * 0.3**-2, 0.0, "blowup"),
            SweepRow(0.25, math.nan, math.nan, "unstable"),
            SweepRow(0.2, 2.0 * 0.2**-2, 0.0, "blowup"),
            SweepRow(0.15, math.nan, math.nan, "reached_tmax"),
            SweepRow(0.1, math.nan, math.nan, "reached_tmax"),
        )
        res = SweepResult(rows, BASE, LifespanBound("algebraic", 2.0))
        with pytest.warns(UserWarning) as record:
            fit = fit_power_law(res)
        messages = sorted(str(w.message) for w in record)
        assert messages == [
            "1 unstable row(s) (non-finite state) excluded from the fit",
            "2 censored row(s) (reached t_max) excluded from the fit",
        ]
        assert fit.n_points == 3
