"""Sweep orchestration, scaling-law fits, and theory verdicts."""

import concurrent.futures
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from blowuplab import solver
from blowuplab.errors import ConfigError, DomainError, InsufficientDataError
from blowuplab.exponents import LifespanBound, ModelParams
from blowuplab.lifespan import (
    SweepConfig,
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
    return SweepResult(tuple(rows), LifespanBound(kind, k))


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
        res = SweepResult(rows, LifespanBound("exponential", p - 1.0))
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
        res = SweepResult(rows, LifespanBound("algebraic", 4.0 / 3.0))
        with pytest.warns(UserWarning, match="censored"):
            fit = fit_power_law(res)
        assert fit.n_points == 3

    def test_too_few_blowup_rows(self):
        rows = (
            SweepRow(0.4, 10.0, 0.0, "blowup"),
            SweepRow(0.2, math.nan, math.nan, "reached_tmax"),
            SweepRow(0.1, math.nan, math.nan, "reached_tmax"),
        )
        res = SweepResult(rows, LifespanBound("algebraic", 4.0 / 3.0))
        with pytest.warns(UserWarning, match="censored"):
            with pytest.raises(InsufficientDataError):
                fit_power_law(res)

    @pytest.mark.parametrize("t_bad", [-15.0, 0.0])
    @pytest.mark.parametrize(
        "fit",
        [fit_power_law, lambda res: fit_exponential_law(res, 2.0)],
        ids=["power", "exponential"],
    )
    def test_non_positive_lifespan_row_is_named_not_logged(self, fit, t_bad):
        # richardson([10.0, 5.0, 1.0]) extrapolates a blow-up row to T = -15
        rows = (
            SweepRow(0.4, 2.0, 0.0, "blowup"),
            SweepRow(0.3, 5.0, 0.0, "blowup"),
            SweepRow(0.2, t_bad, 4.0, "blowup"),
        )
        res = SweepResult(rows, LifespanBound("algebraic", 2.0))
        with pytest.raises(InsufficientDataError, match=rf"^blow-up row eps=0.2 has T_est={t_bad}"):
            fit(res)


def _exact_slope(x, y) -> Fraction:
    """The least-squares slope through the float points (x, y), in exact rationals."""
    X, Y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(X) / len(X), sum(Y) / len(Y)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(X, Y))
    return sxy / sum((a - x_mean) ** 2 for a in X)


def _power_slope_error(eps, T) -> float:
    """fit_power_law's slope on sweep rows (eps, T), relative to the exact one."""
    rows = tuple(SweepRow(e, t, 0.0, "blowup") for e, t in zip(eps, T))
    fit = fit_power_law(SweepResult(rows, LifespanBound("algebraic", 1.0)))
    exact = _exact_slope(np.log(eps).tolist(), np.log(T).tolist())
    return float(abs(Fraction(fit.slope) - exact) / abs(exact))


class TestFitAccuracy:
    def test_fits_make_no_lapack_solve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a fit called a numpy least-squares routine")

        for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np, "dot")):
            monkeypatch.setattr(owner, name, refused)
        power = fit_power_law(_synthetic([0.4, 0.2, 0.1, 0.05], k=4.0 / 3.0))
        assert power.slope == pytest.approx(-4.0 / 3.0, abs=1e-12)
        p, C = 2.0, 0.7
        rows = tuple(SweepRow(e, math.exp(C / e), 0.0, "blowup") for e in (0.5, 0.4, 0.3))
        exponential = fit_exponential_law(SweepResult(rows, LifespanBound("exponential", 1.0)), p)
        assert exponential.slope == pytest.approx(C, abs=1e-12)

    def test_badly_conditioned_ladder_keeps_its_exact_slope(self):
        # np.polyfit's SVD solve is off by 1.8e-13 relative on these rows
        eps = [2.4424932800419374, 1.2564190780821636, 0.7571410569026813]
        T = [6.158323063629774, 7.3495681904019285, 6.000416886998597]
        assert _power_slope_error(eps, T) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        k=hs.floats(0.5, 10.0),
        eps0=hs.floats(0.05, 5.0),
        steps=hs.lists(
            hs.tuples(hs.floats(0.3, 0.75), hs.floats(-0.1, 0.1)), min_size=3, max_size=8
        ),
    )
    def test_power_law_ladder_slope_is_exact_to_1e_15(self, k, eps0, steps):
        # each step: the ratio to the next epsilon, and this row's relative noise
        eps, T = [], []
        for ratio, noise in steps:
            eps.append(eps0)
            T.append(2.0 * eps0**-k * (1.0 + noise))
            eps0 *= ratio
        assert _power_slope_error(eps, T) <= 1e-15


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
        with pytest.raises(DomainError):
            compare_to_theory(fit, LifespanBound("exponential", 1.0), tau=0.25)


class TestSweep:
    def test_ladder_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(BASE, (0.4, 0.2))
        with pytest.raises(ConfigError):
            SweepConfig(BASE, (0.4, 0.2, -0.1))
        with pytest.raises(ConfigError):
            SweepConfig(BASE, (0.2, 0.4, 0.1))

    def test_end_to_end_small_ladder(self):
        result = sweep(SweepConfig(BASE, (0.4, 0.3, 0.2), refine=1))
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
        result = sweep(SweepConfig(BASE, (0.4, 0.3, 0.15), refine=1))
        row = result.rows[-1]
        assert row.outcome == "blowup"
        assert row.T_est > BASE.t_max

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        L=hs.floats(1.0, 500.0),
        nr=hs.integers(64, 5000),
        eps=hs.lists(hs.floats(0.01, 2.0), min_size=3, max_size=5, unique=True),
        refine=hs.sampled_from([1, 2, 3]),
    )
    def test_h_is_fixed_along_the_ladder(self, fake_runs, monkeypatch, L, nr, eps, refine):
        # every run of row i, level l is at base.h / 2**l exactly, however far
        # the row's horizon is grown past L
        base = SimConfig(params=PARAMS, eps=0.4, L=L, nr=nr, t_max=10.0)
        eps_list = sorted(eps, reverse=True)
        fake_runs()
        fake, seen = solver.run, []

        def recorded(cfg, monitor=True):
            seen.append(cfg)
            return fake(cfg, monitor)

        monkeypatch.setattr(solver, "run", recorded)
        sweep(SweepConfig(base, tuple(eps_list), refine=refine))
        assert [cfg.eps for cfg in seen] == [e for e in eps_list for _ in range(refine)]
        for i, cfg in enumerate(seen):
            assert cfg.h == base.h / 2 ** (i % refine), (cfg.eps, i % refine)

    def test_sweeps_a_config_no_theorem_covers(self):
        # mu = 1.0 lies past mu* = 0.807 with lambda = 4.44 >= 4: NO_THEOREM,
        # so no bound is stated, and the rows are measured and fitted all the same
        params = ModelParams(N=3, mu=1.0, p=1.9, q=2.2, a=1, b=1)
        base = SimConfig(params=params, eps=2.4, L=21.0, nr=1050, t_max=20.0)
        result = sweep(SweepConfig(base, (2.4, 2.0, 1.7), refine=1))
        assert result.bound.kind == "none"
        assert [row.outcome for row in result.rows] == ["blowup"] * 3
        assert result.rows[0].T_est == pytest.approx(2.511, abs=1e-3)
        assert fit_power_law(result).slope == pytest.approx(-2.805, abs=1e-3)

    def test_parallel_matches_serial(self):
        serial = sweep(SweepConfig(BASE, (0.4, 0.3, 0.2), refine=1), jobs=1)
        parallel = sweep(SweepConfig(BASE, (0.4, 0.3, 0.2), refine=1), jobs=3)
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.eps, a.T_est, a.outcome) == (b.eps, b.T_est, b.outcome)
            assert np.isnan(a.uncertainty) == np.isnan(b.uncertainty)

    def test_pool_takes_no_more_workers_than_rows_and_cpus(self, fake_runs, monkeypatch):
        # a pool forks all its workers at the first submit; the stand-in
        # starts none and records how many sweep asks for
        asked = []

        class StandIn:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return list(map(fn, args))

        fake_runs()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandIn)
        result = sweep(SweepConfig(BASE, (0.4, 0.3, 0.2), refine=1), jobs=10**6)
        workers = min(2, os.cpu_count() or 1)  # two tail rows
        assert asked == ([workers] if workers > 1 else [])
        assert [row.outcome for row in result.rows] == ["blowup"] * 3


def test_cli_import_leaves_out_the_process_pool():
    # --jobs 1 never needs multiprocessing; only jobs > 1 imports it
    code = "import sys, blowuplab.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestOutcomes:
    def test_unstable_run_is_recorded_as_unstable(self, fake_runs):
        fake_runs(unstable={0.2})
        result = sweep(SweepConfig(BASE, (0.4, 0.3, 0.2, 0.1), refine=1))
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
        res = SweepResult(rows, LifespanBound("algebraic", 2.0))
        with pytest.warns(UserWarning) as record:
            fit = fit_power_law(res)
        messages = sorted(str(w.message) for w in record)
        assert messages == [
            "1 unstable row(s) (non-finite state) excluded from the fit",
            "2 censored row(s) (reached t_max) excluded from the fit",
        ]
        assert fit.n_points == 3
