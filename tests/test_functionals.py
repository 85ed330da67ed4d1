"""Weighted functionals against direct quadrature oracles, plus the
identity / lemma monitors on real solver trajectories."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

from blowuplab import functionals, solver
from blowuplab.errors import DomainError, InsufficientDataError
from blowuplab.exponents import ModelParams
from blowuplab.functionals import (
    MonitorSeries,
    c_fg,
    coercivity_report,
    compute_snapshot,
    lemma31_ratio,
    residual_F,
)
from blowuplab.solver import (
    InitialProfile,
    RadialGrid,
    SimConfig,
    State,
    build_initial_state,
    run,
)
from blowuplab.specfun import TestFunctionContext, phi, rho, surface_area


def _profile_integral(weight_fn, N, R=1.0):
    """area * int_0^R weight(r) f(r) r^{N-1} dr for the bump profile f."""
    prof = InitialProfile(R=R)

    def dens(r):
        return weight_fn(r) * float(prof.values(np.array([r]))[0]) * r ** (N - 1)

    val, _ = quad(dens, 0.0, R, limit=200, epsrel=1e-12)
    return surface_area(N) * val


def _snapshot(state, params):
    """A snapshot over every cell of the state."""
    assert state.window == state.u.shape[0]
    return compute_snapshot(state, params)


class TestSnapshot:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_initial_G1_against_oracle(self, N):
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.0, a=1, b=1)
        cfg = SimConfig(params=params, eps=0.3, L=8.0, nr=4000, t_max=4.0)
        ctx = TestFunctionContext(N=N, mu=0.5, R=1.0)
        state = build_initial_state(cfg)
        series = functionals.monitor_series(ctx, [_snapshot(state, params)])
        rho0 = rho(ctx, 0.0)
        exact = 0.3 * _profile_integral(lambda r: rho0 * phi(N, r), N)
        # trapezoid on the solver grid: second-order in h
        assert series.G1[0] == pytest.approx(exact, rel=5e-6)
        # u_t(0) = u(0) for the default data, so G2(0) = G1(0)
        assert series.G2[0] == pytest.approx(series.G1[0], rel=1e-12)

    def test_initial_F_against_oracle(self):
        params = ModelParams(N=2, mu=1.0, p=2.0, q=2.0, a=1, b=1)
        cfg = SimConfig(params=params, eps=0.7, L=8.0, nr=4000, t_max=4.0)
        snap = _snapshot(build_initial_state(cfg), params)
        exact = 0.7 * _profile_integral(lambda r: 1.0, 2)
        assert snap.F == pytest.approx(exact, rel=5e-6)
        assert snap.G == pytest.approx(snap.F)  # (1+0)^{mu/2} = 1

    def test_nonlinear_integrals_against_oracle(self):
        params = ModelParams(N=1, mu=0.5, p=2.0, q=3.0, a=1, b=1)
        cfg = SimConfig(params=params, eps=0.5, L=8.0, nr=4000, t_max=4.0)
        snap = _snapshot(build_initial_state(cfg), params)
        prof = InitialProfile(R=1.0)
        i2, _ = quad(lambda r: (0.5 * float(prof.values(np.array([r]))[0])) ** 2, 0, 1)
        i3, _ = quad(lambda r: (0.5 * float(prof.values(np.array([r]))[0])) ** 3, 0, 1)
        assert snap.int_ut_p == pytest.approx(2.0 * i2, rel=5e-6)
        assert snap.int_u_q == pytest.approx(2.0 * i3, rel=5e-6)

    def test_gamma_positive_and_decaying_to_two(self):
        # Gamma = mu/(1+t) - 2 rho'/rho -> 2 as t -> infinity.
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=1)
        ctx = TestFunctionContext(N=1, mu=0.5, R=1.0)
        cfg = SimConfig(params=params, eps=0.1, L=8.0, nr=200, t_max=4.0)
        state = build_initial_state(cfg)
        near = _snapshot(state, params)
        state.t = 50.0
        far = _snapshot(state, params)
        gamma = functionals.monitor_series(ctx, [near, far]).Gamma
        assert gamma[0] > 0.0
        assert gamma[1] == pytest.approx(2.0, abs=0.05)


class TestSnapshotWindow:
    """The psi-weighted integrals cover the cells that can be nonzero, and a
    run's rho-dependent columns come from one batch over its snapshot times."""

    PARAMS = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)

    @staticmethod
    def _outgoing_snapshot(params, t, pad, h=0.05, R=1.0):
        # a bump on |r - t| < R, held on the window r <= t + R plus the
        # solver's margin, then zero-padded to `pad` times that length
        m = int((t + R) / h) + 5
        u = InitialProfile(R=R).values(np.abs(np.arange(pad * m) * h - t))
        grid = RadialGrid(params.N, h, pad * m)
        state = State(
            t=t, dt_prev=0.0, u=u, u_prev=None, v=0.5 * u, step=0, grid=grid, window=m
        )
        return compute_snapshot(state, params)

    @pytest.mark.parametrize("t", [650.0, 720.0, 750.0])
    def test_zero_padded_state_past_exp_overflow(self, t):
        # exp(log rho + log phi) on the padded tail overflows past t = 710,
        # and 0 * inf would make G1 and G2 NaN
        ctx = TestFunctionContext(N=3, mu=0.5, R=1.0)
        series = functionals.monitor_series(
            ctx, [self._outgoing_snapshot(self.PARAMS, t, pad) for pad in (1, 2)]
        )
        for name in ("G1", "G2"):
            window, padded = getattr(series, name)
            assert math.isfinite(padded) and padded > 0.0
            assert padded == pytest.approx(window, rel=1e-14, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        N=hs.integers(1, 3),
        cells=hs.lists(hs.tuples(hs.floats(-4.0, 4.0), hs.floats(-4.0, 4.0)), max_size=300),
        t=hs.floats(0.0, 40.0),
    )
    def test_snapshot_does_not_depend_on_padding(self, N, cells, t):
        # a window of u, v cells plus the zero stencil cell, zero-padded to 2x
        # and 4x its length: every integral runs over the same cells, bitwise
        params = replace(self.PARAMS, N=N)
        u, v = np.array(cells + [(0.0, 0.0)]).T

        def snap(pad):
            zeros = np.zeros((pad - 1) * u.size)
            state = State(
                t=t, dt_prev=0.0, u=np.concatenate((u, zeros)), u_prev=None,
                v=np.concatenate((v, zeros)), step=0, grid=RadialGrid(N, 0.05, pad * u.size),
                window=u.size,
            )
            s = compute_snapshot(state, params)
            return s.F, s.G, s.u_phi, s.v_phi, s.int_ut_p, s.int_u_q

        window = snap(1)
        assert snap(2) == window and snap(4) == window

    def test_monitored_run_matches_per_snapshot_evaluation(self, monkeypatch):
        # each snapshot evaluated alone, on a grid of its own, against the
        # run's batched rho columns
        cfg = SimConfig(
            params=self.PARAMS, eps=1.2, L=21.0, nr=420, t_max=20.0, monitor_stride=2
        )
        ctx = TestFunctionContext(N=3, mu=self.PARAMS.mu, R=cfg.profile.R)
        snapshot, alone = solver.compute_snapshot, []

        def each(state, params):
            grid = RadialGrid(params.N, cfg.h, state.u.shape[0])
            own = snapshot(replace(state, grid=grid), params)
            own = functionals.monitor_series(ctx, [own])
            alone.append((own.G1[0], own.G2[0], own.Gamma[0]))
            return snapshot(state, params)

        monkeypatch.setattr(solver, "compute_snapshot", each)
        res = run(cfg)
        assert res.outcome == "blowup" and len(res.monitors) == len(alone) > 50
        for column, values in zip(("G1", "G2", "Gamma"), np.array(alone).T):
            np.testing.assert_allclose(getattr(res.monitors, column), values, rtol=1e-14)

    def test_empty_run_series(self):
        ctx = TestFunctionContext(N=3, mu=0.5, R=1.0)
        series = functionals.monitor_series(ctx, [])
        assert len(series) == 0 and series.G1.shape == series.Gamma.shape == (0,)


class TestCfg:
    def test_positive_for_positive_data(self):
        for N, mu in ((1, 0.5), (2, 1.0), (3, 2.0)):
            ctx = TestFunctionContext(N=N, mu=mu, R=1.0)
            assert c_fg(ctx, InitialProfile(R=1.0), 0.3) > 0.0

    def test_against_quadrature_oracle(self):
        from blowuplab.specfun import rho_log_derivative

        ctx = TestFunctionContext(N=2, mu=0.5, R=1.0)
        eps = 0.4
        rho0 = rho(ctx, 0.0)
        rld0 = rho_log_derivative(ctx, 0.0)
        # f = g = bump: eps rho(0) int [(mu - rho'/rho(0)) f + g] phi dx
        exact = eps * rho0 * (0.5 - rld0 + 1.0) * _profile_integral(
            lambda r: phi(2, r), 2
        )
        assert c_fg(ctx, InitialProfile(R=1.0), eps) == pytest.approx(exact, rel=1e-8)

    def test_linear_in_eps(self):
        ctx = TestFunctionContext(N=1, mu=0.5, R=1.0)
        prof = InitialProfile(R=1.0)
        assert c_fg(ctx, prof, 0.2) == pytest.approx(2.0 * c_fg(ctx, prof, 0.1))


class TestLemma31:
    def test_oracle_value_1d(self):
        ctx = TestFunctionContext(N=1, mu=0.5, R=2.0)
        t, r_exp = 0.0, 2.0
        rho_t = rho(ctx, t)

        def dens(s):
            return (rho_t * phi(1, s)) ** r_exp

        num, _ = quad(dens, 0.0, t + 2.0, limit=200, epsrel=1e-12)
        num *= surface_area(1)
        den = rho_t**r_exp * math.exp(r_exp * t)
        assert lemma31_ratio(ctx, t, r_exp) == pytest.approx(num / den, rel=1e-6)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_bounded_envelope(self, N):
        ctx = TestFunctionContext(N=N, mu=0.5, R=1.0)
        ref = lemma31_ratio(ctx, 5.0, 2.0)
        for t in np.linspace(0.0, 30.0, 31):
            assert lemma31_ratio(ctx, float(t), 2.0) <= 10.0 * ref

    def test_domain_errors(self):
        ctx = TestFunctionContext(N=1, mu=0.5, R=1.0)
        with pytest.raises(DomainError):
            lemma31_ratio(ctx, -1.0, 2.0)
        with pytest.raises(InsufficientDataError):
            lemma31_ratio(ctx, 1.0, 1.0)


class TestFixedRuleAccuracy:
    """The 256-node fixed rule against the 1024-node rule lemma31_ratio used to take."""

    @pytest.fixture(scope="class")
    def rule_1024(self):
        x, w = np.polynomial.legendre.leggauss(1024)
        return lambda upper: (0.5 * upper * (x + 1.0), 0.5 * upper * w)

    @pytest.fixture
    def rel_to_1024(self, monkeypatch, rule_1024):
        # log_phi is pure; sharing its values across mu and r only saves time
        memo = {}
        raw_log_phi = functionals.log_phi

        def cached_log_phi(N, r):
            key = (N, r.tobytes())
            if key not in memo:
                memo[key] = raw_log_phi(N, r)
            return memo[key]

        monkeypatch.setattr(functionals, "log_phi", cached_log_phi)

        def rel(f, *args):
            new = f(*args)
            with monkeypatch.context() as m:
                m.setattr(functionals, "fixed_rule", rule_1024)
                ref = f(*args)
            return abs(new / ref - 1.0)

        return rel

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_lemma31_on_the_verify_window(self, rel_to_1024, N):
        worst = max(
            rel_to_1024(lemma31_ratio, TestFunctionContext(N=N, mu=mu), float(t), r_exp)
            for mu in (0.0, 0.5, 2.0, 4.7)
            for r_exp in (1.3, 2.0, 3.0)
            for t in np.linspace(0.0, 30.0, 61)
        )
        assert worst <= 1e-12  # measured 3.4e-13 over N = 1..5

    def test_lemma31_at_a_long_horizon(self, rel_to_1024):
        worst = max(
            rel_to_1024(lemma31_ratio, TestFunctionContext(N=N, mu=mu), 400.0, r_exp)
            for N in (1, 2, 3, 4, 5)
            for mu in (0.0, 0.5, 2.0, 4.7)
            for r_exp in (1.3, 2.0, 3.0)
        )
        assert worst <= 5e-12  # measured 2.2e-12

    def test_c_fg(self, rel_to_1024):
        worst = max(
            rel_to_1024(c_fg, TestFunctionContext(N=N, mu=mu, R=R), InitialProfile(R=R), 0.3)
            for N in (1, 2, 3, 4, 5)
            for mu in (0.0, 0.5, 2.0, 4.7)
            for R in (0.5, 1.0, 2.0)
        )
        assert worst <= 1e-13  # measured 1.3e-14


def _monitored_run(eps=0.35, nr=800, t_max=10.0):
    params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
    cfg = SimConfig(params=params, eps=eps, L=12.0, nr=nr, t_max=t_max)
    return params, run(cfg)


class TestResidualF:
    def test_identity_holds_on_trajectory(self):
        params, res = _monitored_run()
        rep = residual_F(res.monitors, params)
        t_end = res.monitors.t[-1]
        window = res.monitors.t <= 0.8 * t_end
        assert float(np.max(rep[window])) < 0.05

    def test_decreases_under_refinement(self):
        params, coarse = _monitored_run(nr=400)
        _, fine = _monitored_run(nr=1600)
        def worst(res):
            rep = residual_F(res.monitors, params)
            window = res.monitors.t <= 0.8 * res.monitors.t[-1]
            return float(np.max(rep[window]))
        assert worst(fine) < worst(coarse)

    def test_needs_enough_samples(self):
        cols = [np.array([0.0, 0.1, 0.2])] * 10
        series = MonitorSeries(*cols)
        with pytest.raises(InsufficientDataError):
            residual_F(series, ModelParams(N=1, mu=0.5, p=2.0, q=2.0))


class TestCoercivity:
    def test_positive_on_blowup_run(self):
        _, res = _monitored_run()
        rep = coercivity_report(res.monitors, 0.35)
        assert rep.min_g1_over_eps > 0.0
        assert rep.min_g2_over_eps > 0.0
        assert not rep.violated

    def test_zero_data_flagged(self):
        _, res = _monitored_run(eps=0.35)
        rep = coercivity_report(res.monitors, 0.0)
        assert rep.violated
        assert rep.min_g1_over_eps == 0.0

    @pytest.mark.parametrize("column, eps", [("G1", 0.35), ("G2", 0.35), (None, math.nan)])
    def test_nan_minimum_flagged(self, column, eps):
        # NaN compares false with 0, so a NaN minimum must not read as positive
        _, res = _monitored_run()
        series = res.monitors
        if column is not None:
            values = getattr(series, column).copy()
            values[len(values) // 2] = math.nan
            series = replace(series, **{column: values})
        assert coercivity_report(series, eps).violated

    def test_empty_window(self):
        _, res = _monitored_run()
        empty = MonitorSeries(*(column[:0] for column in vars(res.monitors).values()))
        for series, t_lo in ((res.monitors, 1e6), (empty, 2.0)):
            with pytest.raises(InsufficientDataError):
                coercivity_report(series, 0.35, t_lo=t_lo)
