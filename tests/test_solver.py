"""Radial finite-difference solver: correctness, order, and run policy."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from blowuplab import solver
from blowuplab.errors import ConfigError, NoBlowUpObservedError
from blowuplab.exponents import ModelParams
from blowuplab.functionals import MONITOR_COLUMNS
from blowuplab.solver import (
    InitialProfile,
    SimConfig,
    State,
    build_initial_state,
    discrete_energy,
    measure_lifespan,
    propose_dt,
    run,
    time_step,
)

LINEAR = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=0)


def _march(cfg, state, t_end):
    while state.t < t_end:
        state = time_step(state, cfg)
    return state


class TestConfig:
    def test_domain_must_cover_cone(self):
        with pytest.raises(ConfigError):
            SimConfig(params=LINEAR, eps=0.1, L=5.0, nr=100, t_max=10.0)

    def test_profile_validation(self):
        with pytest.raises(Exception):
            InitialProfile(shape="square")
        with pytest.raises(Exception):
            InitialProfile(R=-1.0)

    def test_bump_profile_properties(self):
        prof = InitialProfile(R=2.0)
        r = np.linspace(0.0, 3.0, 301)
        f = prof.values(r)
        assert f[0] == pytest.approx(1.0)
        assert np.all(f >= 0.0)
        assert np.all(f[r >= 2.0] == 0.0)

    def test_initial_state_scaling(self):
        cfg = SimConfig(params=LINEAR, eps=0.25, L=12.0, nr=120, t_max=4.0)
        st = build_initial_state(cfg)
        assert float(np.max(st.u)) == pytest.approx(0.25)
        np.testing.assert_array_equal(st.u, st.v)


class TestTimeStepping:
    def test_cfl_scales_with_dimension(self):
        # Stability of the regularized origin needs dt <= cfl * h / sqrt(N).
        for N in (1, 2, 3):
            params = ModelParams(N=N, mu=0.5, p=2.0, q=2.0, a=0, b=0)
            cfg = SimConfig(params=params, eps=1e-9, L=12.0, nr=100, t_max=4.0)
            st = build_initial_state(cfg)
            dt = propose_dt(st, cfg)
            assert dt == pytest.approx(0.9 * cfg.h / math.sqrt(N))

    def test_dt_shrinks_with_amplitude(self):
        params = ModelParams(N=1, mu=0.5, p=2.0, q=3.0, a=1, b=1)
        cfg = SimConfig(params=params, eps=1.0, L=12.0, nr=100, t_max=4.0)
        st = build_initial_state(cfg)
        big = State(
            t=0.0, dt_prev=0.0, u=50.0 * st.u, u_prev=None, v=50.0 * st.v,
            step=0, h=st.h,
        )
        assert propose_dt(big, cfg) < propose_dt(st, cfg) / 100.0

    def test_dt_growth_capped(self):
        cfg = SimConfig(params=LINEAR, eps=0.1, L=12.0, nr=100, t_max=4.0)
        st = build_initial_state(cfg)
        st = State(
            t=1.0, dt_prev=1e-4, u=st.u, u_prev=st.u, v=st.v, step=5, h=st.h
        )
        assert propose_dt(st, cfg) <= 1.05 * 1e-4 + 1e-18

    def test_zero_data_stays_zero(self):
        cfg = SimConfig(params=LINEAR, eps=0.0, L=12.0, nr=120, t_max=2.0)
        res = run(cfg)
        assert res.outcome == "reached_tmax"
        assert res.amp0 == 0.0
        assert np.all(res.monitors.max_abs_u == 0.0)

    def test_finite_speed_of_propagation(self):
        cfg = SimConfig(
            params=LINEAR, eps=0.5, profile=InitialProfile(R=1.0),
            L=12.0, nr=600, t_max=4.0,
        )
        st = _march(cfg, build_initial_state(cfg), 3.0)
        assert st.u.shape[0] <= cfg.nr + 1
        r = np.arange(st.u.shape[0]) * cfg.h
        outside = r > st.t + 1.0 + 4 * cfg.h
        assert np.all(st.u[outside] == 0.0)
        assert np.any(st.u[r <= st.t + 1.0] != 0.0)


class TestSupportWindow:
    """The state holds the support window only; nr merely caps its growth."""

    @staticmethod
    def _check_window(state, cfg):
        n = state.u.shape[0]
        hi = solver._active_hi(cfg, state.t)
        assert state.v.shape[0] == n
        assert state.u_prev is None or state.u_prev.shape[0] == n
        assert n <= cfg.nr + 1
        assert n <= max(64, 2 * (hi + 2))
        assert np.all(state.u[hi + 1 :] == 0.0)
        assert np.all(state.v[hi + 1 :] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        N=hs.sampled_from([1, 2, 3]),
        eps=hs.floats(0.05, 3.0),
        steps=hs.integers(1, 300),
    )
    def test_matches_a_fifty_times_larger_domain(self, N, eps, steps):
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.2, a=1, b=1)
        # L exceeds t_max + R by 20 cells, so the capped run never sees its
        # outer boundary and both runs must agree bit for bit
        cfg = SimConfig(params=params, eps=eps, L=8.0, nr=160, t_max=6.0)
        big = replace(cfg, L=50 * cfg.L, nr=50 * cfg.nr)
        assert big.h == cfg.h
        a, b = build_initial_state(cfg), build_initial_state(big)
        lengths = {a.u.shape[0]}
        for _ in range(steps):
            if a.t >= cfg.t_max or not np.max(np.abs(a.u)) < 1e6 * eps:
                break
            a, b = time_step(a, cfg), time_step(b, big)
            lengths.add(a.u.shape[0])
            assert a.t == b.t
            n = min(a.u.shape[0], b.u.shape[0])
            for x, y in ((a.u, b.u), (a.v, b.v)):
                np.testing.assert_array_equal(x[:n], y[:n])
                assert not x[n:].any() and not y[n:].any()
            self._check_window(a, cfg)
            self._check_window(b, big)
        # geometric growth: a handful of regrowths, not one per new cell
        assert len(lengths) <= math.log2(cfg.nr + 1) + 1
        ra, rb = run(cfg, monitor=False), run(big, monitor=False)
        assert (ra.outcome, ra.t_blowup, ra.steps) == (rb.outcome, rb.t_blowup, rb.steps)

    def test_monitored_log_phi_follows_support(self, monkeypatch):
        points = []
        log_phi = solver.log_phi

        def counted(N, r):
            points.append(np.size(r))
            return log_phi(N, r)

        monkeypatch.setattr(solver, "log_phi", counted)
        params = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)
        cfg = SimConfig(params=params, eps=1.2, L=22.0, nr=440, t_max=20.0)
        res = run(cfg)
        assert res.outcome == "blowup"
        total = sum(points)
        hi = solver._active_hi(cfg, res.t_blowup)
        assert total <= max(64, 2 * (hi + 2))

        points.clear()
        res_big = run(replace(cfg, L=100 * cfg.L, nr=100 * cfg.nr))
        assert sum(points) == total
        assert res_big.t_blowup == res.t_blowup
        np.testing.assert_array_equal(res_big.monitors.G1, res.monitors.G1)


class TestEnergy:
    @pytest.mark.parametrize("N", [1, 3])
    def test_linear_energy_nonincreasing(self, N):
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.0, a=0, b=0)
        cfg = SimConfig(params=params, eps=0.5, L=12.0, nr=400, t_max=8.0)
        state = build_initial_state(cfg)
        energies = [discrete_energy(state, cfg)]
        while state.t < cfg.t_max:
            state = time_step(state, cfg)
            if state.step % 25 == 0:
                energies.append(discrete_energy(state, cfg))
        energies.append(discrete_energy(state, cfg))
        e = np.array(energies)
        # strict decay up to the leapfrog's O(dt^2) energy oscillation
        assert np.all(np.diff(e) <= 1e-6 * e[0])
        assert e[-1] < 0.9 * e[0]


def _mms_error(N, nr, t_end=1.0, mu=0.5):
    """L2 error against u* = e^{-t} cos(pi r / (2L)) with exact forcing."""
    L = 4.0
    k = math.pi / (2.0 * L)
    params = ModelParams(N=N, mu=mu, p=2.0, q=2.0, a=0, b=0)

    def exact(r, t):
        return math.exp(-t) * np.cos(k * r)

    def forcing(r, t):
        # f = u*_tt - Lap u* + mu/(1+t) u*_t  (linear equation)
        sinc = np.where(r > 0, np.sin(k * r) / np.where(r > 0, r, 1.0), k)
        lap = math.exp(-t) * (-(k**2) * np.cos(k * r) - (N - 1) * k * sinc)
        return exact(r, t) - lap - mu / (1.0 + t) * exact(r, t)

    # R = L keeps the active window covering the whole (non-compact) solution.
    cfg = SimConfig(
        params=params, eps=1.0, profile=InitialProfile(R=L),
        L=L, nr=nr, t_max=t_end + 1.0, forcing=forcing,
    )
    r = np.arange(nr + 1) * cfg.h
    state = State(
        t=0.0, dt_prev=0.0, u=exact(r, 0.0), u_prev=None,
        v=-exact(r, 0.0), step=0, h=cfg.h,
    )
    state = _march(cfg, state, t_end)
    err = state.u - exact(r, state.t)
    return math.sqrt(cfg.h * float(np.sum(err**2)))


class TestManufacturedSolution:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_second_order_convergence(self, N):
        errs = [_mms_error(N, nr) for nr in (64, 128, 256)]
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        for rate in rates:
            assert rate == pytest.approx(2.0, abs=0.3)


class TestRun:
    def test_blowup_detected(self):
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.4, L=12.0, nr=300, t_max=10.0)
        res = run(cfg, monitor=False)
        assert res.outcome == "blowup"
        assert 0.0 < res.t_blowup < cfg.t_max
        assert res.reason

    def test_small_data_reaches_tmax(self):
        cfg = SimConfig(params=LINEAR, eps=0.3, L=12.0, nr=200, t_max=5.0)
        res = run(cfg)
        assert res.outcome == "reached_tmax"
        assert res.t_blowup is None
        assert len(res.monitors) > 5

    def test_deterministic(self):
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.4, L=12.0, nr=200, t_max=10.0)
        r1, r2 = run(cfg), run(cfg)
        assert r1.t_blowup == r2.t_blowup
        assert r1.steps == r2.steps
        np.testing.assert_array_equal(r1.monitors.F, r2.monitors.F)

    def test_one_propose_dt_per_step(self, monkeypatch):
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.4, L=12.0, nr=200, t_max=10.0)
        calls = []
        monkeypatch.setattr(
            solver, "propose_dt", lambda *a: calls.append(1) or propose_dt(*a)
        )
        res = run(cfg)
        assert res.outcome == "blowup"
        assert len(calls) <= res.steps + 1
        # the dt run hands to time_step is the one time_step would propose
        monkeypatch.setattr(solver, "time_step", lambda s, c, dt=None: time_step(s, c))
        own = run(cfg)
        assert (res.t_blowup, res.steps) == (own.t_blowup, own.steps)
        for name in MONITOR_COLUMNS:
            np.testing.assert_array_equal(
                getattr(res.monitors, name), getattr(own.monitors, name)
            )


class TestMeasureLifespan:
    PARAMS = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)

    def test_levels_agree_within_five_percent(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=600, t_max=10.0)
        est = measure_lifespan(cfg, refine=3)
        t_fine = est.levels[-1]
        for t in est.levels:
            assert abs(t - t_fine) / t_fine < 0.05
        assert est.t_est == pytest.approx(t_fine, rel=0.05)

    def test_richardson_improves_on_coarse(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=150, t_max=10.0)
        est2 = measure_lifespan(cfg, refine=2)
        est3 = measure_lifespan(cfg, refine=3)
        # refine=3's finest level is the best direct measurement available;
        # the refine=2 extrapolation should land closer to it than its own
        # coarse level does.
        ref = est3.levels[-1]
        assert abs(est2.t_est - ref) < abs(est2.levels[0] - ref)

    def test_no_blowup_raises(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.01, L=12.0, nr=150, t_max=2.0)
        with pytest.raises(NoBlowUpObservedError):
            measure_lifespan(cfg, refine=1)

    def test_refine_validation(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=150, t_max=10.0)
        with pytest.raises(ConfigError):
            measure_lifespan(cfg, refine=0)
