"""Radial finite-difference solver: correctness, order, and run policy."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from blowuplab import kernels, solver
from blowuplab.errors import ConfigError
from blowuplab.exponents import ModelParams, lifespan_exponent
from blowuplab.functionals import MONITOR_COLUMNS, monitor_series, residual_F
from blowuplab.lifespan import measure_lifespan, richardson
from blowuplab.solver import (
    InitialProfile,
    RadialGrid,
    SimConfig,
    State,
    build_initial_state,
    discrete_energy,
    propose_dt,
    run,
    time_step,
)
from blowuplab.specfun import TestFunctionContext, surface_area

LINEAR = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=0)


def _march(cfg, state, t_end, forcing=None):
    while state.t < t_end:
        state = time_step(state, cfg, forcing=forcing)
    return state


class TestConfig:
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

    def test_threshold_and_dt_min_bounds_are_sharp(self):
        # at a threshold <= 1, or at a largest step min(cfl h / sqrt(N), ETA)
        # <= dt_min, every run was labelled blow-up after one step or none;
        # with the defaults this one reaches t_max in 112 steps
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.01, L=12.0, nr=600, t_max=2.0)
        assert run(cfg, monitor=False).steps == 112
        replace(cfg, blowup_threshold=math.nextafter(1.0, 2.0))
        with pytest.raises(ConfigError, match="blowup_threshold"):
            replace(cfg, blowup_threshold=1.0)
        replace(cfg, dt_min=math.nextafter(cfg.cfl_dt, 0.0))
        with pytest.raises(ConfigError, match="dt_min"):
            replace(cfg, dt_min=cfg.cfl_dt)
        big_h = replace(cfg, nr=64, L=640.0)  # cfl h > ETA: ETA is the bound
        replace(big_h, dt_min=math.nextafter(solver.ETA, 0.0))
        with pytest.raises(ConfigError, match="dt_min"):
            replace(big_h, dt_min=solver.ETA)

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
            step=0, grid=st.grid, window=st.window,
        )
        assert propose_dt(big, cfg) < propose_dt(st, cfg) / 100.0

    def test_dt_growth_capped(self):
        cfg = SimConfig(params=LINEAR, eps=0.1, L=12.0, nr=100, t_max=4.0)
        st = build_initial_state(cfg)
        st = State(
            t=1.0, dt_prev=1e-4, u=st.u, u_prev=st.u, v=st.v, step=5, grid=st.grid,
            window=st.window,
        )
        assert propose_dt(st, cfg) <= 1.05 * 1e-4 + 1e-18

    def test_step_past_the_window_widens_it(self):
        # a dt of h or more reaches past the state's window; the step must
        # equal, bitwise, one from a state whose window is its whole grid
        params = ModelParams(N=2, mu=0.5, p=1.9, q=2.2, a=1, b=1)
        cfg = SimConfig(params=params, eps=0.5, L=12.0, nr=100, t_max=4.0)
        first = build_initial_state(cfg)
        for st in (first, time_step(first, cfg)):  # the Taylor start, then a later step
            n = 4 * st.u.shape[0]
            wide = State(
                t=st.t, dt_prev=st.dt_prev, u=solver._padded(st.u, n),
                u_prev=solver._padded(st.u_prev, n), v=solver._padded(st.v, n),
                step=st.step, grid=RadialGrid(params.N, cfg.h, n), window=n,
            )
            got, want = time_step(st, cfg, 3.0 * cfg.h), time_step(wide, cfg, 3.0 * cfg.h)
            assert got.window == want.window > st.window + 1
            k = got.u.shape[0]
            for name in ("u", "v"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.tobytes() == b[:k].tobytes() and not b[k:].any()

    def test_cfl_just_below_one_runs(self):
        # dt is within rounding of h, and at t = 0.2 and 0.4 rounding makes
        # the step's active window gain two cells, one past the state's window
        cfg = SimConfig(
            params=LINEAR, eps=1e-3, L=10.0, nr=100, t_max=2.0, cfl=1.0 - 2.0**-53
        )
        assert run(cfg, monitor=False).outcome == "reached_tmax"

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
        assert st.u.shape[0] <= max(64, 2 * (solver._active_hi(cfg, st.t) + 2))
        r = np.arange(st.u.shape[0]) * cfg.h
        outside = r > st.t + 1.0 + 4 * cfg.h
        assert np.all(st.u[outside] == 0.0)
        assert np.any(st.u[r <= st.t + 1.0] != 0.0)


class TestSupportWindow:
    """The state holds the support window only, whatever L and nr are."""

    @staticmethod
    def _check_window(state, cfg):
        n = state.u.shape[0]
        hi = solver._active_hi(cfg, state.t)
        assert state.v.shape[0] == n
        assert state.u_prev is None or state.u_prev.shape[0] == n
        assert n <= max(64, 2 * (hi + 2))
        assert np.all(state.u[hi + 1 :] == 0.0)
        assert np.all(state.v[hi + 1 :] == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        N=hs.sampled_from([1, 2, 3]),
        eps=hs.floats(0.05, 3.0),
        steps=hs.integers(1, 300),
        nr=hs.integers(64, 160),
        forced=hs.booleans(),
    )
    def test_matches_a_fifty_times_larger_domain(self, N, eps, steps, nr, forced):
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.2, a=1, b=1)
        # big is 50 x the largest drawn domain (L = 8); the drawn L = nr h
        # lies below t_max + R = 7 for nr < 140. A run never sees its L, and
        # a forcing supported in r < R is evaluated on the window only, so
        # both runs must agree bit for bit at equal h, forced or not.
        radii = []

        def source(r, t):
            radii.append(r.size)
            return math.exp(-t) * np.maximum(1.0 - r * r, 0.0) ** 6

        forcing = source if forced else None
        big = SimConfig(params=params, eps=eps, L=400.0, nr=8000, t_max=6.0)
        cfg = replace(big, L=nr * big.h, nr=nr)
        assume(cfg.h == big.h)
        a, b = build_initial_state(cfg), build_initial_state(big)
        lengths = {a.u.shape[0]}
        for _ in range(steps):
            if a.t >= cfg.t_max or not np.max(np.abs(a.u)) < 1e6 * eps:
                break
            a, b = time_step(a, cfg, forcing=forcing), time_step(b, big, forcing=forcing)
            lengths.add(a.u.shape[0])
            assert a.t == b.t
            if forced:  # each run's step made one call, on the window's cells
                assert len(radii) == 2
                assert max(radii) <= solver._active_hi(cfg, a.t) + 1
                radii.clear()
            n = min(a.u.shape[0], b.u.shape[0])
            for x, y in ((a.u, b.u), (a.v, b.v)):
                np.testing.assert_array_equal(x[:n], y[:n])
                assert not x[n:].any() and not y[n:].any()
            self._check_window(a, cfg)
            self._check_window(b, big)
        # geometric growth: each regrowth at least doubles the length
        assert len(lengths) <= math.log2(max(lengths) / min(lengths)) + 1
        ra, rb = run(cfg, False, forcing), run(big, False, forcing)
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
        total, final = sum(points), points[-1]
        hi = solver._active_hi(cfg, res.t_blowup)
        assert final <= max(64, 2 * (hi + 2))  # the state's length follows the support
        assert total <= 2 * final  # one build per state length; lengths double

        points.clear()
        res_big = run(replace(cfg, L=100 * cfg.L, nr=100 * cfg.nr))
        assert sum(points) == total
        assert res_big.t_blowup == res.t_blowup
        np.testing.assert_array_equal(res_big.monitors.G1, res.monitors.G1)

    @settings(max_examples=25, deadline=None)
    @given(
        N=hs.sampled_from([1, 2, 3, 4]),
        eps=hs.floats(0.05, 3.0),
        steps=hs.integers(1, 400),
        stride=hs.sampled_from([1, 3, 10]),
    )
    def test_snapshot_weights_reused_bitwise(self, N, eps, steps, stride):
        # about `steps` steps at h = 0.05; the state starts at 25 cells and
        # doubles as its support grows, up to 4 times by t = 18. The grid's
        # snapshot weights and log phi are built once per state length, and
        # the monitors equal, bitwise, each snapshot evaluated on a freshly
        # built state and grid.
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.2, a=1, b=1)
        cfg = SimConfig(
            params=params, eps=eps, L=3.2, nr=64, t_max=1.0, monitor_stride=stride
        )
        cfg = replace(cfg, t_max=steps * cfg.cfl * cfg.h / math.sqrt(N))
        snapshot, weights_of, log_phi = (
            solver.compute_snapshot, solver.snapshot_weights, solver.log_phi
        )
        snapped, weights, points = [], [], []

        def recording_snapshot(state, params):
            snapped.append(state)
            return snapshot(state, params)

        def counted_weights(n, h, N):
            weights.append(n)
            return weights_of(n, h, N)

        def counted_log_phi(N, r):
            points.append(r.size)
            return log_phi(N, r)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "compute_snapshot", recording_snapshot)
            mp.setattr(solver, "snapshot_weights", counted_weights)
            mp.setattr(solver, "log_phi", counted_log_phi)
            res = run(cfg)
        lengths = [state.u.shape[0] for state in snapped]
        # one build per state length, when the state first has it
        assert weights == sorted(set(lengths))
        assert points == sorted(set(lengths))

        ctx = TestFunctionContext(N=N, mu=params.mu, R=cfg.profile.R)
        alone = [
            snapshot(replace(s, grid=RadialGrid(N, cfg.h, s.u.shape[0])), params)
            for s in snapped
        ]
        fresh = monitor_series(ctx, alone)
        for name in MONITOR_COLUMNS:
            np.testing.assert_array_equal(
                getattr(res.monitors, name).view(np.uint64),
                getattr(fresh, name).view(np.uint64),
            )

    @settings(max_examples=25, deadline=None)
    @given(
        N=hs.sampled_from([1, 2, 3, 4]),
        eps=hs.floats(0.05, 3.0),
        steps=hs.integers(2, 400),
    )
    def test_stencil_weights_reused_bitwise(self, N, eps, steps):
        # as above: a run whose state regrows builds the Laplacian's stencil
        # weights once per state length and steps as if the kernel were
        # handed a freshly built stencil on every call
        params = ModelParams(N=N, mu=0.5, p=2.0, q=2.2, a=1, b=1)
        cfg = SimConfig(params=params, eps=eps, L=3.2, nr=64, t_max=1.0)
        cfg = replace(cfg, t_max=steps * cfg.cfl * cfg.h / math.sqrt(N))
        cover, stencil_of, advance = solver._cover, kernels.radial_stencil, kernels.advance
        lengths, built = [], []

        def recording_cover(*args):
            state = cover(*args)
            lengths.append(state.u.shape[0])
            return state

        def counted(dim, h, n):
            built.append(n)
            return stencil_of(dim, h, n)

        def passed(*args):
            assert args[15][0].shape[0] == args[0].shape[0] - 1
            return advance(*args)

        def own(*args):
            u, h, dim = args[0], args[7], args[8]
            return advance(*args[:15], stencil_of(dim, h, u.shape[0] - 1))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_cover", recording_cover)
            mp.setattr(kernels, "radial_stencil", counted)
            mp.setattr(kernels, "advance", passed)
            reused = run(cfg)
            # one build per state length, when the state first has it
            assert built == sorted({n - 1 for n in lengths})
            mp.setattr(kernels, "advance", own)
            rebuilt = run(cfg)
        assert (reused.outcome, reused.t_blowup, reused.steps) == (
            rebuilt.outcome, rebuilt.t_blowup, rebuilt.steps
        )
        for name in MONITOR_COLUMNS:
            np.testing.assert_array_equal(
                getattr(reused.monitors, name).view(np.uint64),
                getattr(rebuilt.monitors, name).view(np.uint64),
            )


_cell_values = hs.one_of(
    hs.floats(), hs.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
)


class TestMagnitudes:
    """|u|, |v| and the sources |v|^p, |u|^q are taken once per state and
    shared by all its readers."""

    @settings(max_examples=200, deadline=None)
    @given(
        u=hs.lists(_cell_values, min_size=1, max_size=60),
        v=hs.lists(_cell_values, min_size=1, max_size=60),
    )
    def test_amps_is_max_abs_bitwise(self, u, v):
        u, v = np.array(u), np.array(v)
        grid = RadialGrid(1, 0.1, u.size)
        state = State(
            t=0.0, dt_prev=0.0, u=u, u_prev=None, v=v, step=0, grid=grid,
            window=max(u.size, v.size),
        )
        expected = np.array([np.max(np.abs(u)), np.max(np.abs(v))])
        assert np.array(state.amps).tobytes() == expected.tobytes()
        assert state.finite() == bool(np.isfinite(u).all() and np.isfinite(v).all())

    def test_kernel_reads_the_stepped_states_mags(self, monkeypatch):
        # the state a step advances is the one _cover returns (a regrowth
        # builds a new one); the kernel must take its mags, not re-take |.|
        covered, calls, inner_abs = [], [], []
        cover, advance, np_abs = solver._cover, kernels.advance, np.abs

        def recording_cover(*args):
            covered.append(cover(*args))
            return covered[-1]

        def checked_advance(*args, **kwargs):
            assert args[0] is covered[-1].u
            assert args[2] is covered[-1]
            calls.append(1)
            checked_advance.inside = True
            try:
                return advance(*args, **kwargs)
            finally:
                checked_advance.inside = False

        def spied_abs(*args, **kwargs):
            if checked_advance.inside:
                inner_abs.append(1)
            return np_abs(*args, **kwargs)

        checked_advance.inside = False
        monkeypatch.setattr(solver, "_cover", recording_cover)
        monkeypatch.setattr(kernels, "advance", checked_advance)
        monkeypatch.setattr(np, "abs", spied_abs)
        params = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)
        cfg = SimConfig(params=params, eps=1.2, L=21.0, nr=300, t_max=20.0)
        res = run(cfg)
        assert res.outcome == "blowup"
        assert len(calls) == res.steps  # the Taylor start is a kernel call too
        assert len({c.u.shape[0] for c in covered}) > 1  # the state regrew
        assert not inner_abs

    def test_one_source_pass_per_state(self, monkeypatch):
        # a snapshot of every state: the step that advances a state and its
        # snapshot share one |v|^p and one |u|^q pass, taken by the state
        passes, covered, snapped = [], [], []
        power, cover = np.power, solver._cover
        advance, snapshot = kernels.advance, solver.compute_snapshot

        def counted_power(x, *args, **kwargs):
            passes.append(x)  # kept alive, so ids stay unique
            return power(x, *args, **kwargs)

        def recording_cover(*args):
            covered.append(cover(*args))
            return covered[-1]

        def checked_advance(*args):
            assert args[2] is covered[-1]
            # the snapshot's state, unless a regrowth built a longer one
            assert covered[-1] is snapped[-1] or covered[-1].grid.n > snapped[-1].grid.n
            return advance(*args)

        def recording_snapshot(state, params):
            snapped.append(state)
            return snapshot(state, params)

        monkeypatch.setattr(np, "power", counted_power)
        monkeypatch.setattr(solver, "_cover", recording_cover)
        monkeypatch.setattr(kernels, "advance", checked_advance)
        monkeypatch.setattr(solver, "compute_snapshot", recording_snapshot)
        params = ModelParams(N=3, mu=0.5, p=1.9, q=2.2, a=1, b=1)
        cfg = SimConfig(
            params=params, eps=1.2, L=21.0, nr=300, t_max=20.0, monitor_stride=1
        )
        res = run(cfg)
        assert res.outcome == "blowup" and len(snapped) == res.steps + 1
        assert len({c.u.shape[0] for c in covered}) > 1  # the state regrew
        taken = [id(x) for x in passes]
        area = surface_area(params.N)
        for i, s in enumerate(snapped):
            assert taken.count(id(s.mag_v)) == taken.count(id(s.mag_u)) == 1
            # the state's sources are the powers of its own v and u
            assert s.ut_p(params.p).tobytes() == (
                np.abs(s.v[: s.window]) ** params.p
            ).tobytes()
            assert s.u_q(params.q).tobytes() == (
                np.abs(s.u[: s.window]) ** params.q
            ).tobytes()
            w = s.grid.weights[: s.window]
            sources = (("int_ut_p", s.ut_p(params.p)), ("int_u_q", s.u_q(params.q)))
            for column, values in sources:
                own = area * float(np.dot(w, values))
                assert getattr(res.monitors, column)[i].tobytes() == np.float64(own).tobytes()

        # unmonitored with b = 0: no |u|^q pass, the first step's included
        passes.clear()
        covered.clear()
        monkeypatch.setattr(kernels, "advance", advance)
        cfg = replace(cfg, params=replace(params, b=0))
        res = run(cfg, monitor=False)
        assert res.outcome == "blowup"
        mag_v = {id(c.mag_v) for c in covered}
        others = [id(x) for x in passes if id(x) not in mag_v]
        assert others == []
        assert covered[0].step == 0


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


def _mms_error(N, nr, t_end=1.0, mu=0.5, a=0, b=0, A=1.0):
    """L2 error against u* = A e^{-t} s^6, s = max(1 - r^2/R^2, 0), with exact
    forcing for the sources a|u_t|^2.5 + b|u|^2.2."""
    R = L = 4.0
    params = ModelParams(N=N, mu=mu, p=2.5, q=2.2, a=a, b=b)

    def bump(r):
        return np.maximum(1.0 - (r / R) ** 2, 0.0)

    def exact(r, t):
        return A * math.exp(-t) * bump(r) ** 6

    def forcing(r, t):
        # f = u*_tt - Lap u* + mu/(1+t) u*_t - a|u*_t|^p - b|u*|^q, zero for
        # r >= R; u*_t = -u*
        s = bump(r)
        lap = A * math.exp(-t) * (-12.0 * N * s**5 / R**2 + 120.0 * r**2 * s**4 / R**4)
        u = exact(r, t)
        sources = a * np.abs(u) ** params.p + b * np.abs(u) ** params.q
        return u - lap - mu / (1.0 + t) * u - sources

    # u* is supported in r < R, so the support window r <= t + R covers it
    cfg = SimConfig(
        params=params, eps=1.0, profile=InitialProfile(R=R),
        L=L, nr=nr, t_max=t_end + 1.0,
    )
    n = solver._active_hi(cfg, 0.0) + 2
    u0 = exact(np.arange(n) * cfg.h, 0.0)
    state = State(
        t=0.0, dt_prev=0.0, u=u0, u_prev=None, v=-u0, step=0,
        grid=RadialGrid(N, cfg.h, n), window=n,
    )
    state = _march(cfg, state, t_end, forcing)
    err = state.u - exact(np.arange(state.u.shape[0]) * cfg.h, state.t)
    return math.sqrt(cfg.h * float(np.sum(err**2)))


# _mms_error at nr = 64 of the scheme as it stands, keyed by (N, a, b); the
# sourced cases run at amplitude A = 3. A wrong origin row (2 dim -> dim)
# keeps the N = 2 rates at 2.04 and 2.02 but gives 1.242e-3
_MMS_ERROR_64 = {
    (1, 0, 0): 4.546e-4, (2, 0, 0): 4.707e-4, (3, 0, 0): 5.734e-4,
    (1, 1, 0): 1.448e-3, (1, 0, 1): 2.338e-3, (1, 1, 1): 1.746e-3,
    (3, 1, 0): 2.184e-4, (3, 0, 1): 2.538e-3, (3, 1, 1): 2.268e-4,
}


class TestManufacturedSolution:
    @pytest.mark.parametrize(
        "N, a, b", _MMS_ERROR_64, ids=[f"{N}" + "-a" * a + "-b" * b for N, a, b in _MMS_ERROR_64]
    )
    def test_second_order_convergence(self, N, a, b):
        A = 3.0 if a or b else 1.0
        errs = [_mms_error(N, nr, a=a, b=b, A=A) for nr in (64, 128, 256)]
        rates = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        for rate in rates:
            assert rate == pytest.approx(2.0, abs=0.3)
        assert errs[0] <= 1.25 * _MMS_ERROR_64[N, a, b]


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
        monkeypatch.setattr(
            solver, "time_step", lambda s, c, dt=None, forcing=None: time_step(s, c)
        )
        own = run(cfg)
        assert (res.t_blowup, res.steps) == (own.t_blowup, own.steps)
        for name in MONITOR_COLUMNS:
            np.testing.assert_array_equal(
                getattr(res.monitors, name), getattr(own.monitors, name)
            )


    @pytest.mark.parametrize("q", [1.5, 3.0, 5.0])
    def test_absent_power_source_does_not_move_the_run(self, q):
        # b = 0: the equation has no |u|^q, so q must not reach the dt
        # control; when it did, T was 63.84544 at q = 1.5 and 63.84593 at 5
        params = ModelParams(N=1, mu=0.5, p=2.5, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.12, L=12.0, nr=300, t_max=100.0)
        ref = run(cfg, monitor=False)
        other = run(replace(cfg, params=replace(params, q=q)), monitor=False)
        assert ref.outcome == "blowup"
        assert (other.t_blowup, other.steps) == (ref.t_blowup, ref.steps)

    def test_absent_derivative_source_does_not_shrink_dt(self):
        # a = 0: a dt shrunk by max|u_t|^(p-1) took 803,186 steps to T = 7.07205
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=0, b=1)
        cfg = SimConfig(params=params, eps=0.4, L=12.0, nr=200, t_max=10.0)
        res = run(cfg, monitor=False)
        assert res.outcome == "blowup"
        assert res.steps < 5000
        assert res.t_blowup == pytest.approx(7.0729, abs=1e-4)

    @pytest.mark.parametrize(
        "a, b, absent",
        [(1, 0, "q"), (0, 1, "p")],
        ids=["b0-q1000", "a0-p1000"],
    )
    def test_overflowing_absent_source_does_not_move_the_run(self, a, b, absent):
        # eps = 3: the absent source's power overflows to inf. The Taylor
        # start weighted it by 0, and 0 * inf = nan ended the run as
        # unstable after one step; the F'' identity did the same to the
        # monitored residual, and the monitor wrote inf into its column.
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=a, b=b)
        cfg = SimConfig(params=params, eps=3.0, L=12.0, nr=300, t_max=10.0)
        ref = run(cfg, monitor=False)
        big = replace(params, **{absent: 1000.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in a power nobody reads
            res = run(replace(cfg, params=big))
        assert ref.outcome == res.outcome == "blowup"
        assert (res.t_blowup, res.steps) == (ref.t_blowup, ref.steps)
        column = res.monitors.int_u_q if absent == "q" else res.monitors.int_ut_p
        assert len(column) > 0 and (column == 0.0).all()
        assert np.isfinite(residual_F(res.monitors, big)).all()

    @pytest.mark.parametrize("field", ["u", "v"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_is_unstable(self, monkeypatch, field, bad):
        # the real run loop, fed one poisoned kernel step inside the window
        params = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=0.4, L=12.0, nr=300, t_max=10.0)
        k = 7  # the step whose state the kernel poisons
        advance = kernels.advance

        def poisoned(*args, **kwargs):
            u_next, v_next = advance(*args, **kwargs)
            # the first kernel call, the Taylor start, makes step 1
            if poisoned.calls == k - 1:
                target = u_next if field == "u" else v_next
                target[args[14] // 2] = bad
            poisoned.calls += 1
            return u_next, v_next

        poisoned.calls = 0
        monkeypatch.setattr(kernels, "advance", poisoned)
        res = run(cfg)
        assert res.outcome == "unstable"
        assert res.reason == "non-finite values in grid state"
        assert res.steps == k
        assert res.t_blowup is None
        for name in MONITOR_COLUMNS:
            assert np.isfinite(getattr(res.monitors, name)).all(), name

    @pytest.mark.parametrize(
        "dt_min, floor",
        [(1e-10, "fell below dt_min"), (0.0, "fell below the floor dt^2 >= smallest normal float")],
        ids=["dt_min", "float-floor"],
    )
    def test_amplitude_past_the_float_range_ends_as_blowup(self, dt_min, floor):
        # eps = 1e200: max|u_t|^(p-1) = 1e400 raised OverflowError out of
        # propose_dt, and so out of run
        params = ModelParams(N=1, mu=0.5, p=3.0, q=2.0, a=1, b=0)
        cfg = SimConfig(params=params, eps=1e200, L=12.0, nr=200, t_max=10.0, dt_min=dt_min)
        assert propose_dt(build_initial_state(cfg), cfg) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the snapshot's powers overflow
            res = run(cfg)
        assert (res.outcome, res.t_blowup, res.steps) == ("blowup", 0.0, 0)
        assert res.reason.endswith(floor)

    def test_dt_underflow_ends_as_blowup(self):
        # with no dt_min and a threshold of 1e300, dt shrinks with the
        # amplitude until dt (dt + dt_prev) underflowed to 0, and the step
        # coefficients raised ZeroDivisionError at step 27
        params = ModelParams(N=1, mu=0.5, p=3.0, q=2.0, a=1, b=0)
        cfg = SimConfig(
            params=params, eps=1.0, L=12.0, nr=200, t_max=10.0,
            blowup_threshold=1e300, dt_min=0.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the last snapshot's powers overflow
            res = run(cfg)
        assert (res.outcome, res.steps) == ("blowup", 27)
        assert res.t_blowup == pytest.approx(0.6237, abs=1e-4)
        assert res.reason.endswith("fell below the floor dt^2 >= smallest normal float")


class TestMeasureLifespan:
    PARAMS = ModelParams(N=1, mu=0.5, p=2.0, q=2.0, a=1, b=0)

    def test_levels_agree_within_five_percent(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=600, t_max=10.0)
        est = measure_lifespan(cfg, refine=3)
        t_fine = est.levels[-1]
        for t in est.levels:
            assert abs(t - t_fine) / t_fine < 0.05
        assert est.T_est == pytest.approx(t_fine, rel=0.05)

    def test_extrapolates_only_with_an_observed_order(self):
        # three levels 5.0849, 5.1837, 5.2004 show order 2.56: T_est 5.2038
        # lies nearer the nr = 4800 run (5.2026) than the finest level does
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=600, t_max=10.0)
        est = measure_lifespan(cfg, refine=3)
        ref = run(replace(cfg, nr=4800), monitor=False).t_blowup
        assert abs(est.T_est - ref) < abs(est.levels[-1] - ref)
        assert abs(est.T_est - ref) <= est.uncertainty
        # two levels show no order: the row is its finest level
        row = measure_lifespan(cfg, refine=2)
        assert row.T_est == row.levels[-1]
        assert row.uncertainty == abs(row.levels[1] - row.levels[0])

    def test_no_blowup_row_keeps_its_outcome(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.01, L=12.0, nr=150, t_max=2.0)
        row = measure_lifespan(cfg, refine=1)
        assert (row.eps, row.outcome, row.levels) == (0.01, "reached_tmax", ())
        assert math.isnan(row.T_est) and math.isnan(row.uncertainty)

    @pytest.mark.parametrize("outcome", ["unstable", "reached_tmax"])
    def test_finer_level_without_blowup_ends_the_row(self, fake_runs, outcome):
        # level 0 blows up at T0 and level 1 does not: the row takes level 1's
        # outcome, NaN T_est and uncertainty, and level 0 alone
        fake_runs(finer={0.4: outcome})
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=150, t_max=10.0)
        row = measure_lifespan(cfg, refine=3)
        t0 = 2.0 * 0.4 ** -lifespan_exponent(self.PARAMS).exponent
        assert (row.eps, row.outcome, row.levels) == (0.4, outcome, (t0,))
        assert math.isnan(row.T_est) and math.isnan(row.uncertainty)

    def test_infeasible_finer_level_fails_before_any_run(self, monkeypatch):
        # at nr = 1200 the CFL step 0.009 is below dt_min = 0.01; at 600 it is not
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=600, t_max=10.0, dt_min=0.01)

        def no_run(cfg, monitor=True):
            raise AssertionError("a level ran")

        monkeypatch.setattr(solver, "run", no_run)
        with pytest.raises(ConfigError, match="dt_min"):
            measure_lifespan(cfg, refine=2)

    def test_refine_validation(self):
        cfg = SimConfig(params=self.PARAMS, eps=0.4, L=12.0, nr=150, t_max=10.0)
        with pytest.raises(ConfigError):
            measure_lifespan(cfg, refine=0)


class TestRichardson:
    @settings(max_examples=300, deadline=None)
    @given(
        n=hs.integers(3, 5),
        order=hs.floats(0.5, 4.0),
        t_star=hs.floats(0.1, 100.0),
        rel_c=hs.floats(1e-3, 1.0),
        sign=hs.sampled_from([-1.0, 1.0]),
    )
    def test_recovers_limit_and_order(self, n, order, t_star, rel_c, sign):
        # T_l = T* + C 2^(-order l): exact for the extrapolation it makes
        c = sign * rel_c * t_star
        levels = [t_star + c * 2.0 ** (-order * level) for level in range(n)]
        t, bar, got = richardson(levels)
        assert t == pytest.approx(t_star, rel=1e-12)
        assert got == pytest.approx(order, abs=1e-8)
        assert bar == abs(levels[-1] - levels[-2])

    def test_one_level(self):
        t, bar, order = richardson([5.0])
        assert t == 5.0 and math.isnan(bar) and math.isnan(order)

    def test_two_levels_give_the_finest(self):
        t, bar, order = richardson([4.0, 4.5])
        assert (t, bar) == (4.5, 0.5) and math.isnan(order)

    # growing differences (TestMeasureLifespan's eps = 0.4 row from nr = 150)
    # and a sign change: no order to extrapolate with
    @pytest.mark.parametrize("levels", [[3.97, 4.44, 5.08], [1.0, 2.0, 1.5]])
    def test_no_order_gives_the_finest(self, levels):
        t, bar, order = richardson(levels)
        assert t == levels[-1] and math.isnan(order)
        assert bar == abs(levels[-1] - levels[-2])
