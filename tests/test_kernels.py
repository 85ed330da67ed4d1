"""The step kernel: support window, boundary cell, leapfrog limit, damping,
bitwise agreement with the expression form it was written from, and
rounding-level agreement with the scheme's former grouping and, at the
first step, with the explicit Taylor start."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from blowuplab import kernels
from blowuplab.solver import RadialGrid, State


def _reference_laplacian(u, h, dim, hi, shift=0.0):
    """The stencil rows in expression form: a new array for each operation."""
    i = np.arange(1, hi + 1)
    half = (dim - 1.0) / (i * (2.0 * h * h))
    up, down = 1.0 / (h * h) + half, 1.0 / (h * h) - half
    lap = np.empty(hi + 1)
    lap[0] = 2.0 * dim * (u[1] - u[0]) / (h * h) - shift * u[0]
    lap[1:] = (
        up * u[2 : hi + 2] + down * u[0:hi] + (-2.0 / (h * h) - shift) * u[1 : hi + 1]
    )
    return lap


def _reference_advance(u, u_prev, v, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi):
    """The step in expression form; kernels.advance must match it bit for bit."""
    n = u.shape[0]
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = kernels._step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, n - 2)
    w = slice(0, hi + 1)
    rhs = _reference_laplacian(u, h, dim, hi, acc_cur + c * vel_cur)
    rhs = rhs + a * np.abs(v[w]) ** p + b * np.abs(u[w]) ** q
    if forcing is not None:
        rhs = rhs + forcing[w]
    u_new = (rhs - (acc_old + c * vel_old) * u_prev[w]) / denom
    k1 = 1.0 / dt + 0.5 * dt * acc_new
    k2 = 0.5 * dt * acc_cur - 1.0 / dt
    k3 = 0.5 * dt * acc_old
    u_next = np.zeros(n)
    v_next = np.zeros(n)
    u_next[w] = u_new
    v_next[w] = k1 * u_new + k2 * u[w] + k3 * u_prev[w]
    return u_next, v_next


def _taylor_start(u, v, forcing, t, dt, h, dim, mu, a, b, p, q, i_hi):
    """The first step as the explicit second-order Taylor formula:
    u_1 = u + dt v + (dt^2/2) acc and v_1 = v + dt acc, where
    acc = lap u - c v + a|v|^p + b|u|^q + forcing and c = mu/(1+t); a
    source whose flag is 0 is skipped."""
    n = u.shape[0]
    hi = min(i_hi, n - 2)
    w = slice(0, hi + 1)
    u0, v0 = u[w], v[w]
    acc = _reference_laplacian(u, h, dim, hi) - mu / (1.0 + t) * v0
    if a:
        acc = acc + np.abs(v0) ** p
    if b:
        acc = acc + np.abs(u0) ** q
    if forcing is not None:
        acc = acc + forcing[w]
    u_next = np.zeros(n)
    v_next = np.zeros(n)
    u_next[w] = u0 + dt * v0 + 0.5 * dt * dt * acc
    v_next[w] = v0 + dt * acc
    return u_next, v_next


def _former_advance(u, u_prev, v, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi):
    """The same scheme with its terms grouped otherwise: the Laplacian as
    a second difference plus (dim-1)/r times a central difference, and
    v_next as (u_next - u)/dt plus (dt/2) times the u'' stencil."""
    n = u.shape[0]
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = kernels._step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, n - 2)
    w = slice(0, hi + 1)
    rhs = np.empty(hi + 1)
    rhs[0] = 2.0 * dim * (u[1] - u[0]) / (h * h)
    idx = np.arange(1, hi + 1)
    rhs[1:] = (u[2 : hi + 2] - 2.0 * u[1 : hi + 1] + u[0:hi]) / (h * h) + (
        dim - 1.0
    ) / (idx * h) * (u[2 : hi + 2] - u[0:hi]) / (2.0 * h)
    rhs += a * np.abs(v[w]) ** p + b * np.abs(u[w]) ** q
    if forcing is not None:
        rhs += forcing[w]
    rhs -= (acc_cur + c * vel_cur) * u[w]
    rhs -= (acc_old + c * vel_old) * u_prev[w]
    u_new = rhs / denom
    acc = acc_new * u_new + acc_cur * u[w] + acc_old * u_prev[w]
    u_next = np.zeros(n)
    v_next = np.zeros(n)
    u_next[w] = u_new
    v_next[w] = (u_new - u[w]) / dt + 0.5 * dt * acc
    return u_next, v_next


def _term_scales(u, u_prev, v, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi):
    """Per window cell, the largest term of u_next and of v_next in magnitude
    (each a bound on the terms of both groupings); the rounding of u_next
    enters v_next through k1."""
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = kernels._step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, u.shape[0] - 2)
    w = slice(0, hi + 1)
    weight = np.full(hi + 1, 2.0 * dim / (h * h))  # of u_{i +- 1}
    weight[1:] = 1.0 / (h * h) + (dim - 1.0) / (np.arange(1, hi + 1) * (2.0 * h * h))
    terms = [
        weight * np.abs(u[1 : hi + 2]),
        weight * np.abs(np.r_[u[0], u[0:hi]]),
        (2.0 * dim / (h * h) + abs(acc_cur + c * vel_cur)) * np.abs(u[w]),
        abs(a) * np.abs(v[w]) ** p,
        abs(b) * np.abs(u[w]) ** q,
        abs(acc_old + c * vel_old) * np.abs(u_prev[w]),
    ]
    if forcing is not None:
        terms.append(np.abs(forcing[w]))
    scale_u = np.max(terms, axis=0) / denom
    k1 = 1.0 / dt + 0.5 * dt * acc_new
    u_new = _reference_advance(
        u, u_prev, v, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi
    )[0][w]
    scale_v = np.max(
        [
            k1 * np.abs(u_new),
            abs(0.5 * dt * acc_cur - 1.0 / dt) * np.abs(u[w]),
            abs(0.5 * dt * acc_old) * np.abs(u_prev[w]),
        ],
        axis=0,
    )
    return scale_u, k1 * scale_u + scale_v


def _state(u, v):
    """The solver state that advance takes in place of v, for its sources."""
    return State(
        t=0.0, dt_prev=0.0, u=u, u_prev=None, v=v, step=0,
        grid=RadialGrid(1, 0.1, u.size), window=u.size,
    )


def _random_state(n, rng):
    u = rng.standard_normal(n) * 0.3
    u_prev = u + 0.01 * rng.standard_normal(n)
    v = rng.standard_normal(n) * 0.2
    forcing = rng.standard_normal(n) * 0.05
    return u, u_prev, v, forcing


def test_support_window_stays_zero():
    rng = np.random.default_rng(3)
    n = 50
    u, u_prev, v, forcing = _random_state(n, rng)
    i_hi = 20
    un, vn = kernels.advance(
        u, u_prev, _state(u, v), forcing, 0.2, 0.01, 0.01, 0.1, 1, 0.5, 1.0, 0.0, 2.0, 2.0, i_hi,
        kernels.radial_stencil(1, 0.1, n - 1),
    )
    assert np.all(un[i_hi + 1 :] == 0.0)
    assert np.all(vn[i_hi + 1 :] == 0.0)


def test_dirichlet_boundary_cell():
    # Even with i_hi at the end of the grid the last cell is pinned to zero.
    rng = np.random.default_rng(4)
    n = 30
    u, u_prev, v, forcing = _random_state(n, rng)
    un, vn = kernels.advance(
        u, u_prev, _state(u, v), forcing, 0.2, 0.01, 0.01, 0.1, 2, 1.0, 0.0, 1.0, 2.0, 2.2,
        n - 1,
        kernels.radial_stencil(2, 0.1, n - 1),
    )
    assert un[-1] == 0.0 and vn[-1] == 0.0


def test_uniform_step_reduces_to_leapfrog():
    # dt == dt_prev, mu = 0, no sources: u_next = 2u - u_prev + dt^2 lap.
    n = 40
    h, dt = 0.1, 0.05
    r = np.arange(n) * h
    u = np.exp(-(r**2))
    u_prev = np.exp(-((r + 0.01) ** 2))
    v = np.zeros(n)
    forcing = np.zeros(n)
    un, _ = kernels.advance(
        u, u_prev, _state(u, v), forcing, 1.0, dt, dt, h, 1, 0.0, 0.0, 0.0, 2.0, 2.0, n - 2,
        kernels.radial_stencil(1, h, n - 1),
    )
    lap = np.zeros(n)
    lap[0] = 2.0 * (u[1] - u[0]) / h**2
    lap[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    expected = 2 * u - u_prev + dt**2 * lap
    np.testing.assert_allclose(un[: n - 1], expected[: n - 1], rtol=1e-12, atol=1e-14)


def test_damping_sign():
    # mu > 0 must pull the update toward smaller |u_next| than the undamped
    # step when the solution is growing.
    n = 20
    h, dt = 0.1, 0.05
    u = np.full(n, 1.0)
    u_prev = np.full(n, 0.9)  # growing in time
    u[-1] = u_prev[-1] = 0.0
    v = np.zeros(n)
    forcing = np.zeros(n)
    stencil = kernels.radial_stencil(1, h, n - 1)
    un0, _ = kernels.advance(
        u, u_prev, _state(u, v), forcing, 0.0, dt, dt, h, 1, 0.0, 0.0, 0.0, 2.0, 2.0, 5, stencil
    )
    un1, _ = kernels.advance(
        u, u_prev, _state(u, v), forcing, 0.0, dt, dt, h, 1, 2.0, 0.0, 0.0, 2.0, 2.0, 5, stencil
    )
    assert np.all(un1[:4] < un0[:4])


_step_args = hs.fixed_dictionaries(
    {
        "n": hs.integers(4, 400),
        "i_hi": hs.integers(0, 420),
        "t": hs.floats(0.0, 50.0),
        "dt": hs.floats(1e-4, 0.05),
        "dt_prev": hs.floats(1e-4, 0.05),
        "h": hs.floats(0.005, 0.2),
        "dim": hs.integers(1, 4),
        "mu": hs.floats(0.0, 3.0),
        "a": hs.sampled_from([0.0, 1.0]),
        "b": hs.sampled_from([0.0, 1.0]),
        "p": hs.one_of(hs.just(2.0), hs.floats(1.05, 4.0)),
        "q": hs.one_of(hs.just(2.0), hs.floats(1.05, 4.0)),
        "forced": hs.booleans(),
        "stencil_extra": hs.integers(0, 3),
        "seed": hs.integers(0, 2**32 - 1),
    }
)


def _call(fn, d, u, u_prev, v, forcing, *extra):
    return fn(
        u, u_prev, v, forcing, d["t"], d["dt"], d["dt_prev"], d["h"], d["dim"],
        d["mu"], d["a"], d["b"], d["p"], d["q"], d["i_hi"], *extra,
    )


def _stencil(d):
    # as the solver passes it: n - 1 cells or more
    return kernels.radial_stencil(d["dim"], d["h"], d["n"] - 1 + d["stencil_extra"])


@settings(max_examples=200, deadline=None)
@given(_step_args)
def test_advance_matches_expression_form_bitwise(d):
    n = d["n"]
    rng = np.random.default_rng(d["seed"])
    u, u_prev, v, forcing = _random_state(n, rng)
    if not d["forced"]:
        forcing = None
    stencil = _stencil(d)
    state = _state(u, v)
    inputs = [
        x for x in (u, u_prev, state.mag_u, state.mag_v, forcing, *stencil)
        if x is not None
    ]
    before = [x.copy() for x in inputs]

    un, vn = _call(kernels.advance, d, u, u_prev, state, forcing, stencil)
    ru, rv = _call(_reference_advance, d, u, u_prev, v, forcing)
    assert un.tobytes() == ru.tobytes()
    assert vn.tobytes() == rv.tobytes()
    for x, y in zip(inputs, before):
        assert x.tobytes() == y.tobytes()
    hi = min(d["i_hi"], n - 2)
    assert np.all(un[hi + 1 :] == 0.0) and np.all(vn[hi + 1 :] == 0.0)

    zero = np.zeros(n)
    zu, zv = _call(kernels.advance, d, zero, zero, _state(zero, zero), None, stencil)
    assert not zu.any() and not zv.any()


@settings(max_examples=200, deadline=None)
@given(d=_step_args, zeros=hs.integers(0, 400), negative=hs.booleans())
def test_advance_skips_a_source_whose_flag_is_zero(d, zeros, negative):
    # a term whose flag a or b is 0 is skipped, not added as 0 |.|^p, so the
    # kernel equals the expression form under ==: only the sign of an exact
    # zero may differ. The state's last `zeros` cells are zero (of either
    # sign), as in a solver window whose support ends inside it.
    n = d["n"]
    u, u_prev, v, forcing = _random_state(n, np.random.default_rng(d["seed"]))
    zero = -0.0 if negative else 0.0
    for x in (u, u_prev, v, forcing):
        x[n - min(zeros, n) :] = zero
    if not d["forced"]:
        forcing = None
    un, vn = _call(kernels.advance, d, u, u_prev, _state(u, v), forcing, _stencil(d))
    ru, rv = _call(_reference_advance, d, u, u_prev, v, forcing)
    assert np.array_equal(un, ru) and np.array_equal(vn, rv)


@settings(max_examples=300, deadline=None)
@given(_step_args)
def test_advance_matches_former_grouping_to_rounding(d):
    # the stencil form regroups the scheme's terms and so moves its results
    # by rounding only; 16 eps of the largest term leaves a margin over the
    # 6.4 eps (u_next) and 2.7 eps (v_next) seen on 20,000 random steps
    rng = np.random.default_rng(d["seed"])
    u, u_prev, v, forcing = _random_state(d["n"], rng)
    if not d["forced"]:
        forcing = None
    un, vn = _call(kernels.advance, d, u, u_prev, _state(u, v), forcing, _stencil(d))
    fu, fv = _call(_former_advance, d, u, u_prev, v, forcing)
    scale_u, scale_v = _call(_term_scales, d, u, u_prev, v, forcing)
    tol = 16.0 * np.finfo(float).eps
    m = scale_u.shape[0]
    assert np.all(np.abs(un[:m] - fu[:m]) <= tol * scale_u)
    assert np.all(np.abs(vn[:m] - fv[:m]) <= tol * scale_v)
    assert un[m:].tobytes() == fu[m:].tobytes() and vn[m:].tobytes() == fv[m:].tobytes()


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)], ids=["ab", "a", "b"])
@settings(max_examples=60, deadline=None)
@given(d=_step_args)
def test_first_step_is_the_taylor_start(a, b, forced, d):
    # at dt_prev = 0 advance reads state.v in place of u_prev (None here):
    # it is the expression form with v in u_prev's slot, bit for bit, and
    # the explicit Taylor formula to rounding; 16 eps of the largest term
    # leaves a margin over the 6.2 eps (u_1) and 2.9 eps (v_1) seen on
    # 20,000 random steps
    d = {**d, "dt_prev": 0.0, "a": a, "b": b}
    u, _, v, forcing = _random_state(d["n"], np.random.default_rng(d["seed"]))
    if not forced:
        forcing = None
    un, vn = _call(kernels.advance, d, u, None, _state(u, v), forcing, _stencil(d))
    ru, rv = _call(_reference_advance, d, u, v, v, forcing)
    assert un.tobytes() == ru.tobytes() and vn.tobytes() == rv.tobytes()

    tu, tv = _taylor_start(
        u, v, forcing, d["t"], d["dt"], d["h"], d["dim"], d["mu"], a, b, d["p"], d["q"],
        d["i_hi"],
    )
    scale_u, scale_v = _call(_term_scales, d, u, v, v, forcing)
    tol = 16.0 * np.finfo(float).eps
    m = scale_u.shape[0]
    assert np.all(np.abs(un[:m] - tu[:m]) <= tol * scale_u)
    assert np.all(np.abs(vn[:m] - tv[:m]) <= tol * scale_v)
    assert not (un[m:].any() or vn[m:].any() or tu[m:].any() or tv[m:].any())
