"""The step kernel: support window, boundary cell, leapfrog limit, damping."""

import numpy as np

from blowuplab import kernels


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
        u, u_prev, v, forcing, 0.2, 0.01, 0.01, 0.1, 1, 0.5, 1.0, 0.0, 2.0, 2.0, i_hi
    )
    assert np.all(un[i_hi + 1 :] == 0.0)
    assert np.all(vn[i_hi + 1 :] == 0.0)


def test_dirichlet_boundary_cell():
    # Even with i_hi at the end of the grid the last cell is pinned to zero.
    rng = np.random.default_rng(4)
    n = 30
    u, u_prev, v, forcing = _random_state(n, rng)
    un, vn = kernels.advance(
        u, u_prev, v, forcing, 0.2, 0.01, 0.01, 0.1, 2, 1.0, 0.0, 1.0, 2.0, 2.2, n - 1
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
        u, u_prev, v, forcing, 1.0, dt, dt, h, 1, 0.0, 0.0, 0.0, 2.0, 2.0, n - 2
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
    un0, _ = kernels.advance(
        u, u_prev, v, forcing, 0.0, dt, dt, h, 1, 0.0, 0.0, 0.0, 2.0, 2.0, 5
    )
    un1, _ = kernels.advance(
        u, u_prev, v, forcing, 0.0, dt, dt, h, 1, 2.0, 0.0, 0.0, 2.0, 2.0, 5
    )
    assert np.all(un1[:4] < un0[:4])
