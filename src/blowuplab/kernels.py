"""Time-step kernel for the radial solver.

The update is a three-level leapfrog generalized to nonuniform dt:
u'' and u' are the standard second-order nonuniform stencils at level n,
the damping term mu/(1+t) u' is taken semi-implicitly (linear in u^{n+1}),
and the nonlinear sources a|u_t|^p + b|u|^q are evaluated at level n with
a second-order reconstruction of u_t.

The kernel works on the solver's support window: its input and output
arrays hold the first n cells of the radial grid, every cell past the
active index i_hi is exactly zero, and it updates cells 0..i_hi only.
`radial_laplacian` is the one discrete Laplacian of the package; the
solver's Taylor start uses it too.
"""

from __future__ import annotations

import numpy as np


def _step_coeffs(t, dt, dt_prev, mu):
    """Scalar stencil coefficients of the nonuniform three-level update."""
    s = dt + dt_prev
    c = mu / (1.0 + t)
    acc_new = 2.0 / (dt * s)
    acc_cur = -2.0 / (dt * dt_prev)
    acc_old = 2.0 / (dt_prev * s)
    vel_new = dt_prev / (dt * s)
    vel_cur = (dt - dt_prev) / (dt * dt_prev)
    vel_old = -dt / (dt_prev * s)
    denom = acc_new + c * vel_new
    return c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom


def radial_laplacian(u, h, dim, hi):
    """u_rr + (dim-1)/r u_r at cells 0..hi; u must hold at least hi + 2 cells.

    The origin row is the regularized limit 2 dim (u_1 - u_0) / h^2.
    """
    lap = np.empty(hi + 1)
    lap[0] = 2.0 * dim * (u[1] - u[0]) / (h * h)
    idx = np.arange(1, hi + 1)
    lap[1:] = (u[2 : hi + 2] - 2.0 * u[1 : hi + 1] + u[0:hi]) / (h * h) + (
        dim - 1.0
    ) / (idx * h) * (u[2 : hi + 2] - u[0:hi]) / (2.0 * h)
    return lap


def advance(u, u_prev, v, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi):
    """One step of the scheme; returns (u_next, v_next), as long as u.

    Cells with index > i_hi are outside the active support window and stay
    exactly zero; the last cell of the arrays is never updated, so at the
    full grid length it is the homogeneous Dirichlet boundary. `forcing` is
    None for the unforced equation.
    """
    n = u.shape[0]
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = _step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, n - 2)
    w = slice(0, hi + 1)

    rhs = radial_laplacian(u, h, dim, hi)
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
