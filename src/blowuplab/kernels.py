"""Time-step kernel for the radial solver.

The update is a three-level leapfrog generalized to nonuniform dt:
u'' and u' are the standard second-order nonuniform stencils at level n,
the damping term mu/(1+t) u' is taken semi-implicitly (linear in u^{n+1}),
and the nonlinear sources a|u_t|^p + b|u|^q are evaluated at level n with
a second-order reconstruction of u_t.

The kernel works on the solver's support window: its input and output
arrays hold the first n cells of the radial grid, every cell past the
active index i_hi is exactly zero, and it updates cells 0..i_hi only.
The first step (dt_prev = 0) is the second-order Taylor start
u_1 = u_0 + dt v_0 + (dt^2/2)(lap u_0 - c v_0 + a|v_0|^p + b|u_0|^q + f):
the same update with v_0 in u_prev's slot and the coefficients that
`_step_coeffs` returns for dt_prev = 0, so every step runs this one kernel.
`radial_laplacian` is the one discrete Laplacian of the package: a
three-point stencil on the per-cell weights (up, down) of `radial_stencil`
and the centre weight -2/h^2 - shift. Neither function builds the weights:
the solver passes those of its state's RadialGrid, built once per state
length. `advance`, its one caller, folds the level-n terms into the centre
weight (shift alpha = acc_cur + c vel_cur), builds the rows straight into
u_next with `out=` ufuncs and keeps the operation order (sums left to right) of

    u_next = (up u_{i+1} + down u_{i-1} + centre u_i + a|v|^p + b|u|^q
              + forcing - beta u_prev) / denom,     beta = acc_old + c vel_old
    v_next = k1 u_next + k2 u + k3 u_prev,          k1 = 1/dt + (dt/2) acc_new,
             k2 = (dt/2) acc_cur - 1/dt,            k3 = (dt/2) acc_old

so its results equal those of that expression, bitwise but for the sign
of exact zeros: a and b are the model's flags, 0 or 1 (ModelParams), and a
term whose flag is 0 is skipped, not added as 0. It regroups the terms of
lap = ((u_{i+1} - 2u_i) + u_{i-1})/h^2 + ((dim-1)/r)(u_{i+1} - u_{i-1})/(2h)
and v_next = (u_next - u)/dt + (dt/2)(acc_new u_next + acc_cur u + acc_old u_prev),
so it agrees with them to rounding. Past the first step v enters only
through |v|^p, so `advance` takes the solver's state in place of v (the
first step reads state.v as its u_prev) and adds the |v|^p
and |u|^q that it holds on its window (State.ut_p, State.u_q). It takes
no power itself: the state takes each on its first read, so one that the
monitor has read is not taken again. Its own work is 15 array passes for
a = b = 1 and no forcing, 14 for b = 0.
"""

from __future__ import annotations

import numpy as np


def _step_coeffs(t, dt, dt_prev, mu):
    """Scalar stencil coefficients of the nonuniform three-level update.

    At dt_prev = 0 they are the Taylor start's, with v_0 as u_prev: then
    alpha = -2/dt^2, beta = c - 2/dt and (k1, k2, k3) = (2/dt, -2/dt, -1),
    which also gives v_1 = v_0 + dt u_tt(0).
    """
    c = mu / (1.0 + t)
    if dt_prev == 0:
        acc = 2.0 / (dt * dt)
        return c, acc, -acc, -2.0 / dt, 0.0, 1.0, acc
    s = dt + dt_prev
    acc_new = 2.0 / (dt * s)
    acc_cur = -2.0 / (dt * dt_prev)
    acc_old = 2.0 / (dt_prev * s)
    vel_new = dt_prev / (dt * s)
    vel_cur = (dt - dt_prev) / (dt * dt_prev)
    vel_old = -dt / (dt_prev * s)
    denom = acc_new + c * vel_new
    return c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom


def radial_stencil(dim, h, n):
    """(up, down), the weights of u_{i+1} and u_{i-1} in the radial Laplacian
    at cells i = 1..n: 1/h^2 + (dim-1)/(2 i h^2) and 1/h^2 - (dim-1)/(2 i h^2)."""
    inv = 1.0 / (h * h)
    half = (dim - 1.0) / (np.arange(1, n + 1) * (2.0 * h * h))
    return inv + half, inv - half


def radial_laplacian(u, h, dim, hi, stencil, out, scratch, shift):
    """u_rr + (dim-1)/r u_r - shift u at cells 0..hi, into and as out[:hi+1].

    Row i >= 1 is up u_{i+1} + down u_{i-1} + (-2/h^2 - shift) u_i, on the
    weights of `radial_stencil`; the origin row is the regularized limit
    2 dim (u_1 - u_0) / h^2, minus shift u_0. u must hold at least hi + 2
    cells, scratch and each weight array at least hi; out and scratch must
    not overlap each other or u.
    """
    up, down = stencil
    lap = out[: hi + 1]
    lap[0] = 2.0 * dim * (u[1] - u[0]) / (h * h) - shift * u[0]
    rows, tmp = lap[1:], scratch[:hi]
    np.multiply(up[:hi], u[2 : hi + 2], out=rows)
    rows += np.multiply(down[:hi], u[0:hi], out=tmp)
    rows += np.multiply(u[1 : hi + 1], -2.0 / (h * h) - shift, out=tmp)
    return lap


def advance(u, u_prev, state, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi, stencil):
    """One step of the scheme; returns (u_next, v_next), as long as u.

    Cells with index > i_hi are outside the active support window and stay
    exactly zero, and the last cell of the arrays is never updated. With
    k = min(i_hi, n - 2), state.ut_p(p) (if a) and state.u_q(q) (if b)
    are |v|^p and |u|^q of the current level on at least k + 1 cells,
    `forcing` is None for the unforced equation or holds at least k + 1
    cells, and stencil is radial_stencil(dim, h, j) for some j >= k. At
    dt_prev = 0 the step is the Taylor start: it reads state.v in u_prev's
    place, and u_prev (None at the first step) is not read. The inputs are
    only read.
    """
    n = u.shape[0]
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = _step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, n - 2)
    m = hi + 1
    uw, pw = u[:m], (state.v if dt_prev == 0 else u_prev)[:m]

    u_next, v_next, tmp = np.zeros(n), np.zeros(n), np.empty(m)
    rhs = radial_laplacian(u, h, dim, hi, stencil, u_next, tmp, acc_cur + c * vel_cur)
    if a:
        rhs += state.ut_p(p)[:m]
    if b:
        rhs += state.u_q(q)[:m]
    if forcing is not None:
        rhs += forcing[:m]
    rhs -= np.multiply(pw, acc_old + c * vel_old, out=tmp)
    rhs /= denom  # rhs is now u_next[:m]

    half = 0.5 * dt
    vel = np.multiply(rhs, 1.0 / dt + half * acc_new, out=v_next[:m])
    vel += np.multiply(uw, half * acc_cur - 1.0 / dt, out=tmp)
    vel += np.multiply(pw, half * acc_old, out=tmp)
    return u_next, v_next
