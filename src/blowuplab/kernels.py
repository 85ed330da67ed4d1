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
solver's Taylor start uses it too. It writes into the caller's `out` with
`out=` ufuncs, on (dim-1)/r weights precomputed by `radial_coefficients`.
`advance` builds it straight into u_next, uses v_next and one scratch array
for the rest, and keeps the operation order of the array expression

    lap    = ((u2 - 2 u1) + u0)/h^2 + (g (u2 - u0))/(2h)
    u_next = ((((lap + (a|v|^p + b|u|^q)) + forcing) - (acc_cur + c vel_cur) u)
              - (acc_old + c vel_old) u_prev) / denom
    v_next = (u_next - u)/dt + (dt/2) ((acc_new u_next + acc_cur u) + acc_old u_prev)

so its results are bitwise those of that expression. v enters the step only
through |v|^p, so `advance` takes the state's magnitudes (|u|, |v|), which
the solver has already taken for its amplitude checks, in place of v; it
skips the products by a and b when they are 1.0, as x * 1.0 == x exactly.
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


def radial_coefficients(dim, h, n):
    """(dim - 1)/r at cells 1..n, the first-derivative weights of the Laplacian."""
    return (dim - 1.0) / (np.arange(1, n + 1) * h)


def radial_laplacian(u, h, dim, hi, g, out):
    """u_rr + (dim-1)/r u_r at cells 0..hi, written into and returned as out[:hi+1].

    u must hold at least hi + 2 cells and g (radial_coefficients) at least hi;
    out must not overlap u. The origin row is the regularized limit
    2 dim (u_1 - u_0) / h^2.
    """
    lap = out[: hi + 1]
    lap[0] = 2.0 * dim * (u[1] - u[0]) / (h * h)
    u0, u1, u2 = u[0:hi], u[1 : hi + 1], u[2 : hi + 2]
    rest = lap[1:]
    np.multiply(u1, 2.0, out=rest)
    np.subtract(u2, rest, out=rest)
    rest += u0
    rest /= h * h
    drift = np.subtract(u2, u0)
    drift *= g[:hi]
    drift /= 2.0 * h
    rest += drift
    return lap


def advance(
    u, u_prev, mags, forcing, t, dt, dt_prev, h, dim, mu, a, b, p, q, i_hi, g=None
):
    """One step of the scheme; returns (u_next, v_next), as long as u.

    mags is (|u|, |v|) of the current level, each as long as u. Cells with
    index > i_hi are outside the active support window and stay exactly
    zero; the last cell of the arrays is never updated, so in a forced run,
    whose arrays span the whole grid, it is the homogeneous Dirichlet
    boundary. `forcing` is None for the unforced equation; g is
    radial_coefficients(dim, h, k) for some k >= min(i_hi, n - 2), built
    here when absent. The inputs are only read.
    """
    n = u.shape[0]
    c, acc_new, acc_cur, acc_old, vel_cur, vel_old, denom = _step_coeffs(
        t, dt, dt_prev, mu
    )
    hi = min(i_hi, n - 2)
    m = hi + 1
    if g is None:
        g = radial_coefficients(dim, h, hi)
    uw, pw = u[:m], u_prev[:m]
    mag_u, mag_v = mags

    u_next = np.zeros(n)
    v_next = np.zeros(n)
    rhs = radial_laplacian(u, h, dim, hi, g, u_next)
    src, tmp = v_next[:m], np.empty(m)
    np.power(mag_v[:m], p, out=src)
    if a != 1.0:
        src *= a
    np.power(mag_u[:m], q, out=tmp)
    if b != 1.0:
        tmp *= b
    src += tmp
    rhs += src
    if forcing is not None:
        rhs += forcing[:m]
    rhs -= np.multiply(uw, acc_cur + c * vel_cur, out=tmp)
    rhs -= np.multiply(pw, acc_old + c * vel_old, out=tmp)
    rhs /= denom  # rhs is now u_next[:m]

    acc = np.multiply(rhs, acc_new, out=src)
    acc += np.multiply(uw, acc_cur, out=tmp)
    acc += np.multiply(pw, acc_old, out=tmp)
    acc *= 0.5 * dt
    np.subtract(rhs, uw, out=tmp)
    tmp /= dt
    acc += tmp  # acc is now v_next[:m]
    return u_next, v_next
