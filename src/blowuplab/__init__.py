"""Numerical laboratory for blow-up of the scale-invariant damped wave
equation with combined nonlinearities u_tt - Lap u + mu/(1+t) u_t =
a|u_t|^p + b|u|^q."""

__version__ = "0.1.0"
