"""Special-function layer against brute-force quadrature oracles.

Oracles use scipy.integrate.quad directly on the defining integrals, or
mpmath's 40-digit Bessel functions, with no shared code paths with the
package implementation.
"""

import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

from blowuplab import specfun
from blowuplab.errors import DomainError
from blowuplab.functionals import c_fg, lemma31_ratio
from blowuplab.solver import InitialProfile
from blowuplab.specfun import (
    TestFunctionContext,
    bessel_k,
    log_bessel_k,
    log_phi,
    log_rho,
    phi,
    rho,
    rho_log_derivative,
    surface_area,
)


def oracle_bessel_k(nu, t):
    """K_nu(t) = int_0^inf exp(-t cosh z) cosh(nu z) dz, adaptive quadrature."""
    val, err = quad(
        lambda z: math.exp(-t * math.cosh(z)) * math.cosh(nu * z),
        0.0,
        np.arccosh(1.0 + 800.0 / t),
        limit=400,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return val


def oracle_phi(N, r):
    if N == 1:
        return 2.0 * math.cosh(r)
    area = surface_area(N - 1) if N > 2 else 2.0
    val, _ = quad(
        lambda th: math.exp(r * math.cos(th)) * math.sin(th) ** (N - 2),
        0.0,
        math.pi,
        limit=200,
        epsrel=1e-13,
    )
    return area * val


class TestBesselK:
    @pytest.mark.parametrize("nu", [0.0, -0.5, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 5.0, 10.0, 30.0])
    def test_against_quadrature_oracle(self, nu, t):
        assert bessel_k(nu, t) == pytest.approx(oracle_bessel_k(nu, t), rel=1e-8)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 5.0, 10.0, 30.0])
    def test_half_order_closed_form(self, t):
        exact = math.sqrt(math.pi / (2.0 * t)) * math.exp(-t)
        assert bessel_k(0.5, t) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 2.0, 20.0])
    def test_even_in_order(self, nu, t):
        assert bessel_k(-nu, t) == pytest.approx(bessel_k(nu, t), rel=1e-12)

    def test_asymptotic_envelope(self):
        # K_nu(t) -> sqrt(pi/2t) e^{-t} with O(1/t) relative correction.
        for t in (20.0, 40.0, 80.0):
            lead = math.sqrt(math.pi / (2.0 * t)) * math.exp(-t)
            assert abs(bessel_k(1.0, t) / lead - 1.0) < 5.0 / t

    def test_log_variant_beyond_overflow(self):
        # t = 800: K itself underflows, but the log must stay accurate.
        t = 800.0
        expected = 0.5 * math.log(math.pi / (2.0 * t)) - t
        assert log_bessel_k(0.5, t) == pytest.approx(expected, rel=1e-10)
        assert bessel_k(0.5, t) == 0.0 or bessel_k(0.5, t) < 1e-300

    def test_unit_trapezoid_built_once_read_only(self):
        nodes, weights = specfun._unit_trapezoid()
        assert specfun._unit_trapezoid()[0] is nodes
        assert np.array_equal(nodes, np.linspace(0.0, 1.0, specfun._KV_STEPS + 1))
        assert math.fsum(weights) == 1.0
        with pytest.raises(ValueError):
            nodes[0] = 0.5
        with pytest.raises(ValueError):
            weights[0] = 0.5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(nu=hs.floats(-8.0, 8.0), log_t=hs.floats(-1.0, 4.0))
    def test_scaled_integral_against_mpmath(self, nu, log_t):
        # e^t K_nu(t) to 40 digits. The integrand's rounding error grows with
        # |nu| (cosh(nu z) and e^{-2t sinh^2(z/2)} carry arguments up to about
        # 5|nu| and |nu| near t = 0.1): over 105,000 random draws the worst
        # error was 1.3e-15 for |nu| <= 4 and 4.3e-16 |nu| above. So the
        # bound is 2e-15, rising as 6e-16 |nu| past |nu| = 10/3.
        t = 10.0**log_t
        with mpmath.workdps(40):
            exact = mpmath.besselk(nu, t) * mpmath.exp(t)
            rel = abs((specfun._kv_scaled(nu, t) - exact) / exact)
        assert rel <= max(2e-15, 6e-16 * abs(nu))

    @settings(max_examples=200, deadline=None)
    @given(nu=hs.floats(0.0, 20.0), log_t=hs.floats(-1.0, 4.0))
    def test_even_in_order_bitwise(self, nu, log_t):
        t = 10.0**log_t
        assert np.float64(bessel_k(-nu, t)).view(np.uint64) == np.float64(
            bessel_k(nu, t)
        ).view(np.uint64)


class TestPhi:
    def test_trivial_values(self):
        assert phi(1, 0.0) == pytest.approx(2.0, rel=1e-14)
        assert phi(2, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_three_d_closed_form(self):
        # N=3: phi(r) = 4 pi sinh(r)/r
        assert phi(3, 1.0) == pytest.approx(4.0 * math.pi * math.sinh(1.0), rel=1e-12)
        assert phi(3, 2.5) == pytest.approx(
            4.0 * math.pi * math.sinh(2.5) / 2.5, rel=1e-12
        )

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 4.0, 9.0])
    def test_against_quadrature_oracle(self, N, r):
        assert phi(N, r) == pytest.approx(oracle_phi(N, r), rel=1e-10)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_helmholtz_identity(self, N):
        # Delta phi = phi, radial form, central differences.
        h = 1e-4
        for r in np.linspace(0.1, 10.0, 23):
            d2 = (phi(N, r + h) - 2.0 * phi(N, r) + phi(N, r - h)) / h**2
            d1 = (phi(N, r + h) - phi(N, r - h)) / (2.0 * h)
            res = d2 + (N - 1) / r * d1 - phi(N, r)
            assert abs(res) / phi(N, r) < 1e-5

    def test_log_variant_matches(self):
        r = np.linspace(0.0, 30.0, 7)
        for N in (1, 2, 3):
            np.testing.assert_allclose(
                log_phi(N, r), np.log(phi(N, r)), rtol=1e-12, atol=1e-12
            )

    def test_log_variant_large_argument(self):
        # phi(1, r) = 2 cosh r overflows near r = 710; log_phi must not.
        val = log_phi(1, 800.0)
        assert val == pytest.approx(800.0 + math.log(1.0), rel=1e-12)

    def test_three_d_closed_form_against_mpmath(self):
        # log phi(3, r) = log(4 pi sinh(r)/r), against 40 digits, up to where phi
        # itself overflows (r = 800) for log_phi and to r = 700 for phi
        r = np.concatenate(
            ([0.0, 1e-12, 1e-6, 1e-3], np.linspace(0.01, 60.0, 4000), [100.0, 700.0, 800.0])
        )
        got_log, got = log_phi(3, r), phi(3, r[r <= 700.0])
        with mpmath.workdps(40):
            for i, x in enumerate(r):
                x = mpmath.mpf(x)
                ref = 4 * mpmath.pi * (mpmath.sinh(x) / x if x else 1)
                assert abs(got_log[i] - mpmath.log(ref)) <= 1e-15 * abs(mpmath.log(ref)), x
                if x <= 700:
                    assert abs(got[i] - ref) <= 1e-15 * ref, x

    def test_three_d_origin_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phi(3, 0.0) == 4.0 * math.pi
            assert log_phi(3, 0.0) == math.log(4.0 * math.pi)
            r = np.array([0.0, -0.0, 1e-300, 1.0])
            assert np.all(np.isfinite(phi(3, r))) and np.all(np.isfinite(log_phi(3, r)))

    def test_three_d_fixed_rule_agrees_with_closed_form(self):
        # the 256-node theta rule that N = 2 and N >= 4 take, summed at N = 3:
        # phi(3, r) = 2 pi int_0^pi e^{r cos theta} sin theta d theta
        theta, w = specfun.fixed_rule(math.pi)
        r = np.linspace(0.0, 60.0, 1201)
        core = np.exp(r[:, None] * (np.cos(theta) - 1.0)) * np.sin(theta)
        by_rule = r + np.log(2.0 * math.pi * np.add.reduce(core * w, axis=-1))
        np.testing.assert_allclose(by_rule, log_phi(3, r), rtol=1e-14, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        N=hs.sampled_from([2, 4, 5]),
        r=hs.lists(hs.floats(0.0, 600.0), min_size=1, max_size=400),
    )
    def test_array_equals_per_point_calls_bitwise(self, N, r):
        # each radius sums the theta rule along its own row, so its value does
        # not depend on which other radii share the call
        for fn in (phi, log_phi):
            batch = fn(N, np.array(r))
            alone = np.array([fn(N, x) for x in r])
            assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))

    def test_rule_batch_in_chunks_bitwise_in_bounded_memory(self):
        # a RadialGrid(2, 0.01, 4400).log_phi: chunked, it equals the whole
        # (4400 x 256) batch, whose temporaries alone would take 9 MB each
        r = np.arange(4400) * 0.01
        theta, w = specfun.fixed_rule(math.pi)
        core = np.exp(r[..., None] * np.cos(theta)) * np.sin(theta) ** 0
        whole_phi = 2.0 * np.add.reduce(core * w, axis=-1)
        core = np.exp(r[..., None] * (np.cos(theta) - 1.0)) * np.sin(theta) ** 0
        whole_log_phi = r + np.log(2.0 * np.add.reduce(core * w, axis=-1))
        for fn, whole in ((phi, whole_phi), (log_phi, whole_log_phi)):
            tracemalloc.start()
            try:
                chunked = fn(2, r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.array_equal(chunked.view(np.uint64), whole.view(np.uint64))
            assert peak < 2 * 2**20

    def test_domain_error(self):
        with pytest.raises(DomainError):
            phi(0, 1.0)


class TestRho:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_positive_and_decaying(self, mu):
        ctx = TestFunctionContext(N=1, mu=mu)
        vals = [rho(ctx, t) for t in (0.0, 1.0, 5.0, 20.0)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_oracle_value(self):
        # rho(t) = (t+1)^{(mu+1)/2} K_{(mu-1)/2}(t+1) against the K oracle.
        for mu, t in ((0.5, 0.0), (1.0, 2.0), (3.0, 7.0)):
            ctx = TestFunctionContext(N=1, mu=mu)
            nu = (mu - 1.0) / 2.0
            expected = (t + 1.0) ** ((mu + 1.0) / 2.0) * oracle_bessel_k(nu, t + 1.0)
            assert rho(ctx, t) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    def test_conjugate_ode_residual(self, mu):
        # rho'' - rho = d/dt [ mu/(1+t) rho ], second-order differences.
        ctx = TestFunctionContext(N=1, mu=mu)
        h = 1e-4
        for t in np.linspace(h, 20.0, 41):
            d2 = (rho(ctx, t + h) - 2.0 * rho(ctx, t) + rho(ctx, t - h)) / h**2
            damp = (
                mu / (1.0 + t + h) * rho(ctx, t + h)
                - mu / (1.0 + t - h) * rho(ctx, t - h)
            ) / (2.0 * h)
            assert abs(d2 - rho(ctx, t) - damp) / rho(ctx, t) < 1e-6

    def test_log_derivative_identity_mu_zero(self):
        # mu = 0: rho = sqrt(pi/2) e^{-(t+1)} exactly, so rho'/rho = -1.
        ctx = TestFunctionContext(N=1, mu=0.0)
        for t in (0.0, 1.0, 10.0):
            assert rho_log_derivative(ctx, t) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_log_derivative_against_differences(self, mu):
        ctx = TestFunctionContext(N=1, mu=mu)
        h = 1e-5
        for t in (0.0, 0.7, 3.0, 12.0):
            tm = max(t, h)
            fd = (rho(ctx, tm + h) - rho(ctx, tm - h)) / (2.0 * h * rho(ctx, tm))
            # abs floor: mu = 2 has rho'(0) ~ 0, where the relative FD
            # comparison is dominated by truncation error.
            assert rho_log_derivative(ctx, tm) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(mu=hs.floats(0.0, 6.0), log_t=hs.floats(-3.0, 3.0))
    def test_log_derivative_against_mpmath(self, mu, log_t):
        # mu/(1+t) - K_{(mu+1)/2}(1+t) / K_{(mu-1)/2}(1+t) to 40 digits
        t = 10.0**log_t
        ctx = TestFunctionContext(N=1, mu=mu)
        with mpmath.workdps(40):
            s = 1 + mpmath.mpf(t)
            exact = mu / s - mpmath.besselk((mu + 1) / 2, s) / mpmath.besselk((mu - 1) / 2, s)
            assert abs(rho_log_derivative(ctx, t) - exact) <= 1e-14

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_log_derivative_limit(self, mu):
        # rho'/rho = -1 + O(1/t), monotone approach on a dyadic ladder.
        ctx = TestFunctionContext(N=1, mu=mu)
        gaps = [abs(rho_log_derivative(ctx, t) + 1.0) for t in (5.0, 10.0, 20.0, 40.0)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.1

    def test_log_rho_far_field(self):
        # Well past the overflow horizon of e^{t}: log rho must stay finite.
        ctx = TestFunctionContext(N=3, mu=2.0)
        lr = log_rho(ctx, 900.0)
        assert math.isfinite(lr)
        # leading order: (mu+1)/2 log(t+1) - (t+1) + 0.5 log(pi/(2(t+1)))
        approx = 1.5 * math.log(901.0) - 901.0 + 0.5 * math.log(math.pi / 1802.0)
        assert lr == pytest.approx(approx, abs=0.01)


class TestPsi:
    def test_context_validation(self):
        with pytest.raises(Exception):
            TestFunctionContext(N=0, mu=0.5)
        with pytest.raises(Exception):
            TestFunctionContext(N=1, mu=-0.5)


def test_surface_area():
    assert surface_area(1) == pytest.approx(2.0)
    assert surface_area(2) == pytest.approx(2.0 * math.pi)
    assert surface_area(3) == pytest.approx(4.0 * math.pi)


class TestGaussLegendre:
    def test_no_rule_built_and_table_loaded_once(self, monkeypatch):
        # the rule is data: leggauss never runs, and its table is read once
        built = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(
            np.polynomial.legendre, "leggauss", lambda n: built.append(n) or leggauss(n)
        )
        specfun._gauss_legendre.cache_clear()
        try:
            ctx = TestFunctionContext(N=3, mu=0.5)
            for t in (0.0, 1.0, 5.0):
                log_rho(ctx, t)
                rho_log_derivative(ctx, t)
                log_phi(2, np.linspace(0.0, t + 1.0, 50))
                lemma31_ratio(ctx, t, 2.0)
                c_fg(ctx, InitialProfile(R=1.0), 0.3)
            assert built == []
            assert specfun._gauss_legendre.cache_info().misses == 1
            nodes, weights = specfun._gauss_legendre()
            assert not nodes.flags.writeable and not weights.flags.writeable
        finally:
            specfun._gauss_legendre.cache_clear()

    def test_cli_import_builds_no_rule(self):
        code = (
            "import numpy.polynomial.legendre as leg\n"
            "built, leggauss = [], leg.leggauss\n"
            "leg.leggauss = lambda n: built.append(n) or leggauss(n)\n"
            "import blowuplab.cli\n"
            "from blowuplab import specfun\n"
            "print(built, specfun._unit_trapezoid.cache_info().currsize,"
            " specfun._gauss_legendre.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[] 0 0"

    def test_fixed_rule_quadratures_import_no_numpy_polynomial(self):
        code = (
            "import sys, math\n"
            "from blowuplab import functionals, specfun\n"
            "from blowuplab.solver import InitialProfile\n"
            "ctx = specfun.TestFunctionContext(N=2, mu=0.5)\n"
            "functionals.lemma31_ratio(ctx, 1.0, 2.0)\n"
            "functionals.c_fg(ctx, InitialProfile(R=1.0), 0.3)\n"
            "specfun.log_phi(4, [0.0, 1.0])\n"
            "print('numpy.polynomial' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n", [256])
    def test_read_only_and_exact(self, n):
        # the one rule: fixed_rule's 256 nodes, exactly as leggauss builds them
        nodes, weights = specfun._gauss_legendre()
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


@functools.cache
def _rule_own_error(steps):
    """Worst relative error of the steps-step trapezoid rule on [0, _zeta_max],
    summed at 40 digits so that no rounding enters, over |nu| <= 8 and
    t in [0.1, 1e4]."""
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for nu in (0.0, 0.5, 2.0, 4.0, 6.0, 8.0):
            for t in (0.1, 0.3, 1.0, 100.0, 1e4):
                h = mpmath.mpf(specfun._zeta_max(nu, t)) / steps
                vals = [
                    mpmath.exp(-2 * t * mpmath.sinh(k * h / 2) ** 2) * mpmath.cosh(nu * k * h)
                    for k in range(steps + 1)
                ]
                approx = h * (mpmath.fsum(vals) - (vals[0] + vals[-1]) / 2)
                exact = mpmath.besselk(nu, t) * mpmath.exp(t)
                worst = max(worst, abs(approx / exact - 1))
    return worst


class TestArrayOfTimes:
    """rho at an array of times is the scalar rho at each time, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        mu=hs.floats(0.0, 6.0),
        times=hs.lists(hs.floats(0.0, 1e3), min_size=1, max_size=300),
    )
    def test_equals_scalar_calls_bitwise(self, mu, times):
        ctx = TestFunctionContext(N=3, mu=mu)
        for fn in (log_rho, rho_log_derivative):
            batch = fn(ctx, np.array(times))
            alone = np.array([fn(ctx, t) for t in times])
            assert batch.shape == alone.shape
            assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))

    def test_chunks_equal_scalar_calls_bitwise_in_bounded_memory(self):
        # more times than one chunk holds: two full chunks and a partial one
        rows = specfun._CHUNK_ELEMENTS // (specfun._KV_STEPS + 1)
        t = np.linspace(0.1, 400.0, 2 * rows + 7)
        for nu in (0.25, 2.0):
            batch = specfun._kv_scaled(nu, t)
            alone = np.array([specfun._kv_scaled(nu, s) for s in t])
            assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))
        # 20,000 times in one (times x 65) temporary would take 10.4 MB
        specfun._unit_trapezoid()
        tracemalloc.start()
        try:
            specfun._kv_scaled(0.25, np.linspace(0.1, 400.0, 20_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_float_stays_float(self):
        ctx = TestFunctionContext(N=2, mu=0.5)
        assert isinstance(specfun._kv_scaled(0.25, 3.0), float)
        assert isinstance(log_rho(ctx, 3.0), float)
        assert isinstance(rho_log_derivative(ctx, 3.0), float)

    def test_negative_time_in_array(self):
        ctx = TestFunctionContext(N=2, mu=0.5)
        for fn in (log_rho, rho_log_derivative):
            with pytest.raises(DomainError):
                fn(ctx, np.array([1.0, -0.5, 2.0]))


class TestBatchedQuadrature:
    """Each K_nu evaluation is one batch: the integrand on the fixed rule's nodes."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The node count of every K_nu evaluation."""
        seen = []
        unit_trapezoid = specfun._unit_trapezoid

        def record():
            nodes, weights = unit_trapezoid()
            seen.append(nodes.size)
            return nodes, weights

        monkeypatch.setattr(specfun, "_unit_trapezoid", record)
        return seen

    @settings(max_examples=100, deadline=None)
    @given(zmax=hs.floats(1e-8, 1e3))
    def test_edges_are_linspace(self, zmax):
        # the scaled unit grid is bitwise the equal-step grid on [0, zmax], and
        # so is every coarser level of its step doubling
        nodes = zmax * specfun._unit_trapezoid()[0]
        for k in range(specfun._KV_STEPS.bit_length()):
            ref = np.linspace(0.0, zmax, (specfun._KV_STEPS >> k) + 1)
            assert np.array_equal(nodes[:: 1 << k].view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("steps", [16, 20, 32, 48, 64, 256])
    @pytest.mark.parametrize("tol", [1e-12, 1e-18])
    def test_batches_stay_within_budget(self, steps, tol):
        # The rule's own error (truncation at _zeta_max plus discretisation)
        # meets an error budget tol exactly from the least step count on this
        # ladder that meets it: 48 steps for 1e-12, the fixed rule's
        # _KV_STEPS for 1e-18 (48 steps reach 7.6e-17 at nu = 8, t = 0.1).
        least = {1e-12: 48, 1e-18: specfun._KV_STEPS}[tol]
        assert (_rule_own_error(steps) <= tol) == (steps >= least)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0, 100.0])
    def test_monitor_calls_take_one_batch(self, batches, mu, t):
        # a snapshot's rho work: three K_nu, each one batch of the fixed rule
        ctx = TestFunctionContext(N=3, mu=mu)
        log_rho(ctx, t)
        rho_log_derivative(ctx, t)
        assert batches == [specfun._KV_STEPS + 1] * 3
