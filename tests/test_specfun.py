"""Special-function layer against brute-force quadrature oracles.

Oracles use scipy.integrate.quad directly on the defining integrals, with
no shared code paths with the package implementation.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from blowuplab import specfun
from blowuplab.errors import AccuracyError, DomainError
from blowuplab.functionals import lemma31_ratio
from blowuplab.specfun import (
    BesselEvalConfig,
    TestFunctionContext,
    bessel_k,
    log_bessel_k,
    log_phi,
    log_psi,
    log_rho,
    phi,
    psi,
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

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)

    def test_node_budget_exhaustion(self):
        cfg = BesselEvalConfig(tol=1e-12, max_nodes=32)
        with pytest.raises(AccuracyError):
            bessel_k(2.0, 0.1, cfg)


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
    def test_product_structure(self):
        ctx = TestFunctionContext(N=2, mu=1.0)
        for r, t in ((0.0, 0.0), (2.0, 1.0), (5.0, 4.0)):
            assert psi(ctx, r, t) == pytest.approx(
                rho(ctx, t) * phi(2, r), rel=1e-12
            )

    def test_log_psi_inside_cone(self):
        # On the support r <= t + R the combination stays representable even
        # when rho and phi separately under/overflow.
        ctx = TestFunctionContext(N=1, mu=0.5, R=2.0)
        t = 750.0
        vals = log_psi(ctx, np.array([0.0, 300.0, t + 2.0]), t)
        assert np.all(np.isfinite(vals))
        # psi <= psi(t+R boundary) * O(poly): log values bounded above by ~R
        assert np.max(vals) < 10.0

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
    def test_each_rule_built_once(self, monkeypatch):
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
                lemma31_ratio(ctx, t, 2.0)
            assert sorted(built) == [16, 1024]
        finally:
            specfun._gauss_legendre.cache_clear()

    @pytest.mark.parametrize("n", [16, 256, 512, 1024])
    def test_read_only_and_exact(self, n):
        nodes, weights = specfun._gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0
