import math

import numpy as np
import pytest

from conftest import gauss_legendre
from waringsums import expansion, series
from waringsums.expansion import ExpansionCoefficients
from waringsums.series import TruncationSpec


class TestGammaFactor:
    def test_closed_form_k2(self):
        # Gamma(3/2)^4 / Gamma(2) = pi^2/16
        assert expansion.gamma_factor(4, 0, 2) == pytest.approx(
            math.pi**2 / 16, rel=1e-12
        )

    def test_s_equals_k(self):
        for k in (2, 3, 5):
            assert expansion.gamma_factor(k, 0, k) == pytest.approx(
                math.gamma(1 + 1 / k) ** k, rel=1e-12
            )

    def test_quadrature_oracle(self):
        # Gamma(1+1/k)^u / Gamma(u/k) = (u/k) * prod_{i=1}^{u-1}
        # integral_0^1 (1 - t^k)^(i/k) dt; integrals by Gauss-Legendre
        # with the singular end substituted smooth.
        u, k = 8, 3

        def one_integral(i):
            f = lambda t: (1.0 - t**k) ** (i / k)
            left = gauss_legendre(f, 0.0, 0.5)

            def h(v):
                w = v**k
                t = 1.0 - w
                return (1.0 - t**k) ** (i / k) * k * v ** (k - 1)

            right = gauss_legendre(h, 0.0, 0.5 ** (1.0 / k))
            return left + right

        prod = u / k
        for i in range(1, u):
            prod *= one_integral(i)
        assert expansion.gamma_factor(9, 1, 3) == pytest.approx(prod, rel=1e-11)

    def test_reciprocal_identity(self):
        for s, j, k in ((9, 0, 2), (13, 1, 3), (20, 4, 5)):
            u = s - j
            lhs = math.gamma(u / k) * expansion.gamma_factor(s, j, k)
            assert lhs == pytest.approx(math.gamma(1 + 1 / k) ** u, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            expansion.gamma_factor(3, 3, 2)


class TestEvenCoefficients:
    def test_leading_term_is_classical_main_factor(self):
        coeffs = expansion.coefficients_even(9, 0, 500, 2, 40)
        sval = series.truncated_series([TruncationSpec(2, 9, 500, Q=40)])[0]
        expect = expansion.gamma_factor(9, 0, 2) * sval.value
        assert coeffs.coefficients[0] == pytest.approx(expect, rel=1e-12)

    def test_second_order_closed_form(self):
        # c_1 = -(5/2) * (pi^2/16) * classical(4; n, Q) at k=2, s=5
        n, Q = 33, 25
        coeffs = expansion.coefficients_even(5, 1, n, 2, Q)
        sval = series.truncated_series([TruncationSpec(2, 4, n, Q=Q)])[0]
        expect = -(5 / 2) * (math.pi**2 / 16) * sval.value
        assert coeffs.coefficients[1] == pytest.approx(expect, rel=1e-11)

    def test_alternating_sign(self):
        coeffs = expansion.coefficients_even(9, 1, 500, 2, 40)
        assert coeffs.series_values[1] > 0
        assert coeffs.coefficients[1] < 0

    def test_matches_modified_series_route(self):
        # for even k the modified series factors, so the odd-k shaped
        # formula with the modified series value gives identical numbers
        s, n, k, Q = 9, 64, 2, 30
        coeffs = expansion.coefficients_even(s, 2, n, k, Q)
        for j in range(3):
            mod = series.modified_series_truncated(
                TruncationSpec(k, s, n, j=j, Q=Q)
            ).value
            alt = math.comb(s, j) * expansion.gamma_factor(s, j, k) * mod
            assert coeffs.coefficients[j] == pytest.approx(alt, rel=1e-11, abs=1e-13)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            expansion.coefficients_even(9, 1, 10, 3, 20)

    def test_rejects_integer_ratio_overrun(self):
        with pytest.raises(ValueError):
            expansion.coefficients_even(8, 4, 10, 2, 20)  # s/k - 1 = 3 < J


class TestOddCoefficients:
    def test_leading_term_matches_even_shape(self):
        n, Q = 100, 30
        coeffs = expansion.coefficients_odd(13, 0, n, 3, Q)
        sval = series.truncated_series([TruncationSpec(3, 13, n, Q=Q)])[0]
        expect = expansion.gamma_factor(13, 0, 3) * sval.value
        assert coeffs.coefficients[0] == pytest.approx(expect, rel=1e-12)

    def test_factorial_multiple_collapses_toward_half_classical(self):
        # at n divisible by every small modulus, the order-1 coefficient
        # approaches -(1/2) C(s,1) gamma * classical(s-1)
        n = math.factorial(5)
        coeffs = expansion.coefficients_odd(13, 1, n, 3, 200)
        cla = series.truncated_series(
            [TruncationSpec(3, 12, n, Q=200)]
        )[0].value
        approx = -0.5 * 13 * expansion.gamma_factor(13, 1, 3) * cla
        assert coeffs.coefficients[1] == pytest.approx(approx, rel=0.25)

    def test_all_finite(self):
        coeffs = expansion.coefficients_odd(13, 3, 77, 3, 25)
        assert all(math.isfinite(c) for c in coeffs.coefficients)

    def test_rejects_even_k_and_large_J(self):
        with pytest.raises(ValueError):
            expansion.coefficients_odd(13, 1, 10, 2, 20)
        with pytest.raises(ValueError):
            expansion.coefficients_odd(13, 4, 10, 3, 20)  # J > k

    def test_rejects_integer_ratio_overrun(self):
        with pytest.raises(ValueError):
            expansion.coefficients_odd(9, 3, 10, 3, 20)  # s/k - 1 = 2 < J


class TestEvaluateExpansion:
    @staticmethod
    def _manual(k, s, J, coeffs_values, n):
        return sum(
            c * float(n) ** ((s - j) / k - 1.0) for j, c in enumerate(coeffs_values)
        )

    def test_single_term(self):
        coeffs = ExpansionCoefficients(
            "even", (3.0,), (1,), (1.0,), (1.0,)
        )
        got = expansion.expansion_partial_sums([100], 9, 2, coeffs.coefficients)[-1, 0]
        assert got == pytest.approx(3.0 * 100 ** (9 / 2 - 1))

    def test_zero_coefficients(self):
        coeffs = ExpansionCoefficients(
            "even", (0.0, 0.0), (1, 9), (1.0, 1.0), (0.0, 0.0)
        )
        assert expansion.expansion_partial_sums([50], 9, 2, coeffs.coefficients)[-1, 0] == 0.0

    def test_linearity_in_each_coefficient(self):
        base = ExpansionCoefficients(
            "odd", (2.0, -0.7), (1, 13), (1.0, 1.0), (1.0, 1.0)
        )
        doubled = ExpansionCoefficients(
            "odd", (2.0, -1.4), (1, 13), (1.0, 1.0), (1.0, 1.0)
        )
        n = 777
        delta = (expansion.expansion_partial_sums([n], 13, 3, doubled.coefficients)[-1, 0]
                 - expansion.expansion_partial_sums([n], 13, 3, base.coefficients)[-1, 0])
        assert delta == pytest.approx(-0.7 * n ** ((13 - 1) / 3 - 1.0), rel=1e-12)

    def test_matches_manual_sum(self):
        coeffs = expansion.coefficients_even(9, 1, 4096, 2, 50)
        got = expansion.expansion_partial_sums([4096], 9, 2, coeffs.coefficients)[-1, 0]
        want = self._manual(2, 9, 1, coeffs.coefficients, 4096)
        assert got == pytest.approx(want, rel=1e-12)

    def test_partial_sums_with_per_n_coefficients(self):
        ns = [10, 777, 4096]
        c = np.array([[2.0, 3.0, -1.0], [-0.7, 0.5, 4.0], [0.1, -0.2, 0.3]])
        rows = expansion.expansion_partial_sums(ns, 13, 3, c)
        assert rows.shape == (3, 3)
        for i, n in enumerate(ns):
            shared = expansion.expansion_partial_sums([n], 13, 3, c[:, i])
            assert rows[:, i].tolist() == shared[:, 0].tolist()
            for j in range(3):
                assert rows[j, i] == pytest.approx(
                    self._manual(3, 13, j, c[: j + 1, i], n), rel=1e-12)

    def test_rejects_nonpositive_n(self):
        for n in (0, -4):
            with pytest.raises(ValueError, match="n must be >= 1"):
                expansion.coefficients_even(9, 0, n, 2, 5)

