import math
from fractions import Fraction

import pytest

from waringsums import arith


class TestBernoulliNumbers:
    def test_first_values(self):
        table = arith.bernoulli_numbers(12)
        assert table[0] == 1
        assert table[1] == Fraction(-1, 2)
        assert table[2] == Fraction(1, 6)
        assert table[3] == 0
        assert table[4] == Fraction(-1, 30)
        assert table[12] == Fraction(-691, 2730)

    def test_recurrence_residual_exactly_zero(self):
        # sum_{j=1}^{kappa} C(kappa, j) B_{kappa-j} = 0 for kappa >= 2,
        # equivalently the defining relation holds with exact rationals.
        table = arith.bernoulli_numbers(60)
        for kappa in range(2, 61):
            residual = sum(
                math.comb(kappa, j) * table[kappa - j] for j in range(1, kappa + 1)
            )
            assert residual == 0

    def test_odd_entries_vanish(self):
        table = arith.bernoulli_numbers(41)
        for kappa in range(3, 42, 2):
            assert table[kappa] == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            arith.bernoulli_numbers(-1)


class TestBernoulliPolynomial:
    def test_degree_zero_is_one(self):
        for x in (-3.7, 0.0, 0.25, 12.0):
            assert arith.bernoulli_polynomial(0, x) == 1.0

    def test_linear(self):
        assert arith.bernoulli_polynomial(1, 0.75) == pytest.approx(0.25, abs=1e-15)

    def test_value_at_zero_is_bernoulli_number(self):
        table = arith.bernoulli_numbers(10)
        for kappa in range(11):
            assert arith.bernoulli_polynomial(kappa, 0.0) == pytest.approx(
                float(table[kappa]), rel=1e-13, abs=1e-15
            )

    def test_quadratic_midpoint(self):
        # B_2(x) = x^2 - x + 1/6
        assert arith.bernoulli_polynomial(2, 0.5) == pytest.approx(
            0.25 - 0.5 + 1 / 6, abs=1e-15
        )


class TestPeriodicBernoulli:
    def test_negative_argument(self):
        assert arith.periodic_bernoulli(1, -0.25) == pytest.approx(0.25, abs=1e-15)

    def test_integer_argument_gives_constant(self):
        assert arith.periodic_bernoulli(1, 3.0) == pytest.approx(-0.5, abs=1e-15)

    def test_period_one(self):
        assert arith.periodic_bernoulli(2, 1.5) == pytest.approx(-1 / 12, abs=1e-15)
        for kappa in (1, 2, 3, 5):
            for x in (-2.3, -0.7, 0.1, 0.9, 4.4):
                assert arith.periodic_bernoulli(kappa, x) == pytest.approx(
                    arith.periodic_bernoulli(kappa, x + 1.0), abs=1e-12
                )


class TestLogGamma:
    def test_gamma_of_one(self):
        assert arith.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_factorial_point(self):
        assert arith.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        assert arith.log_gamma(1.5) == pytest.approx(
            math.log(math.sqrt(math.pi) / 2.0), rel=1e-14
        )

    def test_functional_equation(self):
        for x in (0.5, 1.0, 2.5, 10.0):
            lhs = arith.log_gamma(x + 1.0) - arith.log_gamma(x) - math.log(x)
            assert abs(lhs) <= 1e-12

    def test_matches_stdlib(self):
        for i in range(1, 400):
            x = 0.03 * i
            assert arith.log_gamma(x) == pytest.approx(
                math.lgamma(x), rel=1e-13, abs=1e-13
            )

    def test_domain(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                arith.log_gamma(bad)

