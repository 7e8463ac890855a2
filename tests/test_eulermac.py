import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (direct_lattice_power_sum, direct_progression_power_sum,
                      loglog_slope, rule_power)
from waringsums import arith, eulermac
from waringsums.eulermac import LatticeSumSpec
from waringsums.series import integer_kth_root


def brute_progression(q, r, X, theta, k, variant):
    total = []
    P = math.floor(X)
    for x in range(-P, P + 1):
        if (x - r) % q != 0:
            continue
        if variant == "positive" and x <= 0:
            continue
        base = X**k - x**k
        if base < 0:
            continue
        total.append(float(base) ** theta)
    return math.fsum(total)


class TestProgressionDirect:
    def test_zero_exponent_counts_lattice_points(self):
        spec = LatticeSumSpec(3, 1, 100, 0.0, 2)
        count = math.floor((100 - 1) / 3) - math.ceil(-(100 + 1) / 3) + 1
        assert eulermac.progression_power_sum(spec) == count

    def test_exact_endpoint_membership(self):
        # (X - r)/q = 3 exactly: the boundary term contributes 1 at theta=0
        spec = LatticeSumSpec(3, 1, 10, 0.0, 2)
        assert eulermac.progression_power_sum(spec) == 7  # h = -3..3

    def test_closed_form_quadratic(self):
        X = 37
        spec = LatticeSumSpec(1, 0, X, 1.0, 2)
        assert eulermac.progression_power_sum(spec) == pytest.approx(
            X * (4 * X**2 - 1) / 3
        )

    def test_positive_variant_count(self):
        spec = LatticeSumSpec(1, 0, 7.5, 0.0, 2)
        assert eulermac.progression_power_sum(spec, "positive") == 7

    def test_positive_excludes_left_endpoint_exactly(self):
        # r = 0: h > 0 strictly, so x = 0 never contributes
        spec = LatticeSumSpec(2, 0, 8, 0.0, 3)
        assert eulermac.progression_power_sum(spec, "positive") == 4  # x=2,4,6,8

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = int(rng.integers(1, 7))
            r = int(rng.integers(-4, 9))
            X = float(rng.integers(20, 90)) + float(rng.choice([0.0, 0.5, 0.25]))
            theta = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.5]))
            k = int(rng.choice([2, 3, 4]))
            variant = str(rng.choice(["two_sided", "positive"]))
            spec = LatticeSumSpec(q, r, X, theta, k)
            got = eulermac.progression_power_sum(spec, variant)
            want = brute_progression(q, r, X, theta, k, variant)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_fraction_argument(self):
        spec = LatticeSumSpec(3, 1, Fraction(21, 2), 0.0, 2)
        assert eulermac.progression_power_sum(spec) == brute_progression(
            3, 1, 10.5, 0.0, 2, "two_sided"
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatticeSumSpec(0, 1, 10, 0.0, 2)
        with pytest.raises(ValueError):
            LatticeSumSpec(1, 1, -3, 0.0, 2)
        with pytest.raises(ValueError):
            LatticeSumSpec(1, 1, 10, -0.5, 2)
        with pytest.raises(ValueError):
            LatticeSumSpec(3, (), 10, 1.0, 2)
        with pytest.raises(ValueError, match="k must be below 2"):
            LatticeSumSpec(1, 0, 1, 0.0, 2**63)  # an int64 block's power k
        for theta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta"):
                LatticeSumSpec(11, 3, 1000, theta, 2)


def _spy_on_arange(monkeypatch):
    """Record each block the leaf forms as (start, stop, step) and its dtype."""
    calls = []
    arange = np.arange
    monkeypatch.setattr(eulermac.np, "arange",
                        lambda *a, **kw: calls.append((a, kw["dtype"])) or arange(*a, **kw))
    return calls


def _dtypes(calls) -> set:
    return {dtype for _, dtype in calls}


class TestProgressionInt64Path:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("variant", eulermac.VARIANTS)
    def test_bit_identical_to_python_int_loop(self, monkeypatch, k, variant):
        calls = _spy_on_arange(monkeypatch)
        # the last r lies far outside [0, q): it is reduced mod q, and no
        # q h + r near 10^19 is ever formed
        for q, r, X in ((1, 0, 9000), (11, 3, 20000), (7, -2, 5000), (5, 9, 777), (3, 1, 2),
                        (10, 3 - 10**19, 1000)):
            for theta in (0.0, 1 / 3, 1.5, 2.0, 2.7):
                spec = LatticeSumSpec(q, r, X, theta, k)
                got = eulermac.progression_power_sum(spec, variant)
                assert got.hex() == direct_progression_power_sum(spec, variant).hex()
        assert _dtypes(calls) == {np.int64}

    def test_chunk_edges(self, monkeypatch):
        calls = _spy_on_arange(monkeypatch)
        chunk = eulermac._CHUNK
        for X in (chunk - 1, chunk, 2 * chunk + 5):
            spec = LatticeSumSpec(1, 0, X, 1.5, 2)
            for variant, points in (("two_sided", 2 * X + 1), ("positive", X)):
                calls.clear()
                assert (eulermac.progression_power_sum(spec, variant).hex()
                        == direct_progression_power_sum(spec, variant).hex())
                assert len(calls) == -(-points // chunk)
                assert _dtypes(calls) == {np.int64}

    @pytest.mark.parametrize("spec", [
        LatticeSumSpec(7, 3, 10**4, 1.5, 5),           # X^5 > 2^63
        LatticeSumSpec(3, 1, Fraction(2001, 2), 0.5, 2),
        LatticeSumSpec(3, 1, 1000.5, 0.5, 2),
        # X^3 < 2^63, but X^3 - x^3 reaches 2 X^3 > 2^63 at x near -X
        LatticeSumSpec(100_003, 5, 2_000_000, 1.5, 3),
        # x is small, but the step q near 10^19 does not fit in int64
        LatticeSumSpec(10**19, 3 - 10**19, 1000, 1.5, 2),
    ])
    def test_guard_failures_take_the_python_int_loop(self, monkeypatch, spec):
        calls = _spy_on_arange(monkeypatch)
        for variant in eulermac.VARIANTS:
            got = eulermac.progression_power_sum(spec, variant)
            assert got.hex() == direct_progression_power_sum(spec, variant).hex()
        assert _dtypes(calls) == {object}


class TestLatticeLeaves:
    # theta = 0 counts the points, and every window below holds leaf
    # bases below zero: skipping them and clamping them to 0 differ there.
    CASES = ((3, (1, 2), 40), (5, (0, 4), 37), (4, (1, 2, 3), 12), (2, (1, 0, 1), 9))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("variant", eulermac.VARIANTS)
    @pytest.mark.parametrize("leaf", ["int64", "python"])
    def test_leaf_bit_identical_to_python_int_loop(self, monkeypatch, k, variant, leaf):
        calls = _spy_on_arange(monkeypatch)
        monkeypatch.setattr(eulermac, "_CHUNK", 5)  # several blocks per leaf
        dtype = np.int64 if leaf == "int64" else object
        for q, rs, X in self.CASES:
            if dtype is object:  # a half-integer X is past the int64 bound
                X = Fraction(2 * X + 1, 2)
            for theta in (0.0, 1 / 3, 1.5):
                spec = LatticeSumSpec(q, rs, X, theta, k)
                got = eulermac.lattice_power_sum(spec, variant)
                assert got.hex() == direct_lattice_power_sum(spec, variant).hex()
        assert _dtypes(calls) == {dtype}

    @pytest.mark.parametrize("variant, k", [("two_sided", 2), ("two_sided", 4),
                                            ("positive", 2), ("positive", 3)])
    def test_prunable_windows_form_only_kept_bases(self, monkeypatch, variant, k):
        # where x^k grows with |x| every window stops at the k-th root of its
        # budget, so each base formed is kept: at theta = 0 the number of
        # bases formed is the sum itself
        calls = _spy_on_arange(monkeypatch)
        for q, rs, X in self.CASES + ((1, (0, 0), 25), (1, (0, 0, 0), 9)):
            calls.clear()
            kept = eulermac.lattice_power_sum(LatticeSumSpec(q, rs, X, 0.0, k), variant)
            assert sum(len(range(*a)) for a, _ in calls) == kept > 0
            assert _dtypes(calls) == {np.int64}
            for theta in (1 / 3, 1.5):
                spec = LatticeSumSpec(q, rs, X, theta, k)
                got = eulermac.lattice_power_sum(spec, variant)
                assert got.hex() == direct_lattice_power_sum(spec, variant).hex()

    def test_bound_covers_every_coordinate(self, monkeypatch):
        # X^3 < 2^63, but at x_1 near -X the budget X^3 - x_1^3 - x_2^3
        # reaches 3 X^3 > 2^63: only exact (object) blocks are exact here
        calls = _spy_on_arange(monkeypatch)
        spec = LatticeSumSpec(400_009, (5, 7), 1_600_000, 1.5, 3)
        for variant in eulermac.VARIANTS:
            got = eulermac.lattice_power_sum(spec, variant)
            assert got.hex() == direct_lattice_power_sum(spec, variant).hex()
        assert _dtypes(calls) == {object}


class TestTermRule:
    @staticmethod
    def seeded_bases() -> np.ndarray:
        rng = np.random.default_rng(41)
        ints = np.concatenate([rng.integers(0, 2**62, 20000), rng.integers(0, 10**6, 5000),
                               [0, 1, 2, 2**53 - 1, 2**53 + 1, 2**63 - 1]])
        return ints.astype(np.float64)

    def test_sqrt_rule_within_one_ulp_of_pow(self):
        fb = self.seeded_bases()
        got = eulermac._powers(fb, 1.5)
        want = np.array([b**1.5 for b in fb.tolist()])
        # nonnegative finite floats: the distance in ulps is the distance of the bits
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1 / 3, 2.5, 2.7])
    def test_other_exponents_are_pow_exactly(self, theta):
        fb = self.seeded_bases()
        assert eulermac._powers(fb, theta).tolist() == [b**theta for b in fb.tolist()]

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.5, 1 / 3, 2.5])
    def test_reference_states_the_same_rule(self, theta):
        fb = self.seeded_bases()
        assert (eulermac._powers(fb, theta).tolist()
                == [rule_power(b, theta) for b in fb.tolist()])

    @pytest.mark.parametrize("X, want", [(4 * 10**6, "0x1.6ade3993cc009p+84"),
                                         (8 * 10**6, "0x1.6ade3993cc00ap+88")])
    def test_benchmark_sums_are_pinned(self, X, want):
        # the two direct sums of the benchmark's tails workload
        assert eulermac.progression_power_sum(LatticeSumSpec(11, 3, X, 1.5, 2)).hex() == want


class TestProgressionAsymptotic:
    def test_zero_exponent_main_term(self):
        spec = LatticeSumSpec(4, 1, 1000, 0.0, 3, N=1)
        main, psi, scale = eulermac.progression_power_sum_asymptotic(spec)
        assert main == pytest.approx(2 * 1000 / 4, rel=1e-12)
        assert psi == 0.0
        assert scale == pytest.approx(1.0)

    def test_quadratic_main_term(self):
        spec = LatticeSumSpec(1, 0, 50, 1.0, 2, N=1)
        main, _, _ = eulermac.progression_power_sum_asymptotic(spec)
        assert main == pytest.approx(4 * 50**3 / 3, rel=1e-12)

    def test_positive_psi_single_term_below_k(self):
        # N <= k admits only nu = 0: psi = X^{k theta} * B_1({-r/q})
        spec = LatticeSumSpec(4, 1, 200, 2.5, 3, N=2)
        _, psi, _ = eulermac.progression_power_sum_asymptotic(spec, "positive")
        expect = 200.0 ** (3 * 2.5) * arith.periodic_bernoulli(1, -1 / 4)
        assert psi == pytest.approx(expect, rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            eulermac.progression_power_sum_asymptotic(
                LatticeSumSpec(3, 1, 100, 2.5, 2, N=4)
            )
        with pytest.raises(ValueError):
            eulermac.progression_power_sum_asymptotic(
                LatticeSumSpec(3, 1, 100, 0.0, 2, N=2)
            )
        # N is checked before the error scale raises (q/X)^(N-1) as a float
        for variant in eulermac.VARIANTS:
            for asymptotic in (eulermac.progression_power_sum_asymptotic,
                               eulermac.lattice_power_sum_asymptotic):
                with pytest.raises(ValueError, match="order N"):
                    asymptotic(LatticeSumSpec(3, 1, 100, 2.5, 3, N=10**400), variant)

    def test_positive_requires_odd_k(self):
        with pytest.raises(ValueError):
            eulermac.progression_power_sum_asymptotic(
                LatticeSumSpec(3, 1, 100, 2.5, 2, N=2), "positive"
            )

    def test_two_sided_error_has_endpoint_order(self):
        # All Bernoulli boundary terms vanish for the two-sided sum, so the
        # true error is carried by the endpoint region at order (k-1)*theta,
        # strictly inside the guaranteed O(X^{k theta} (q/X)^{N-1}) scale.
        # X = 1 mod 3 keeps the endpoint phases identical across sizes.
        xs = [1000, 2503, 6301, 15853]
        errs = []
        for X in xs:
            spec = LatticeSumSpec(3, 1, X, 2.5, 2, N=2)
            direct = eulermac.progression_power_sum(spec)
            main, _, scale = eulermac.progression_power_sum_asymptotic(spec)
            errs.append(abs(direct - main))
            assert abs(direct - main) <= 0.01 * scale
        assert loglog_slope(xs, errs) == pytest.approx((2 - 1) * 2.5, abs=0.2)

    def test_psi_second_correction_term(self):
        # theta = 4.5 admits N = 4 and with it the nu = 1 boundary term,
        # of size X^{k theta} (q/X)^k; including it must cancel the
        # residual left by the nu = 0 term down to (near) the rounding
        # floor of the direct sum.  X kept small enough that the target
        # term is resolvable in doubles.
        X = 2000
        spec = LatticeSumSpec(4, 1, X, 4.5, 3, N=4)
        direct = eulermac.progression_power_sum(spec, "positive")
        main, psi_full, scale = eulermac.progression_power_sum_asymptotic(
            spec, "positive"
        )
        _, psi_nu0, _ = eulermac.progression_power_sum_asymptotic(
            LatticeSumSpec(4, 1, X, 4.5, 3, N=2), "positive"
        )
        err_nu0 = abs(direct - main - psi_nu0)
        err_full = abs(direct - main - psi_full)
        assert err_full <= err_nu0 / 50.0
        assert err_full <= 1e-4 * scale

    def test_psi_term_lowers_error_order(self):
        xs = [1000, 3163, 10000]
        without, with_psi = [], []
        for X in xs:
            spec = LatticeSumSpec(4, 1, X, 2.5, 3, N=2)
            direct = eulermac.progression_power_sum(spec, "positive")
            main, psi, _ = eulermac.progression_power_sum_asymptotic(spec, "positive")
            without.append(abs(direct - main))
            with_psi.append(abs(direct - main - psi))
        k_theta = 3 * 2.5
        assert loglog_slope(xs, without) == pytest.approx(k_theta, abs=0.1)
        assert loglog_slope(xs, with_psi) <= k_theta - 1 + 0.25


class TestLatticeSums:
    def test_dimension_one_reduces_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            q = int(rng.integers(1, 8))
            r = int(rng.integers(-5, 12))
            X = int(rng.integers(15, 250))
            theta = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
            k = int(rng.choice([2, 3, 5]))
            variant = str(rng.choice(["two_sided", "positive"]))
            one = LatticeSumSpec(q, (r,), X, theta, k)
            scalar = LatticeSumSpec(q, r, X, theta, k)
            want = direct_progression_power_sum(scalar, variant).hex()
            assert eulermac.lattice_power_sum(one, variant).hex() == want
            assert eulermac.progression_power_sum(scalar, variant).hex() == want

    def test_disk_lattice_point_count(self):
        X = 20.5
        spec = LatticeSumSpec(1, (0, 0), X, 0.0, 2)
        got = eulermac.lattice_power_sum(spec)
        want = sum(
            1
            for x in range(-20, 21)
            for y in range(-20, 21)
            if x * x + y * y <= X * X
        )
        assert got == want

    def test_positive_pair_against_brute_force(self):
        spec = LatticeSumSpec(3, (1, 2), 40, 1.5, 3)
        got = eulermac.lattice_power_sum(spec, "positive")
        terms = []
        for x1 in range(1, 41):
            if x1 % 3 != 1:
                continue
            for x2 in range(1, 41):
                if x2 % 3 != 2:
                    continue
                base = 40**3 - x1**3 - x2**3
                if base >= 0:
                    terms.append(float(base) ** 1.5)
        assert got == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_odd_k_two_sided_budget_handling(self):
        # negative entries relax the budget; enumeration must not prune them
        spec = LatticeSumSpec(2, (1, 0), 9, 1.0, 3)
        got = eulermac.lattice_power_sum(spec)
        terms = []
        for x1 in range(-9, 10):
            if (x1 - 1) % 2 != 0:
                continue
            for x2 in range(-9, 10):
                if x2 % 2 != 0:
                    continue
                base = 9**3 - x1**3 - x2**3
                if base >= 0 and abs(x1) <= 9 and abs(x2) <= 9:
                    terms.append(float(base))
        assert got == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_asymptotic_two_sided_scaled_error_bounded(self):
        for X in (50, 100, 200):
            spec = LatticeSumSpec(1, (0, 0), X, 2.0, 2, N=2)
            direct = eulermac.lattice_power_sum(spec)
            (term,), scale = eulermac.lattice_power_sum_asymptotic(spec)
            assert abs(direct - term) <= 0.01 * scale

    def test_consistency_of_one_dimensional_expansions(self):
        # the l = 1 multidimensional expansion must reproduce main + psi
        spec = LatticeSumSpec(4, (3,), 500, 2.5, 3, N=2)
        terms, scale_l = eulermac.lattice_power_sum_asymptotic(spec, "positive")
        scalar = LatticeSumSpec(4, 3, 500, 2.5, 3, N=2)
        main, psi, scale_u = eulermac.progression_power_sum_asymptotic(scalar, "positive")
        assert terms[0] == pytest.approx(main, rel=1e-12)
        assert terms[1] == pytest.approx(psi, rel=1e-12)
        assert scale_l == pytest.approx(scale_u, rel=1e-12)

    def test_leading_term_is_density_times_volume(self):
        spec = LatticeSumSpec(5, (1, 2, 3), 300, 1.5, 3, N=1)
        terms, _ = eulermac.lattice_power_sum_asymptotic(spec, "positive")
        X, q, k, theta, l = 300.0, 5, 3, 1.5, 3
        ratio = (
            math.gamma(1 + theta)
            * math.gamma(1 + 1 / k) ** l
            / math.gamma(1 + theta + l / k)
        )
        assert terms[0] == pytest.approx(X ** (k * theta) * (X / q) ** l * ratio, rel=1e-12)

    def test_gamma_ratio_holds_to_1e9_or_is_refused(self):
        # at k = 2 and two dimensions the ratio is Gamma(3/2)^2 / (1 + theta)
        for theta in (0.0, 1.5, 255.5, 1e3, 1e5, 2e5):
            exact = math.pi / 4 / (1 + theta)
            assert eulermac._gamma_ratio(theta, 2, 2) == pytest.approx(exact, rel=1e-9)
        for theta in (3e5, 1e14, 1e16, 1e308):
            spec = LatticeSumSpec(2, (0,), 1, theta, 2)
            for dims in (0, 1, 2):
                with pytest.raises(ValueError, match=r"is too large: the gamma ratio"):
                    eulermac._gamma_ratio(theta, 2, dims)
            with pytest.raises(ValueError, match=r"is too large: the gamma ratio"):
                eulermac.lattice_power_sum_asymptotic(spec)

    def test_order_cap_for_positive_variant(self):
        with pytest.raises(ValueError):
            eulermac.lattice_power_sum_asymptotic(
                LatticeSumSpec(3, (1, 2), 100, 9.5, 3, N=5), "positive"
            )  # N must stay <= k + 1


# Each input em-verify refuses before its direct sum, as library calls: the
# functions named are refused with ValueError before any term is formed.
_MAX_CUBE_ROOT = integer_kth_root(int(sys.float_info.max), 3)
_DIRECT = ("lattice_power_sum",)
_ASYMPTOTICS = ("progression_power_sum_asymptotic", "lattice_power_sum_asymptotic")


@pytest.mark.parametrize("spec, variant, refused", [
    (LatticeSumSpec(1, 0, 40000000, 1.5, 3, N=5), "two_sided", _ASYMPTOTICS),
    (LatticeSumSpec(1, 0, 40000000, 1.5, 2), "positive", _ASYMPTOTICS),
    (LatticeSumSpec(7, 10**400, 100, 1.5, 3), "positive", _ASYMPTOTICS),
    (LatticeSumSpec(_MAX_CUBE_ROOT, 0, _MAX_CUBE_ROOT, 0.0, 3), "two_sided", _DIRECT),
    (LatticeSumSpec(10**200, 0, 1, 3.0, 2, N=3), "two_sided", _ASYMPTOTICS),
    (LatticeSumSpec(11, 1, 100, 1e308, 2), "two_sided", _DIRECT + _ASYMPTOTICS),
    (LatticeSumSpec(11, 1, 10**4, 100.0, 2), "two_sided", _DIRECT + _ASYMPTOTICS),
], ids=["N=5", "positive even k", "r=10**400", "2X^3", "q=10**200 N=3", "theta=1e308",
        "theta=100"])
def test_library_calls_are_refused_before_any_term(monkeypatch, spec, variant, refused):
    def powers(*args):
        raise AssertionError("a term was formed")

    monkeypatch.setattr(eulermac, "_powers", powers)
    for name in refused:
        with pytest.raises(ValueError):
            getattr(eulermac, name)(spec, variant)


class TestLatticeParts:
    def test_large_three_dimensional_sum_is_refused_at_once(self, monkeypatch):
        monkeypatch.setattr(eulermac, "ExactSum", None)  # no block is summed
        start = time.process_time()
        with pytest.raises(ValueError, match=r"for X=10000 at q=1: 8001200060001 lattice "
                                             r"points$"):
            eulermac.lattice_power_sum(LatticeSumSpec(1, (0, 0, 0), 10**4, 1.5, 2))
        assert time.process_time() - start < 1.0

    def test_a_list_is_charged_the_sum_of_its_points(self):
        specs = [LatticeSumSpec(3, (1, 2), 40, 1.5, 3), LatticeSumSpec(5, (0, 4), 37, 1.5, 3),
                 LatticeSumSpec(7, 3, 100, 0.5, 2)]
        for variant in eulermac.VARIANTS:
            lower = {spec: 1 if variant == "positive" else -math.floor(spec.X)
                     for spec in specs}
            points = [math.prod(len([x for x in range(lower[spec], spec.X + 1)
                                     if (x - r) % spec.q == 0]) for r in spec.residues)
                      for spec in specs]
            parts = eulermac._lattice_parts(specs, variant)
            assert [(p.name, p.units) for p in parts] == [
                ("lattice points at theta 3/2", points[0] + points[1]),
                ("lattice points", points[2])]
            # each part names the whole list, and its own points
            assert parts[0].inputs == (f"3 values of X up to 100 at 3 values of q up to 7: "
                                       f"{points[0] + points[1]} lattice points")

    @pytest.mark.parametrize("variant", eulermac.VARIANTS)
    def test_two_and_three_dimensional_sums_still_run(self, variant):
        for spec in (LatticeSumSpec(1, (0, 0), 200, 2.0, 2),
                     LatticeSumSpec(400_009, (5, 7), 1_600_000, 1.5, 3),
                     LatticeSumSpec(1, (0, 0, 0), 60, 1.5, 3)):
            got = eulermac.lattice_power_sum(spec, variant)
            assert got.hex() == direct_lattice_power_sum(spec, variant).hex()


class TestSymmetricBernoulli:
    def test_order_zero_is_one(self):
        assert eulermac.symmetric_bernoulli(7, (1, 2, 3), 0) == 1.0

    def test_convention_minus_one(self):
        assert eulermac.symmetric_bernoulli(7, (1, 2), -1) == 0.0

    def test_half_residue_vanishes(self):
        assert eulermac.symmetric_bernoulli(2, (1,), 1) == pytest.approx(0.0)

    def test_pair_of_zero_residues(self):
        assert eulermac.symmetric_bernoulli(1, (0, 0), 2) == pytest.approx(0.25)

    def test_against_product_expansion(self):
        import itertools

        q, rs = 7, (1, 2, 4, 6)
        ys = [arith.periodic_bernoulli(1, -r / q) for r in rs]
        for m in range(len(rs) + 1):
            want = math.fsum(
                math.prod(c) for c in itertools.combinations(ys, m)
            )
            got = eulermac.symmetric_bernoulli(q, rs, m)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            eulermac.symmetric_bernoulli(3, (1, 2), 3)

