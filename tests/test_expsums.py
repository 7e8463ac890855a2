import math

import numpy as np
import pytest

from conftest import direct_S, direct_T, direct_batch_S, orbit_batch_S
from waringsums import expsums


class TestCompleteSum:
    def test_q_one(self):
        assert expsums.complete_sum(1, 1, 3) == pytest.approx(1.0)

    def test_four_term_hand_value(self):
        # r^2 mod 4 over r=1..4 is 1,0,1,0: S = i + 1 + i + 1
        val = expsums.complete_sum(4, 1, 2)
        assert val == pytest.approx(2 + 2j, abs=1e-14)

    def test_two_term_cancellation(self):
        assert abs(expsums.complete_sum(2, 1, 3)) <= 1e-15

    @pytest.mark.parametrize("q,a,k", [(5, 2, 2), (9, 4, 3), (12, 7, 4), (30, 11, 5)])
    def test_against_direct(self, q, a, k):
        assert expsums.complete_sum(q, a, k) == pytest.approx(
            direct_S(q, a, k), abs=1e-12 * q
        )

    def test_negative_numerator_reduced_exactly(self):
        assert expsums.complete_sum(7, -3, 3) == pytest.approx(
            expsums.complete_sum(7, 4, 3), abs=1e-14
        )

    def test_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            q = int(rng.integers(2, 400))
            a = int(rng.integers(1, q))
            k = int(rng.integers(2, 6))
            lhs = expsums.complete_sum(q, q - a, k)
            rhs = expsums.complete_sum(q, a, k).conjugate()
            assert abs(lhs - rhs) <= 1e-9 * q

    def test_magnitude_bound(self):
        for q in (3, 10, 47, 101):
            for a in (1, 2):
                assert abs(expsums.complete_sum(q, a, 3)) <= q + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            expsums.complete_sum(0, 1, 2)
        with pytest.raises(ValueError):
            expsums.complete_sum(5, 1, 1)


class TestWeightedSum:
    def test_q_one(self):
        assert expsums.weighted_sum(1, 1, 4) == pytest.approx(-0.5)

    def test_two_term_hand_value(self):
        assert expsums.weighted_sum(2, 1, 3) == pytest.approx(-0.5, abs=1e-15)

    def test_even_k_collapse_sample(self):
        for q in range(1, 80):
            for k in (2, 4):
                for a in range(1, q + 1):
                    if math.gcd(a, q) != 1:
                        continue
                    assert abs(expsums.weighted_sum(q, a, k) + 0.5) <= 1e-9

    @pytest.mark.parametrize("q,a,k", [(7, 3, 3), (16, 5, 2), (21, 8, 5)])
    def test_against_direct(self, q, a, k):
        assert expsums.weighted_sum(q, a, k) == pytest.approx(
            direct_T(q, a, k), abs=1e-12 * q
        )

    def test_magnitude_envelope(self):
        # Empirical rendering of the square-root growth bound: the fitted
        # constant 1.0 covers max |T(q, a)| / q^0.6 for every q up to 1e4.
        worst = 0.0
        for q in range(1, 10_001):
            a = expsums.coprime_residues(q)
            tv = expsums.batch_weighted_values(q, 3)[a]
            worst = max(worst, float(np.max(np.abs(tv))) / q**0.6)
        assert worst <= 1.0


class TestAugmentedWeightedSum:
    # T + 1/2 is the weighted sum extended over r = 0..q
    def test_q_one_vanishes(self):
        assert abs(expsums.weighted_sum(1, 1, 3) + 0.5) <= 1e-15

    def test_q_two(self):
        assert abs(expsums.weighted_sum(2, 1, 3) + 0.5) <= 1e-14

    def test_purely_imaginary(self):
        val = expsums.weighted_sum(9, 1, 3) + 0.5
        assert abs(val.real) <= 1e-9 * 9
        assert abs(val.imag) > 1e-3  # the sum itself is not degenerate


class TestOddSymmetry:
    def test_imaginary_part_small_for_odd_k(self):
        for k in (3, 5):
            for q in range(1, 60):
                for a in range(1, q + 1):
                    if math.gcd(a, q) == 1:
                        val = expsums.complete_sum(q, a, k)
                        assert abs(val.imag) <= 1e-9 * q

    def test_negation_invariance_odd_k(self):
        for q, a in ((9, 2), (11, 5), (25, 7)):
            lhs = expsums.complete_sum(q, -a, 3)
            rhs = expsums.complete_sum(q, a, 3)
            assert abs(lhs - rhs) <= 1e-9 * q


class TestBatch:
    def test_q_one(self):
        vals = expsums.batch_values(1, 2)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(1.0)

    def test_entry_matches_hand_value(self):
        assert expsums.batch_values(4, 2)[1] == pytest.approx(2 + 2j, abs=1e-12)

    def test_small_q_all_entries(self):
        for q in (2, 3, 7, 12):
            batch = expsums.batch_values(q, 3)
            for a in range(q):
                assert batch[a] == pytest.approx(
                    expsums.complete_sum(q, a, 3), abs=1e-9 * q
                )

    def test_random_q_against_independent_oracle(self):
        rng = np.random.default_rng(41)
        for q in sorted(int(x) for x in rng.integers(2, 2000, size=12)):
            err = np.max(np.abs(expsums.batch_values(q, 3) - direct_batch_S(q, 3)))
            assert err <= 1e-9 * q

    def test_weighted_batch_matches_scalar(self):
        for q in (5, 9, 16):
            batch = expsums.batch_weighted_values(q, 3)
            for a in range(q):
                assert batch[a] == pytest.approx(
                    expsums.weighted_sum(q, a, 3), abs=1e-10 * q
                )

    def test_returned_arrays_belong_to_the_caller(self):
        for fn in (expsums.batch_values, expsums.batch_weighted_values):
            first = fn(11, 3)
            expected = first.copy()
            first[:] = 0
            assert np.array_equal(fn(11, 3), expected)


    @pytest.mark.parametrize("k,Q", [(3, 300), (2, 120), (4, 120), (5, 120), (6, 120), (7, 120)])
    def test_orbit_reference_against_brute_force(self, k, Q):
        # the two identities behind AC-11's reference, checked on every q <= Q
        for q in range(1, Q + 1):
            err = np.max(np.abs(orbit_batch_S(q, k) - direct_batch_S(q, k)))
            assert err <= 1e-12 * q


def coset_leaders(p: int, k: int) -> list:
    """The least element of each coset of the nonzero k-th powers mod p, in
    increasing order, by listing the cosets."""
    powers = {pow(r, k, p) for r in range(1, p)}
    leaders, seen = [], set()
    for c in range(1, p):
        if c not in seen:
            leaders.append(c)
            seen |= {c * h % p for h in powers}
    return leaders


class TestCosetSums:
    @pytest.mark.parametrize("p,k", [
        (7, 3), (13, 4), (13, 6), (31, 5), (3, 3),
        # d = 2, where the values are Gauss sums: p = 1 mod 4 ...
        (5, 2), (101, 2), (5, 6), (17, 6), (13, 14), (29, 10),
        # ... and p = 3 mod 4 (k = 4 has d = 2 only there)
        (3, 2), (103, 2), (7, 4), (19, 4), (1019, 4), (11, 6), (23, 6),
    ])
    def test_each_value_is_S_on_its_coset(self, p, k):
        row = expsums.batch_values(p, k)
        values = expsums.coset_sums(p, k)
        d = math.gcd(k, p - 1)
        assert values.size == d
        # S(p, a) is constant on each of the d cosets, and coset_sums gives
        # one value per coset: every nonzero a matches exactly one of them
        matches = np.abs(row[1:, None] - values[None, :]) <= 1e-9 * p
        if d > 1:
            assert np.all(matches.sum(axis=1) >= 1)
            assert all(np.count_nonzero(matches[:, i]) >= (p - 1) // d for i in range(d))
            # in order of the cosets' least elements, the coset of 1 first
            leaders = coset_leaders(p, k)
            assert np.abs(values - row[leaders]).max() <= 1e-9 * p
        else:
            assert values[0] == 0.0 and np.all(matches)

    @pytest.mark.parametrize("p,k", [(5, 2), (3, 2), (101, 2), (103, 2), (19, 4), (17, 6),
                                     (4909, 2), (5099, 14)])
    def test_quadratic_cosets_need_no_residues_or_phases(self, monkeypatch, p, k):
        assert math.gcd(k, p - 1) == 2
        row = expsums.batch_values(p, k)

        def refused(*args):
            raise AssertionError("computed at d = 2")

        monkeypatch.setattr(expsums, "power_residues", refused)
        monkeypatch.setattr(expsums, "phases", refused)
        values = expsums.coset_sums(p, k)
        g = math.sqrt(p) * (1 if p % 4 == 1 else 1j)
        assert values.tolist() == [g, -g]
        assert abs(values[0] - row[1]) <= 1e-9 * p


class TestPowerResidues:
    def test_rejects_int64_overflow_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        for name in ("arange", "ones", "empty", "zeros"):
            monkeypatch.setattr(expsums.np, name, no_allocation)
        # (q - 1)^2 >= 2^63: res * r could wrap, so q is refused up front
        for fn in (expsums.power_residues, expsums.batch_values):
            for q in (3_037_000_501, np.int64(3_037_000_501), 10**30):
                with pytest.raises(ValueError, match="too large"):
                    fn(q, 3)
        # the largest q whose products fit int64 passes the guard
        with pytest.raises(AssertionError, match="allocated"):
            expsums.power_residues(3_037_000_500, 3)

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 64, 255, 256, 10**6 + 3, 10**11,
                                   2**62 - 1, 10**18])
    def test_square_and_multiply_equals_pow(self, k):
        rng = np.random.default_rng(k % 2**32)
        for q in [1, 2, 7, 64, 97, 3**7, *rng.integers(2, 3000, size=4).tolist()]:
            want = [pow(r, k, q) for r in range(1, q + 1)]
            got = expsums.power_residues(q, k)
            assert got.dtype == np.int64 and got.tolist() == want


class TestCoprimeResidues:
    @staticmethod
    def by_gcd(q):
        return [a for a in range(1, q) if math.gcd(a, q) == 1] if q > 1 else [0]

    @pytest.mark.parametrize("qs", [range(1, 700), [1024, 1031, 2 * 3 * 5 * 7 * 11 * 13,
                                                    3**7, 997 * 2, 997**2, 65536 + 1,
                                                    3 * 1009, 2**16, 7**5]])
    def test_sieve_equals_gcd_definition(self, qs):
        for q in qs:
            got = expsums.coprime_residues(q)
            assert got.dtype == np.int64
            assert got.tolist() == self.by_gcd(q), q


class TestExactSum:
    """Every value is checked bit for bit against math.fsum of the same terms."""

    @staticmethod
    def total(*arrays) -> float:
        acc = expsums.ExactSum()
        for values in arrays:
            acc.add(values)
        return acc.value()

    @staticmethod
    def seeded_terms(seed: int) -> list:
        rng = np.random.default_rng(seed)
        signed = rng.standard_normal(5000) * 1e6
        # from subnormals (below 2.2e-308) up to 1e300, both signs
        wide = rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-320, 300, 5000)
        x = rng.standard_normal(3000) * 10.0 ** rng.integers(-20, 20, 3000)
        cancelling = np.concatenate([x, -x[::-1]])
        # one exponent, every mantissa bit set: the largest sums per bin
        full = np.full(20000, np.nextafter(2.0, 0.0)) * rng.choice([1.0, 2.0**-600], 20000)
        return [signed, wide, cancelling, full, np.concatenate([signed, wide, full])]

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_bit_equal_to_fsum(self, seed):
        for terms in self.seeded_terms(seed):
            assert self.total(terms).hex() == math.fsum(terms.tolist()).hex()
        assert self.total(self.seeded_terms(seed)[2]).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("seed", [5, 17])
    def test_pieces_of_any_size_give_the_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        for terms in self.seeded_terms(seed):
            cuts = np.sort(rng.integers(0, terms.size, int(rng.integers(1, 40))))
            pieces = np.split(terms, cuts)
            assert self.total(*pieces).hex() == self.total(terms).hex()
            assert self.total(*pieces).hex() == math.fsum(terms.tolist()).hex()

    def test_bins_are_set_aside_every_batch(self, monkeypatch):
        monkeypatch.setattr(expsums, "_HOLD", 1)  # every add is binned at once
        monkeypatch.setattr(expsums, "_BATCH", 3)
        for terms in self.seeded_terms(7):
            terms = terms[::50]
            acc = expsums.ExactSum()
            for piece in np.array_split(terms, 9):
                acc.add(piece)
            assert len(acc._full) == -(-terms.size // 3) - 1
            assert acc.value().hex() == math.fsum(terms.tolist()).hex()

    def test_held_values_are_copies(self):
        buffer = np.array([1.0, 2.0**-60, 3.0])
        acc = expsums.ExactSum().add(buffer)
        buffer[:] = 7.0
        assert acc.add(buffer).value() == math.fsum([1.0, 2.0**-60, 3.0, 7.0, 7.0, 7.0])

    def test_empty_input_sums_to_zero(self):
        assert expsums.ExactSum().value().hex() == math.fsum([]).hex() == "0x0.0p+0"
        assert self.total(np.array([])).hex() == "0x0.0p+0"
        assert self.total([-0.0, -0.0]).hex() == math.fsum([-0.0, -0.0]).hex()

    @pytest.mark.parametrize("hold", [1, 4096])  # binned at once, or held
    def test_overflow_raises_like_fsum(self, monkeypatch, hold):
        monkeypatch.setattr(expsums, "_HOLD", hold)
        with pytest.raises(OverflowError):
            math.fsum([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            self.total([1e308, 1e308, -1e308])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(OverflowError):
                self.total([1.0, bad])
