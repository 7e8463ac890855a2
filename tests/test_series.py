import math
import re

import numpy as np
import pytest

from conftest import (direct_S, direct_modified_series, direct_power_moment, full_row_moment,
                      full_row_power_moment, loglog_slope, totient_sum)
from waringsums import budget, expsums, oracle, series
from waringsums.series import TruncationSpec


def brute_vanishing(k: int, Q: int) -> list:
    """The q <= Q with S(q, a) = 0 at every unit a, by the direct sums."""
    return [q for q in range(1, Q + 1)
            if max(abs(direct_S(q, a, k)) for a in range(1, q + 1) if math.gcd(a, q) == 1)
            < 1e-9 * q]


# By brute_vanishing(3, 45): every q <= 45 that one of 2, 3, 5, 11, 16, 17,
# 23, 29 and 41 exactly divides.
K3_VANISHING = [2, 3, 5, 6, 10, 11, 12, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 26, 29,
                30, 33, 34, 35, 38, 39, 40, 41, 42, 44, 45]


def spy(monkeypatch, name: str) -> list:
    """The (args, kwargs) of each later call of series.<name>, in order."""
    calls, fn = [], getattr(series, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(series, name, recorded)
    return calls


class TestTruncationSpec:
    def test_default_truncation_is_integer_root(self):
        assert TruncationSpec(2, 5, 25).Q == 5
        assert TruncationSpec(3, 8, 26).Q == 2
        assert TruncationSpec(3, 8, 27).Q == 3
        assert TruncationSpec(5, 8, 10**10).Q == 100

    def test_integer_root_is_exact_beyond_float_range(self):
        rng = np.random.default_rng(53)
        for k in (2, 3, 5):
            for digits in rng.integers(1, 401, size=40):
                n = int(rng.integers(1, 10**9)) * 10 ** int(digits) + int(rng.integers(0, 10))
                r = series.integer_kth_root(n, k)
                assert r**k <= n < (r + 1) ** k
        assert series.integer_kth_root(3 * 10**60 + 7, 2) == math.isqrt(3 * 10**60 + 7)
        Q = TruncationSpec(3, 9, 10**400).Q
        assert Q**3 <= 10**400 < (Q + 1) ** 3

    def test_integer_root_of_a_huge_order_is_one_without_a_power(self):
        # k >= bit_length(n) means n < 2^k: the root is 1 at once, where
        # r**(k-1) at k = 2^63 would need an integer of 2^63 bits
        for n in (1, 2, 3, 7, 8, 2**64 - 1, 10**400):
            for k in (n.bit_length(), n.bit_length() + 1, 2**63 - 1, 2**63, 10**400):
                if k > 2:
                    assert series.integer_kth_root(n, k) == 1
        for n in (4, 8, 9, 2**64 - 1, 10**400):
            k = n.bit_length() - 1  # n >= 2^k: the root is at least 2
            r = series.integer_kth_root(n, k)
            assert r >= 2 and r**k <= n < (r + 1) ** k

    def test_negative_n_needs_explicit_Q(self):
        with pytest.raises(ValueError):
            TruncationSpec(3, 9, -5)
        spec = TruncationSpec(3, 9, -5, j=1, Q=12)
        assert spec.Q == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationSpec(1, 5, 10)
        with pytest.raises(ValueError):
            TruncationSpec(2, 5, 10, j=6)
        with pytest.raises(ValueError):
            TruncationSpec(2, 5, 10, Q=0)


class TestTruncatedSeries:
    def test_first_modulus_only_gives_one(self):
        for k, u, n in ((2, 5, 25), (3, 8, 7), (4, 9, 123)):
            val = series.truncated_series([TruncationSpec(k, u, n, Q=1)])[0]
            assert val.value == pytest.approx(1.0, abs=1e-15)
            assert val.term_count == 1

    def test_against_double_loop_oracle_classical(self):
        spec = TruncationSpec(2, 5, 25, Q=50)
        val = series.truncated_series([spec])[0]
        oracle_val = direct_modified_series(2, 5, 0, 25, 50)
        assert isinstance(val.value, float)
        assert val.value == pytest.approx(oracle_val, abs=1e-10)
        assert abs(oracle_val.imag) <= 1e-9 * val.term_count

    def test_against_double_loop_oracle_modified(self):
        spec = TruncationSpec(3, 9, 6, j=1, Q=30)
        val = series.modified_series_truncated(spec)
        oracle_val = direct_modified_series(3, 9, 1, 6, 30)
        assert val.value == pytest.approx(oracle_val, abs=1e-9)

    def test_zero_n_sums_all_phases_one(self):
        spec = TruncationSpec(3, 8, 0, Q=20)
        val = series.truncated_series([spec])[0]
        direct = direct_power_moment(1, 21, 8, 0.0, 3)
        # for n = 0 and even exponent of |.|: here S is real (k odd), so
        # the classical series collapses to the absolute moment sum
        assert val.value == pytest.approx(direct, rel=1e-9)

    def test_term_count_matches_reduced_fractions(self):
        spec = TruncationSpec(3, 9, 6, j=1, Q=30)
        assert series.modified_series_truncated(spec).term_count == totient_sum(30)

    def test_imaginary_parts_cancel_at_every_modulus(self):
        # the a and q-a terms are conjugates, so the walks sum real parts only;
        # each order walks alone, so rows that vanish (rounding noise) are skipped
        for k in range(2, 6):
            for order in ((9, 0), (9, 1), (13, 2), (4, 4)):
                for q, _, a, rows in series._walk(k, [order], 300):
                    if rows is None:
                        continue
                    for n in (0, 1, -1, 77777, -77777, 10**12 + 3):
                        terms = rows[order] * expsums.phases(q, (-n % q) * a % q)
                        imag = abs(math.fsum(terms.imag.tolist()))
                        assert imag <= 1e-12 * np.abs(terms).sum(), (k, order, q, n)

    def test_even_k_collapse_factorizes_exactly(self):
        for k in (2, 4):
            for Q in (5, 20, 60):
                for j in (1, 2):
                    s, n = 9, 37
                    modified = series.modified_series_truncated(
                        TruncationSpec(k, s, n, j=j, Q=Q)
                    ).value
                    classical = series.truncated_series(
                        [TruncationSpec(k, s - j, n, Q=Q)]
                    )[0].value
                    expect = (-0.5) ** j * classical
                    assert modified == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_truncation_differences_decay_geometrically(self):
        for j, n in ((0, 1234), (1, 4075)):
            vals = {
                Q: series.modified_series_truncated(
                    TruncationSpec(2, 9, n, j=j, Q=Q)
                ).value
                for Q in (25, 50, 100, 200)
            }
            diffs = [
                abs(vals[50] - vals[25]),
                abs(vals[100] - vals[50]),
                abs(vals[200] - vals[100]),
            ]
            assert diffs[1] <= 0.5 * diffs[0]
            assert diffs[2] <= 0.5 * diffs[1]

    def test_negative_n_is_phase_reflection(self):
        # for odd k the classical series is invariant under n -> -n
        for n in (5, 17, 60):
            pos = series.truncated_series([TruncationSpec(3, 8, n, Q=30)])[0]
            neg = series.truncated_series([TruncationSpec(3, 8, -n, Q=30)])[0]
            assert pos.value == pytest.approx(neg.value, abs=1e-10)

    def test_tail_estimate_nonnegative(self):
        val = series.modified_series_truncated(TruncationSpec(3, 9, 6, j=1, Q=30))
        assert val.tail_estimate >= 0.0


class TestSeriesOverRange:
    def test_matches_scalar_path(self):
        ns = np.arange(1, 200, dtype=np.int64)
        for k, s, j, Q in ((2, 9, 0, 40), (3, 13, 1, 35)):
            bulk = series.series_over_range(k, s, j, ns, Q)
            for n in (1, 7, 64, 123, 199):
                scalar = series.modified_series_truncated(
                    TruncationSpec(k, s, int(n), j=j, Q=Q)
                ).value
                assert bulk[n - 1] == pytest.approx(scalar, rel=1e-10, abs=1e-10)

    def test_handles_negative_n(self):
        ns = range(-7, 4)
        bulk = series.series_over_range(3, 9, 1, ns, 20)
        for n in (-7, -1, 3):
            scalar = series.modified_series_truncated(
                TruncationSpec(3, 9, n, j=1, Q=20)
            ).value
            assert bulk[ns.index(n)] == pytest.approx(scalar, rel=1e-10, abs=1e-10)

    def test_each_value_depends_on_n_alone(self):
        # the period added at q starts at ns[0] mod q, so a sub-range and a
        # one-element array give the same bits as the range around them
        orders = [(9, 0), (13, 1)]
        wide, = series.series_over_range_orders(3, orders, range(-30, 300), [45])
        for lo, hi in ((-20, 20), (0, 45), (7, 8), (100, 300)):
            rows, = series.series_over_range_orders(3, orders, range(lo, hi), [45])
            assert np.array_equal(rows, wide[:, lo + 30 : hi + 30])
        for n in (-30, 44, 299):
            rows, = series.series_over_range_orders(3, orders, np.array([n]), [45])
            assert np.array_equal(rows[:, 0], wide[:, n + 30])

    def test_n_past_int64_agrees_with_the_scalar_path(self):
        for lo in (2**63 - 5, 2**64 + 17, -(2**63) - 50, -(10**30)):
            ns = range(lo, lo + 60)
            bulk = series.series_over_range(3, 9, 1, ns, 30)
            for i in (0, 29, 59):
                scalar = series.modified_series_truncated(
                    TruncationSpec(3, 9, ns[i], j=1, Q=30)).value
                assert bulk[i] == pytest.approx(scalar, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("ns", [range(1, 20, 2), range(5, 1, -1), np.array([1, 2, 4]),
                                    [3, 2], np.arange(6).reshape(2, 3)])
    def test_n_that_are_not_consecutive_are_refused(self, ns):
        with pytest.raises(ValueError, match="consecutive"):
            series.series_over_range(3, 9, 1, ns, 10)

    def test_empty_range_gives_empty_rows(self):
        for ns in (range(5, 5), range(5, 2), np.array([], dtype=np.int64)):
            rows, = series.series_over_range_orders(3, [(9, 1)], ns, [10])
            assert rows.shape == (1, 0)

    def test_table_ceiling_counts_rows_orders_and_distinct_truncations(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(budget, "BYTES", 12 * 8)
        # 3 rows x 2 orders x 2 distinct Q = 12 float64 values fit
        rows = series.series_over_range_orders(3, [(9, 0), (9, 1)], range(3), [5, 7, 5])
        assert [r.shape for r in rows] == [(2, 3)] * 3
        monkeypatch.setattr(series, "_walk", walked)
        for ns, Qs, values in ((range(4), [5, 7], 16), (range(3), [5, 6, 7], 18),
                               (range(2**70), [5], 2**71), (range(-(2**65), 2**65), [5], 2**67)):
            # no len() of a range past sys.maxsize: the refusal is a ValueError
            largest, size = (re.escape(f"the largest part is {values:.3g} range values ("),
                             re.escape(f" s, {8 * values:.3g} bytes) for "))
            with pytest.raises(ValueError, match=f"{largest}.*{size}.* and {len(set(Qs))} "
                                                 "truncation"):
                series.series_over_range_orders(3, [(9, 0), (9, 1)], ns, Qs)

    def test_work_ceilings_count_additions_and_terms(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the walk ran")

        def priced(name, seconds):  # one second a unit of name, nothing for the rest
            for kind in budget.RATES:
                monkeypatch.setitem(budget.RATES, kind, (10**12 * (kind == name), 0))
            monkeypatch.setattr(budget, "SECONDS", seconds)

        # 3 rows x 2 orders to Q = 7 make 42 additions; 3 specs to Q = 4, 30 terms
        priced("range additions", 42)
        series.series_over_range_orders(3, [(9, 0), (9, 1)], range(3), [5, 7])
        priced("scalar terms", 30)
        series.truncated_series([TruncationSpec(3, 9, n, j=1, Q=4) for n in (1, 2, 3)])
        monkeypatch.setattr(series, "_walk", walked)
        priced("range additions", 42)
        with pytest.raises(ValueError, match=r"56 range additions \(56 s, 0 bytes\) for 4 "
                                             "values of n at 2 order.s. to Q=7"):
            series.series_over_range_orders(3, [(9, 0), (9, 1)], range(4), [5, 7])
        priced("scalar terms", 30)
        for specs, Q, terms in ((4, 4, 40), (3, 5, 45)):
            with pytest.raises(ValueError, match=f"{terms} scalar terms .* for {specs} series "
                                                 f"to Q={Q}"):
                series.truncated_series([TruncationSpec(3, 9, n, j=1, Q=Q)
                                         for n in range(specs)])

    def test_walk_ceiling(self):
        # one order to the old ceiling Q = 2^15 fits the budget; ten times that does not
        budget.check(*series._walk_parts(3, [(9, 1)], [2**15], specs=1))
        for Q in (10 * 2**15, 3_037_000_500, 10**400):
            with pytest.raises(ValueError, match=f"walk residues .* for 1 order.s. to Q={Q}$"):
                series.truncated_series([TruncationSpec(3, 9, 1, j=1, Q=Q)])


class TestOneWalk:
    def test_range_walker_rows_equal_one_order_calls(self):
        ns = np.arange(-30, 300, dtype=np.int64)
        for k, orders in ((3, [(13, 0), (13, 1), (13, 2), (9, 1), (13, 1)]),
                          (2, [(5, 0), (4, 0), (3, 0)])):
            rows, = series.series_over_range_orders(k, orders, ns, [45])
            assert rows.shape == (len(orders), ns.size)
            for row, (s, j) in zip(rows, orders):
                assert np.array_equal(row, series.series_over_range(k, s, j, ns, 45))

    def test_snapshots_at_several_truncations_are_float_rows(self):
        ns = np.arange(-30, 700, dtype=np.int64)
        for k, orders in ((3, [(13, 0), (13, 1), (13, 2)]), (2, [(4, 0), (3, 0)])):
            Qs = [20, 60, 45]
            for Q, rows in zip(Qs, series.series_over_range_orders(k, orders, ns, Qs)):
                assert rows.dtype == np.float64 and rows.shape == (len(orders), ns.size)
                one, = series.series_over_range_orders(k, orders, ns, [Q])
                assert rows.tobytes() == one.tobytes()

    def test_scalar_walker_values_equal_one_spec_calls(self):
        n = 12345
        specs = [TruncationSpec(3, 13, n, j=1, Q=60), TruncationSpec(3, 13, -n, j=1, Q=60),
                 TruncationSpec(3, 12, n, j=0, Q=60), TruncationSpec(3, 13, n, j=3, Q=60),
                 TruncationSpec(3, 13, n, j=1, Q=60)]
        for got, spec in zip(series.truncated_series(specs), specs):
            assert got == series.modified_series_truncated(spec)

    def test_one_phase_vector_per_residue_of_n(self, monkeypatch):
        # every n = Q! m is 0 mod each q <= Q, so those specs share a vector
        Qs, m = [2, 5, 3, 5, 8], 7
        ns = {math.factorial(Q) * m for Q in Qs}
        alone = [series.factorial_multiple_discrepancy(9, 3, [Q], m, 45)[0] for Q in Qs]
        calls = spy(monkeypatch, "phases")
        listed = series.factorial_multiple_discrepancy(9, 3, Qs, m, 45)
        assert [d.hex() for d in listed] == [d.hex() for d in alone]
        per_q = {}
        for args, _ in calls:
            per_q[args[0]] = per_q.get(args[0], 0) + 1
        # the walked moduli, each with one vector per distinct -n mod q
        assert sorted(per_q) == [q for q in range(1, 46) if q not in K3_VANISHING]
        for q, count in per_q.items():
            assert count == len({-n % q for n in ns}), q
        assert len(ns) == 4 and per_q[7] == 1  # 7 divides every n = Q! 7

    def test_k3_vanishing_set_by_brute_force(self):
        assert brute_vanishing(3, 45) == K3_VANISHING

    def test_j_walk_builds_residues_once_per_modulus(self, monkeypatch):
        residues = spy(monkeypatch, "power_residues")
        transforms = spy(monkeypatch, "binned_dft")
        series.modified_series_truncated(TruncationSpec(3, 13, 77, j=1, Q=40))
        series.series_over_range_orders(3, [(13, 0), (13, 2)], np.arange(5), [40])
        # rows: exactly the moduli that do not vanish, once per walk, S and T
        kept = [q for q in range(1, 41) if q not in K3_VANISHING]
        assert [args[0].size for args, _ in transforms] == 2 * [q for q in kept for _ in "ST"]
        # residues: those moduli, and the vanishing prime powers tested on them
        tested = [2, 3, 5, 11, 16, 17, 23, 29]
        assert [args[0] for args, _ in residues] == 2 * sorted(kept + tested)

    def test_census_at_several_truncations_is_one_walk(self, monkeypatch):
        Qs = [30, 12, 30, 45]
        singles = [np.abs(series.series_over_range(3, 13, 1, np.arange(1, 201), Q))
                   for Q in Qs]
        transforms = spy(monkeypatch, "binned_dft")
        mags = series.census_magnitudes(13, 1, 3, 200, Qs)
        # one walk: each S row that does not vanish once, in increasing q
        walked = [args[0].size for args, kwargs in transforms if not kwargs]
        assert walked == [q for q in range(1, 46) if q not in K3_VANISHING]
        for got, want in zip(mags, singles):
            assert np.array_equal(got, want)
        count, fraction = series.nonvanishing_census(13, 1, 3, 200, 12, 0.3)
        assert count == int(np.count_nonzero(singles[1] >= 0.3))
        assert fraction == count / 200

    def test_empty_truncation_lists_are_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            series.census_magnitudes(13, 1, 3, 20, [])

    def test_scalar_walker_needs_one_k_and_Q(self):
        for specs in ([], [TruncationSpec(3, 9, 5, Q=10), TruncationSpec(3, 9, 5, Q=11)],
                      [TruncationSpec(3, 9, 5, Q=10), TruncationSpec(5, 9, 5, Q=10)]):
            with pytest.raises(ValueError):
                series.truncated_series(specs)


class TestVanishingModuli:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_exact_flag_agrees_with_rows(self, k):
        # a seeded grid of q <= 3000, with every higher prime power in range
        rng = np.random.default_rng(3000 + k)
        higher = [p**e for p in range(2, 55) if all(p % d for d in range(2, p))
                  for e in range(2, 12) if p**e <= 3000]
        for q in sorted({*rng.integers(1, 3001, size=150).tolist(), *higher}):
            flagged = any(series._units_vanish(expsums.power_residues(pe, k), p)
                          for p, pe in next(expsums.prime_power_parts(q, q + 1)))
            units = expsums.coprime_residues(q)
            largest = float(np.max(np.abs(expsums.batch_values(q, k)[units]))) / q
            assert largest < 1e-12 if flagged else largest > 1e-6, (k, q)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_walk_skips_exactly_the_vanishing_rows(self, k):
        skipped = [q for q, _, a, rows in series._walk(k, [(9, 1), (8, 0)], 300)
                   if rows is None]
        vanishing = [q for q in range(1, 301) if np.max(np.abs(
            expsums.batch_values(q, k)[expsums.coprime_residues(q)])) < 1e-12 * q]
        assert skipped == vanishing and vanishing

    def test_order_with_j_equal_s_skips_nothing(self):
        walk = series._walk(3, [(9, 1), (4, 4)], 60)
        assert [(q, rows is not None) for q, _, a, rows in walk] == [
            (q, True) for q in range(1, 61)]

    @pytest.mark.parametrize("Q", [1, 2, 3, 16, 45, 300])
    def test_term_count_is_the_totient_sum(self, Q):
        for j in (0, 1, 9):
            val = series.truncated_series([TruncationSpec(3, 9, 1234, j=j, Q=Q)])[0]
            assert val.term_count == totient_sum(Q)

    def test_values_against_double_loop_with_vanishing_moduli(self):
        ns = range(-7, 101)
        for s, j in ((9, 0), (9, 1), (10, 2)):
            # Q = 22 = 2 * 11 vanishes for k = 3, Q = 25 does not
            ranged = series.series_over_range_orders(3, [(s, j)], ns, [22, 25])
            for Q, rows in zip((22, 25), ranged):
                for n in (-7, 0, 6, 23, 100):
                    got = rows[0][ns.index(n)]
                    want = direct_modified_series(3, s, j, n, Q)
                    val, = series.truncated_series([TruncationSpec(3, s, n, j=j, Q=Q)])
                    assert val.value == pytest.approx(want, abs=1e-12)
                    assert got == pytest.approx(want, abs=1e-12)
                    assert (val.tail_estimate == 0.0) == (Q == 22)


class TestPowerMomentSum:
    def test_single_modulus(self):
        assert series.power_moment_sum(1, 2, 8, 0.4, 3) == pytest.approx(1.0)

    def test_finite_against_double_loop(self):
        val = series.power_moment_sum(1, 50, 12, 1.0, 3)
        oracle_val = direct_power_moment(1, 50, 12, 1.0, 3)
        assert val == pytest.approx(oracle_val, rel=1e-9)

    def test_tail_slopes_match_decay_exponent(self):
        # the sum over each dyadic block [Q, 2Q) decays like the tail from Q:
        # fitted slope within +-0.3 of 1 + theta - (u - 1 - delta_k)/k
        Qs = [8, 16, 32, 64, 128]
        for u, theta, target in ((8, 0.0, -2.0), (10, 0.5, -2.5), (12, 1.0, -3.0)):
            vals = [series.power_moment_sum(Q, 2 * Q, u, theta, 2) for Q in Qs]
            assert loglog_slope(Qs, vals) == pytest.approx(target, abs=0.3)

    def test_quadratic_primes_build_no_residues(self, monkeypatch):
        # at k = 2 every odd prime has d = 2 and needs no residues, so only
        # the 41 prime powers p^e with e >= 2 in [3072, 5120) build them
        calls, fn = [], expsums.power_residues

        def counted(q, k):
            calls.append(q)
            return fn(q, k)

        monkeypatch.setattr(expsums, "power_residues", counted)
        series.power_moment_sum(3072, 5120, 8, 0.0, 2)
        assert len(calls) <= 41
        for q in calls:
            (p, pe), = next(expsums.prime_power_parts(q, q + 1))
            assert pe == q > p

    def test_rejects_infinite_hi(self):
        for hi in (math.inf, math.nan):
            with pytest.raises(ValueError):
                series.power_moment_sum(1, hi, 12, 0.0, 2)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            series.power_moment_sum(5, 3, 8, 0.0, 2)


class TestMomentFactors:
    def test_moment_rows_are_multiplicative(self):
        rng = np.random.default_rng(61)
        pairs = 0
        while pairs < 40:
            q1, q2 = (int(q) for q in rng.integers(2, 200, size=2))
            if math.gcd(q1, q2) != 1:
                continue
            k, u = int(rng.integers(2, 7)), int(rng.choice([4, 6, 8]))
            whole = full_row_moment(q1 * q2, k, u)
            parts = full_row_moment(q1, k, u) * full_row_moment(q2, k, u)
            # f is 0 up to rounding when a factor is, so a tiny absolute slack
            assert math.isclose(whole, parts, rel_tol=1e-12, abs_tol=1e-30)
            pairs += 1

    @pytest.mark.parametrize("p,k", [
        (2, 2), (3, 3), (2, 4), (3, 6), (2, 6), (5, 5),         # p divides k
        (5, 3), (11, 3), (1013, 3), (3, 5), (7, 5),             # d = 1
        (7, 3), (997, 3), (13, 4), (1009, 4), (11, 5), (1021, 5),
        (13, 6), (1009, 6), (3, 2), (1019, 2),                  # d = k
        (7, 4), (5, 6), (11, 6),                                # 1 < d < k
    ])
    def test_prime_factor_from_cosets(self, p, k):
        d = math.gcd(k, p - 1)
        assert expsums.coset_sums(p, k).size == d
        for u in (4, 8):
            got = series._local_moment(p, p, k, u)
            if d == 1:
                assert got == 0.0
            else:
                assert got == pytest.approx(full_row_moment(p, k, u), rel=1e-12)

    @pytest.mark.parametrize("lo,hi,u,theta,k", [
        (1, 400, 8, 0.5, 3),
        (1000, 1100, 6, 0.0, 2),   # 1024, 1029 = 3 * 7^3, 1089 = 33^2
        (2030, 2060, 10, 1.0, 4),  # 2048 = 2^11, 2057 = 11^2 * 17
        (1, 300, 12, 1.0, 5),
        (100, 400, 8, 0.3, 6),
        (10**5, 10**5 + 40, 8, 0.0, 2),
        (2 * 10**4, 2 * 10**4 + 40, 9, 0.5, 3),
    ])
    def test_power_moment_sum_against_full_rows(self, lo, hi, u, theta, k):
        assert series.power_moment_sum(lo, hi, u, theta, k) == pytest.approx(
            full_row_power_moment(lo, hi, u, theta, k), rel=1e-12)

    @pytest.mark.parametrize("b0,b1", [(1, 2), (2, 3), (1, 500), (4090, 4100), (10**6, 10**6 + 50),
                                       (1, 3001)])
    def test_factorizations(self, b0, b1):
        for q, parts in zip(range(b0, b1), expsums.prime_power_parts(b0, b1), strict=True):
            ps = [p for p, _ in parts]
            assert ps == sorted(set(ps))
            assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in ps)
            # each pe is a positive power of its p
            assert all(pe % p == 0 and p ** round(math.log(pe, p)) == pe for p, pe in parts)
            assert math.prod(pe for _, pe in parts) == q


class TestOneFactorizer:
    def test_walk_and_moment_sieve_their_moduli_once(self, monkeypatch):
        # patched in expsums too, so factoring by coprime_residues is counted
        windows, sieve = [], expsums.prime_power_parts

        def counted(lo, hi):
            windows.append((lo, hi))
            return sieve(lo, hi)

        monkeypatch.setattr(expsums, "prime_power_parts", counted)
        monkeypatch.setattr(series, "prime_power_parts", counted)
        for k, orders in ((3, [(9, 1), (8, 0)]), (4, [(20, 0)])):
            windows.clear()
            assert sum(1 for _ in series._walk(k, orders, 300)) == 300
            assert windows == [(1, 301)]
        for args in ((3072, 5120, 8, 0.0, 2), (1, 600, 6, 0.5, 3), (2.5, 99.2, 8, 0.3, 4)):
            windows.clear()
            series.power_moment_sum(*args)
            assert windows == [(math.ceil(args[0]), math.ceil(args[1]))]

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_leave_the_factorizations_unchanged(self, monkeypatch, block):
        whole = list(expsums.prime_power_parts(400, 700))
        monkeypatch.setattr(expsums, "_BLOCK", block)
        assert list(expsums.prime_power_parts(400, 700)) == whole

    def test_window_starts_at_one(self):
        with pytest.raises(ValueError):
            next(expsums.prime_power_parts(0, 10))
        assert list(expsums.prime_power_parts(5, 5)) == []


class TestNegationIdentity:
    def test_single_modulus_cancels(self):
        assert series.negation_identity_residual(5, 7, 1, 3) <= 1e-15

    def test_stated_points(self):
        terms = totient_sum(40)
        assert series.negation_identity_residual(9, 5, 40, 3) <= 1e-8 * terms
        terms25 = totient_sum(25)
        assert series.negation_identity_residual(12, 100, 25, 5) <= 1e-8 * terms25

    def test_random_sample(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            k = int(rng.choice([3, 5]))
            s = int(rng.integers(5, 14))
            n = int(rng.integers(1, 500))
            Q = int(rng.integers(2, 40))
            residual = series.negation_identity_residual(s, n, Q, k)
            assert residual <= 1e-8 * totient_sum(Q)

    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            series.negation_identity_residual(9, 5, 40, 2)


class TestFactorialMultipleDiscrepancy:
    def test_rejects_even_k_and_small_s(self):
        with pytest.raises(ValueError):
            series.factorial_multiple_discrepancy(8, 2, [3], 1, 50)
        with pytest.raises(ValueError):
            series.factorial_multiple_discrepancy(7, 3, [3], 1, 50)  # needs s >= 7.5

    def test_matches_directly_assembled_value(self):
        s, k, Q, m, Qt = 8, 3, 3, 1, 25
        n = math.factorial(Q) * m
        got, = series.factorial_multiple_discrepancy(s, k, [Q], m, Qt)
        mod = direct_modified_series(k, s, 1, n, Qt)
        cla = direct_modified_series(k, s - 1, 0, n, Qt)
        assert got == pytest.approx((mod + 0.5 * cla).real, abs=1e-9)

    def test_value_is_real_float(self):
        assert isinstance(series.factorial_multiple_discrepancy(8, 3, [2], 1, 30)[0], float)

    def test_listed_Qs_equal_one_Q_calls_bit_for_bit(self):
        listed = series.factorial_multiple_discrepancy(9, 3, [2, 5, 3, 5], 7, 60)
        alone = [series.factorial_multiple_discrepancy(9, 3, [Q], 7, 60)[0]
                 for Q in (2, 5, 3, 5)]
        assert [d.hex() for d in listed] == [d.hex() for d in alone]


class TestCensus:
    def test_zero_threshold_counts_everything(self):
        count, fraction = series.nonvanishing_census(13, 1, 3, 150, 20, 0.0)
        assert count == 150
        assert fraction == 1.0

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            series.nonvanishing_census(12, 1, 3, 100, 20, 0.1)  # needs s >= 12.5

    def test_count_consistent_with_bulk_magnitudes(self):
        ns = np.arange(1, 301, dtype=np.int64)
        mags = np.abs(series.series_over_range(3, 13, 1, ns, 25))
        C = float(np.median(mags))
        count, fraction = series.nonvanishing_census(13, 1, 3, 300, 25, C)
        assert count == int(np.count_nonzero(mags >= C))
        assert fraction == count / 300


class TestSumsOfSquares:
    # For k = 2 and 5 <= s <= 8 the number r_s(n) of representations of n by
    # s squares equals its main term exactly (Hardy, Trans. AMS 21, 1920):
    # r_s(n) = pi^(s/2) / Gamma(s/2) * n^(s/2 - 1) * S_s(n), with S_s the
    # classical singular series, so the exact signed count is a reference
    # for the series with no series summed.  At s = 4 the series converges
    # only conditionally, and from s = 9 on the counts carry a cusp-form
    # part, so the reference holds at 5 <= s <= 8 only.
    NS = (997, 1000, 2310, 2999)
    # the worst relative error over NS of V(Q) measured before this test,
    # at Q = 100 and Q = 400; the test allows twice that
    MEASURED = {5: (1.7e-3, 2.0e-4), 6: (8.1e-5, 8.8e-6), 7: (2.8e-5, 7.0e-7),
                8: (3.6e-6, 3.3e-8)}

    def test_truncated_series_approaches_the_exact_count(self):
        counts = {s: oracle.count_representations_signed(2, s, max(self.NS))
                  for s in self.MEASURED}
        worst = {}
        for Q in (100, 400):
            specs = [TruncationSpec(2, s, n, Q=Q) for s in self.MEASURED for n in self.NS]
            for spec, value in zip(specs, series.truncated_series(specs)):
                s, n = spec.s, spec.n
                main = math.pi ** (s / 2) / math.gamma(s / 2) * n ** (s / 2 - 1)
                exact = counts[s][n]
                error = abs(main * value.value - exact) / exact
                worst[s, Q] = max(worst.get((s, Q), 0.0), error)
        for s, (at100, at400) in self.MEASURED.items():
            assert worst[s, 100] <= 2 * at100
            assert worst[s, 400] <= 2 * at400
            assert worst[s, 400] < worst[s, 100]
