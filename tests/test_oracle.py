import dataclasses
import math

import numpy as np
import pytest

from conftest import python_int_counts
from waringsums import expansion, oracle, series


def spy_on_carry(monkeypatch):
    """The limb count after each carry pass of the count engine."""
    limbs = []
    real = oracle._carry

    def recording(acc, w):
        out = real(acc, w)
        limbs.append(len(out))
        return out

    monkeypatch.setattr(oracle, "_carry", recording)
    return limbs


class TestCountRepresentations:
    def test_two_squares_of_twentyfive(self):
        table = oracle.count_representations(2, 2, 25)
        assert table[25] == 2  # (3,4) and (4,3)
        assert table[2] == 1
        assert table[3] == 0

    def test_single_power_is_indicator(self):
        table = oracle.count_representations(3, 1, 100)
        for n in range(101):
            root = round(n ** (1 / 3)) if n else 0
            is_cube = any(y**3 == n for y in range(1, 5))
            assert table[n] == (1 if is_cube else 0), (n, root)

    def test_three_cubes_against_enumeration(self):
        conv = oracle.count_representations(3, 3, 100)
        enum = oracle.count_by_enumeration(3, 3, 100)
        assert conv.counts == enum.counts

    def test_equals_python_int_reference(self):
        for k, s, N in ((2, 5, 400), (3, 4, 600), (4, 3, 300)):
            fast = oracle.count_representations(k, s, N)
            assert list(fast.counts) == python_int_counts(k, s, N)

    def test_79_bit_counts_span_limbs(self, monkeypatch):
        limbs = spy_on_carry(monkeypatch)
        table = oracle.count_representations(2, 24, 1000)
        assert max(limbs) >= 2
        assert max(table.counts).bit_length() == 79
        assert list(table.counts) == python_int_counts(2, 24, 1000)

    @pytest.mark.parametrize("limbs", [1, 2, 3])
    def test_carry_keeps_every_value(self, limbs):
        # entries up to 2**63 - 1 in every limb: nothing wraps, values stay
        w = 57
        rng = np.random.default_rng(limbs)
        acc = rng.integers(0, 2**63, size=(limbs, 50), dtype=np.int64)
        acc[:, :3] = [0, 2**63 - 1, 2**w]

        def value(a):
            return [sum(int(limb) << (w * l) for l, limb in enumerate(col)) for col in a.T]

        want = value(acc)
        out = oracle._carry(acc.copy(), w)
        assert len(out) == limbs + 1
        assert out.dtype == np.int64 and out.min() >= 0
        assert out.max() < 2**w + 2**(63 - w)
        assert value(out) == want

    def test_enumeration_equivalence_grid(self):
        # whole tables, declared width included; at (2, 50, 30) every count
        # is 0 and the width is the a-priori bound of 136 bits
        for k, s, N in [(k, s, 2000) for k in (2, 3) for s in (2, 3, 4)] + [(2, 50, 30)]:
            conv = oracle.count_representations(k, s, N)
            enum = oracle.count_by_enumeration(k, s, N)
            assert conv == enum, (k, s, N)

    def test_total_count_conservation(self):
        # cumulative table total equals a nested-loop count of the ball
        k, s, N = 2, 2, 100
        table = oracle.count_representations(k, s, N)
        nested = sum(
            1
            for x in range(1, 11)
            for y in range(1, 11)
            if x * x + y * y <= N
        )
        assert sum(table.counts) == nested

    def test_parity_structure_matches_enumeration(self):
        table = oracle.count_representations(2, 2, 400)
        enum = oracle.count_by_enumeration(2, 2, 400)
        for n in range(3, 401, 4):
            assert table[n] == enum[n]

    def test_width_declared(self):
        table = oracle.count_representations(2, 9, 100)
        assert table.width_bits >= 128
        assert table.width_bits % 8 == 0

    def test_width_past_the_header_field_is_refused_before_the_power(self):
        # per_slot = 2 at N = 1: s = 2^32 - 9 gives 2^s of 2^32 - 8 bits and
        # a width of 2^32 bits, past the largest the header's uint32 holds
        for k, s, N in [(3, 2**32 - 9, 1), (3, 2**63 - 1, 10), (3, 2**63, 10),
                        (2, 10**400, 100), (2**63, 2**63, 10**6)]:
            with pytest.raises(ValueError, match=rf"s = {s} is too large.* 4294967295 bits"):
                oracle.count_representations(k, s, N)
        with pytest.raises(ValueError, match="too large"):
            oracle.count_representations_signed(2, 2**63, 10)

    def test_table_past_the_ceiling_is_refused_before_any_power(self, monkeypatch):
        def listed(*args):
            raise AssertionError("the k-th powers were listed")

        monkeypatch.setattr(oracle, "_kth_powers", listed)
        for N in (oracle.MAX_N + 1, 10**11, 10**400):
            for build in (oracle.count_representations, oracle.count_representations_signed,
                          oracle.count_by_enumeration):
                with pytest.raises(ValueError, match=rf"N <= {oracle.MAX_N}, got N={N}:"):
                    build(2, 3, N)
        assert oracle._width_bits_for(3, 3, oracle.MAX_N, False) == 128

    @pytest.mark.parametrize("k,s,N,signed", [(2, 1, 1, False), (3, 50, 30, False),
                                              (2, 7, 10**4, True), (3, 10**4, 10, False),
                                              (5, 3, 10**6, False)])
    def test_width_is_the_tuple_bound_in_whole_bytes(self, k, s, N, signed):
        per_slot = (2 if signed else 1) * series.integer_kth_root(N, k) + 1
        bits = (per_slot**s).bit_length() + 1
        assert oracle._width_bits_for(k, s, N, signed) == max(128, 8 * ((bits + 7) // 8))

    def test_validation(self):
        with pytest.raises(ValueError):
            oracle.count_representations(2, 0, 10)
        with pytest.raises(ValueError):
            oracle.count_representations(2, 2, 0)


class TestSignedCounts:
    def test_signed_pairs_of_twentyfive(self):
        table = oracle.count_representations_signed(2, 2, 25)
        assert table[25] == 12  # eight (+-3,+-4)-type pairs plus four axis pairs

    def test_zero_entry_single_slot(self):
        table = oracle.count_representations_signed(2, 1, 10)
        assert table[0] == 1
        assert table[1] == 2
        assert table[2] == 0

    def test_signed_enumeration_agreement(self):
        conv = oracle.count_representations_signed(2, 3, 500)
        enum = oracle.count_by_enumeration(2, 3, 500, signed=True)
        assert conv.counts == enum.counts

    def test_guard_carries_into_limbs(self, monkeypatch):
        # the largest count is 68 bits, beyond int64
        limbs = spy_on_carry(monkeypatch)
        table = oracle.count_representations_signed(2, 14, 2000)
        assert limbs, "the overflow guard did not fire"
        assert max(table.counts).bit_length() == 68
        assert list(table.counts) == python_int_counts(2, 14, 2000, signed=True)
        assert table.width_bits == 128
        assert oracle.verify_inversion(2, 14, 2000) is None

    def test_near_boundary_stays_on_int64(self, monkeypatch):
        # the largest count is 58 bits, and the guard holds at every step
        limbs = spy_on_carry(monkeypatch)
        table = oracle.count_representations_signed(2, 12, 2000)
        assert not limbs
        assert max(table.counts).bit_length() == 58
        assert list(table.counts) == python_int_counts(2, 12, 2000, signed=True)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            oracle.count_representations_signed(3, 2, 10)
        with pytest.raises(ValueError):
            oracle.count_by_enumeration(3, 2, 10, signed=True)


class TestInversion:
    def test_spot_value_by_hand(self):
        # 4 R_2(25) + 4 R_1(25) + R_0(25) = 8 + 4 + 0 = 12 = signed count
        assert oracle.verify_inversion(2, 2, 25) is None

    def test_single_slot_relation(self):
        unsigned = oracle.count_representations(2, 1, 60)
        signed = oracle.count_representations_signed(2, 1, 60)
        for n in range(61):
            assert signed[n] == 2 * unsigned[n] + (1 if n == 0 else 0)

    def test_larger_case(self):
        assert oracle.verify_inversion(2, 6, 5000) is None

    def test_four_squares_to_ten_thousand(self):
        assert oracle.verify_inversion(2, 4, 10_000) is None

    def test_quartic_case(self):
        assert oracle.verify_inversion(4, 3, 800) is None

    def test_first_failure_on_tampered_data(self, monkeypatch):
        real = oracle.count_representations_signed

        def tampered(k, s, N):
            table = real(k, s, N)
            counts = list(table.counts)
            counts[5] += 1
            return dataclasses.replace(table, counts=tuple(counts))

        monkeypatch.setattr(oracle, "count_representations_signed", tampered)
        # the true signed_2(5) is 8: (+-1, +-2) and (+-2, +-1)
        assert oracle.verify_inversion(2, 2, 25) == (5, "signed-from-unsigned", 9, 8)


class TestResidualTable:
    def test_definition_of_first_residual(self):
        k, s, Q = 2, 9, 30
        table = oracle.count_representations(k, s, 510)
        res = oracle.residual_table(table, 0, 500, 510, Q)
        counts, predicted, residuals = res.rows(0, len(res))
        for n, exact, pred0, resid0 in zip(res.ns.tolist(), counts, predicted[0], residuals[0]):
            coeffs = expansion.coefficients_even(s, 0, n, k, Q)
            pred = expansion.expansion_partial_sums([n], s, k, coeffs.coefficients)[-1, 0]
            assert exact == table[n]
            assert pred0 == pytest.approx(pred, rel=1e-9)
            assert resid0 == pytest.approx(exact - pred, rel=1e-9)

    def test_cumulative_predictions_odd_k(self):
        table = oracle.count_representations(3, 13, 1010)
        res = oracle.residual_table(table, 1, 1000, 1010, 40)
        for n, pred0, pred1 in zip(res.ns.tolist(), *res.rows(0, len(res))[1]):
            coeffs = expansion.coefficients_odd(13, 1, n, 3, 40)
            manual0 = coeffs.coefficients[0] * n ** (13 / 3 - 1)
            manual1 = manual0 + coeffs.coefficients[1] * n ** (12 / 3 - 1)
            assert pred0 == pytest.approx(manual0, rel=1e-9)
            assert pred1 == pytest.approx(manual1, rel=1e-9)

    def test_rejects_mismatched_table(self):
        with pytest.raises(ValueError):
            oracle.residual_table(oracle.count_representations_signed(2, 9, 50), 1, 1, 50, 10)
        with pytest.raises(ValueError):
            oracle.residual_table(oracle.count_representations(2, 9, 49), 1, 1, 50, 10)

    @pytest.mark.parametrize("k, s, J, n_min, n_max, Q", [
        (3, 13, 2, 1000, 1400, 60),
        # counts from 2^54 up to 2^64: float(exact) rounds, as int - float does
        (2, 20, 1, 400, 800, 30),
        # counts above 2^64
        (2, 24, 1, 700, 1000, 20),
    ])
    def test_residual_columns_are_int_minus_float(self, k, s, J, n_min, n_max, Q):
        table = oracle.count_representations(k, s, n_max)
        res = oracle.residual_table(table, J, n_min, n_max, Q)
        exact, predicted, residuals = res.rows(0, len(res))
        if k == 2:
            assert min(exact) > 2**53
        assert res.ns.tolist() == list(range(n_min, n_max + 1))
        assert exact == [table[n] for n in range(n_min, n_max + 1)]
        assert predicted.shape == residuals.shape == (J + 1, n_max - n_min + 1)
        for j in range(J + 1):
            want = [(c - p).hex() for c, p in zip(exact, predicted[j].tolist())]
            assert [r.hex() for r in residuals[j].tolist()] == want

    @pytest.mark.parametrize("k, s, J, n_min, n_max, Q", [
        (3, 13, 2, 1000, 1400, 60), (2, 4, 1, 1, 300, 30), (2, 24, 1, 700, 1000, 20)])
    def test_row_slices_are_the_same_bits_as_the_whole(self, k, s, J, n_min, n_max, Q):
        res = oracle.residual_table(oracle.count_representations(k, s, n_max), J,
                                    n_min, n_max, Q)
        exact, predicted, residuals = res.rows(0, len(res))
        assert res.coefficients.shape == (J + 1, len(res))
        for lo, hi in ((0, 1), (3, 10), (7, 7), (len(res) - 5, len(res) + 9)):
            part = res.rows(lo, hi)
            assert part[0] == exact[lo:hi]
            assert part[1].tobytes() == np.ascontiguousarray(predicted[:, lo:hi]).tobytes()
            assert part[2].tobytes() == np.ascontiguousarray(residuals[:, lo:hi]).tobytes()

    def test_length_and_records(self):
        table = oracle.count_representations(3, 13, 1040)
        res = oracle.residual_table(table, 2, 1000, 1040, 40)
        assert len(res) == len(res.ns) == 41


class TestExports:
    def test_binary_round_trip(self, tmp_path):
        table = oracle.count_representations(3, 5, 123)
        path = tmp_path / "t.bin"
        oracle.write_binary(table, str(path))
        back = oracle.read_binary(str(path))
        assert back == table

    def test_binary_header_layout(self, tmp_path):
        table = oracle.count_representations_signed(2, 2, 7)
        path = tmp_path / "t.bin"
        oracle.write_binary(table, str(path))
        raw = path.read_bytes()
        assert raw[:4] == b"WRC1"
        k = int.from_bytes(raw[4:8], "little")
        s = int.from_bytes(raw[8:12], "little")
        N = int.from_bytes(raw[12:20], "little")
        width = int.from_bytes(raw[20:24], "little")
        signed = raw[24]
        assert (k, s, N, width, signed) == (2, 2, 7, table.width_bits, 1)
        assert len(raw) == 25 + 8 * (table.width_bits // 8)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError):
            oracle.read_binary(str(path))

    @staticmethod
    def _rewrite(path, **fields):
        raw = bytearray(path.read_bytes())
        offsets = {"width": (20, 4), "signed": (24, 1)}
        for name, value in fields.items():
            at, size = offsets[name]
            raw[at : at + size] = value.to_bytes(size, "little")
        path.write_bytes(bytes(raw))

    @pytest.mark.parametrize("width", [0, 64, 120, 132])
    def test_bad_width_rejected(self, tmp_path, width):
        path = tmp_path / "t.bin"
        oracle.write_binary(oracle.count_representations(2, 2, 7), str(path))
        self._rewrite(path, width=width)
        with pytest.raises(ValueError, match="width"):
            oracle.read_binary(str(path))

    def test_bad_signed_flag_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        oracle.write_binary(oracle.count_representations_signed(2, 2, 7), str(path))
        self._rewrite(path, signed=7)
        with pytest.raises(ValueError, match="signed"):
            oracle.read_binary(str(path))

    def test_zero_width_signed_header_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(oracle._HEADER.pack(b"WRC1", 2, 2, 7, 0, 7))
        with pytest.raises(ValueError):
            oracle.read_binary(str(path))

    @pytest.mark.parametrize("cut", [1, 16, 40])
    def test_truncated_file_rejected(self, tmp_path, cut):
        path = tmp_path / "t.bin"
        oracle.write_binary(oracle.count_representations(2, 2, 7), str(path))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            oracle.read_binary(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        oracle.write_binary(oracle.count_representations(2, 2, 7), str(path))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="trailing"):
            oracle.read_binary(str(path))

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"WRC1" + bytes(10))
        with pytest.raises(ValueError, match="header"):
            oracle.read_binary(str(path))

    @staticmethod
    def _entries(counts, wbytes):
        return b"".join(c.to_bytes(wbytes, "little") for c in counts)

    @pytest.mark.parametrize("wbytes", [16, 17, 24])
    @pytest.mark.parametrize("top", [0, 2**53 + 1, 2**64 - 1, 2**64, 2**100 + 3])
    def test_entry_codec_against_to_bytes(self, wbytes, top):
        # counts of one, two and three uint64 words, including a last word
        # only partly inside a 17-byte entry
        counts = [0, 1, 255, 256, 2**32 + 7, 2**63, top, 5]
        raw = self._entries(counts, wbytes)
        assert oracle._encode(counts, wbytes) == raw
        assert oracle._encode(tuple(counts), wbytes) == raw
        assert oracle._decode(raw, wbytes) == counts
        assert all(type(c) is int for c in oracle._decode(raw, wbytes))
        assert oracle._encode([], wbytes) == b"" and oracle._decode(b"", wbytes) == []

    @pytest.mark.parametrize("k, s, N, signed", [
        (3, 13, 3000, False), (2, 24, 1000, False), (2, 14, 2000, True)])
    def test_binary_bytes_are_per_entry_to_bytes(self, tmp_path, k, s, N, signed):
        # the layout every earlier version wrote, including counts of 68 and 79 bits
        build = oracle.count_representations_signed if signed else oracle.count_representations
        table = build(k, s, N)
        path = tmp_path / "t.bin"
        oracle.write_binary(table, str(path))
        raw = path.read_bytes()
        assert raw[oracle._HEADER.size:] == self._entries(table.counts, table.width_bits // 8)
        assert oracle.read_binary(str(path)) == table

    def test_encode_width_overflow(self):
        with pytest.raises(oracle.WidthOverflowError):
            oracle._encode([1, 2**128], 16)
        with pytest.raises(oracle.WidthOverflowError):
            oracle._encode([2**64], 8)

    def test_width_overflow_on_export(self, tmp_path):
        bogus = oracle.RepCountTable(2, 2, False, 128, (1, 1 << 200))
        path = tmp_path / "x.bin"
        with pytest.raises(oracle.WidthOverflowError):
            oracle.write_binary(bogus, str(path))
        assert not path.exists()

    def test_order_past_the_header_field_is_refused_on_export(self, tmp_path):
        path = tmp_path / "x.bin"
        for k in (2**32, 2**63 - 1, 10**400):
            table = oracle.count_representations(k, 3, 10)  # only 1 is a k-th power
            assert table.counts[:5] == (0, 0, 0, 1, 0)
            with pytest.raises(ValueError, match=f"k = {k} does not fit"):
                oracle.write_binary(table, str(path))
            assert not path.exists()
        oracle.write_binary(oracle.count_representations(2**32 - 1, 3, 10), str(path))
        assert oracle.read_binary(str(path)).k == 2**32 - 1
