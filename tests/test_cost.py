import pytest

from spsr.cost import CostLedger, compare, macs_bilinear, macs_conv
from spsr.errors import ContractError


class TestMacsConv:
    def test_counting_convention(self):
        assert macs_conv(10, 3, 4, 4) == 1440

    def test_pointwise(self):
        assert macs_conv(1, 1, 256, 128) == 32768

    def test_zero_cells(self):
        assert macs_conv(0, 3, 8, 8) == 0

    def test_fully_active_equals_dense(self):
        cells = 14 * 14
        assert macs_conv(cells, 3, 64, 64) == macs_conv(cells, 3, 64, 64)

    def test_bilinear_taps(self):
        assert macs_bilinear(10, 8) == 320

    def test_bad_dims_rejected(self):
        with pytest.raises(ContractError):
            macs_conv(5, 0, 4, 4)


def ledger_of(entries):
    """A ledger of (op, stage, macs, dense_macs, active, total) entries."""
    ledger = CostLedger()
    for entry in entries:
        ledger.add(*entry)
    return ledger


class TestLedger:
    def test_totals_additive_and_order_invariant(self):
        entries = [("a", 0, 10, 40, 1, 4), ("b", 1, 20, 40, 2, 4), ("c", 1, 5, 10, 2, 4)]
        forward = ledger_of(entries)
        backward = ledger_of(entries[::-1])
        assert forward.total_macs() == backward.total_macs() == 35
        assert compare(forward)["stages"] == compare(backward)["stages"]

    def test_active_beyond_total_rejected(self):
        with pytest.raises(ContractError):
            ledger_of([("a", 0, 1, 1, 5, 4)])

    def test_negative_dense_macs_rejected(self):
        with pytest.raises(ContractError):
            ledger_of([("a", 0, 1, -1, 1, 4)])


class TestCompare:
    def test_identical_ledgers_zero_reduction(self):
        # every cell active: each entry's MACs are its every-cell MACs
        report = compare(ledger_of([("conv", 0, 100, 100, 4, 4), ("conv", 1, 400, 400, 16, 16)]))
        assert report["reduction_fraction"] == 0.0

    def test_quarter_active_closed_form(self):
        # stage 0 runs every cell; later stages at exactly 25% of the cells
        m0 = macs_conv(196, 3, 8, 8)
        dense_cells = [784, 3136]
        ledger = ledger_of([("fcn", 0, m0, m0, 196, 196)] + [
            ("sfm", s + 1, macs_conv(c // 4, 3, 8, 8), macs_conv(c, 3, 8, 8), c // 4, c)
            for s, c in enumerate(dense_cells)])
        report = compare(ledger)
        d_total = m0 + sum(macs_conv(c, 3, 8, 8) for c in dense_cells)
        s_total = m0 + sum(macs_conv(c // 4, 3, 8, 8) for c in dense_cells)
        assert report["reduction_fraction"] == pytest.approx(1 - s_total / d_total, abs=1e-15)

    def test_head_only_reference_reduction(self):
        # published head-only totals: 285.6 G dense vs 85.3 G sparse -> 70%
        report = compare(ledger_of([("head", 0, 85_300_000_000, 285_600_000_000, 1, 1)]))
        assert report["reduction_fraction"] == pytest.approx(0.70, abs=0.005)

    def test_any_sparsity_reduces(self):
        ledger = ledger_of([("sfm", 1, macs_conv(60, 3, 4, 4), macs_conv(100, 3, 4, 4), 60, 100)])
        assert compare(ledger)["reduction_fraction"] > 0.0
