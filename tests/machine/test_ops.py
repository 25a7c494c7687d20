"""Tests for the vector instruction representation."""

import pytest

from repro.machine.ops import (
    LoadPair,
    OpTable,
    VectorCompute,
    VectorLoad,
    VectorStore,
)


class TestVectorLoad:
    def test_addresses(self):
        load = VectorLoad(base=100, stride=3, length=4)
        assert load.addresses() == [100, 103, 106, 109]

    def test_negative_stride_addresses(self):
        load = VectorLoad(base=100, stride=-2, length=3)
        assert load.addresses() == [100, 98, 96]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            VectorLoad(base=0, stride=1, length=0)

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            VectorLoad(base=-1, stride=1, length=4)

    def test_defaults(self):
        load = VectorLoad(base=0, stride=1, length=4)
        assert not load.expect_cached
        assert load.counts_results


class TestVectorStore:
    def test_addresses(self):
        store = VectorStore(base=8, stride=2, length=3)
        assert store.addresses() == [8, 10, 12]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            VectorStore(base=0, stride=1, length=-1)


class TestVectorCompute:
    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            VectorCompute(length=0)


class TestLoadPair:
    def test_holds_two_loads(self):
        a = VectorLoad(base=0, stride=1, length=4)
        b = VectorLoad(base=64, stride=2, length=4, counts_results=False)
        pair = LoadPair(a, b)
        assert pair.first is a and pair.second is b


class TestOpTable:
    def test_round_trip_splits_a_pair_tail(self):
        ops = [
            LoadPair(VectorLoad(base=0, stride=2, length=3),
                     VectorLoad(base=100, stride=-1, length=5,
                                counts_results=False)),
            VectorStore(base=8, stride=1, length=2),
            VectorCompute(length=4),
        ]
        table = OpTable.from_ops(ops)
        assert table.refs().tolist() == [6, 2, 2, 0]
        assert table.to_ops() == [
            LoadPair(VectorLoad(base=0, stride=2, length=3),
                     VectorLoad(base=100, stride=-1, length=3,
                                counts_results=False)),
            VectorLoad(base=97, stride=-1, length=2, counts_results=False),
            VectorStore(base=8, stride=1, length=2),
            VectorCompute(length=4),
        ]

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError):
            OpTable.from_ops(["bogus"])

    @pytest.mark.parametrize("row", [
        (3, 4, 0, 0, 1, 0, 0, 0, 1, 0, 0),   # unknown kind
        (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0),   # empty load
        (0, 4, 5, 0, 1, 9, 1, 0, 1, 0, 0),   # more pair slots than length
        (1, 4, 2, 0, 1, 9, 1, 0, 0, 0, 0),   # a paired store
    ])
    def test_malformed_rows_rejected(self, row):
        with pytest.raises(ValueError):
            OpTable([row])
