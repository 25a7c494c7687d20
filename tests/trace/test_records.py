"""Tests for trace records."""

import pytest

from repro.trace.records import Access, Trace


class TestAccess:
    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            Access(-1)

    def test_defaults_to_read(self):
        assert not Access(0).write


class TestTrace:
    def test_from_addresses(self):
        trace = Trace.from_addresses([1, 2, 3], description="t")
        assert trace.addresses() == [1, 2, 3]
        assert len(trace) == 3
        assert trace.description == "t"

    def test_append_and_iter(self):
        trace = Trace()
        trace.append(5)
        trace.append(6, write=True)
        accesses = list(trace)
        assert accesses[0] == Access(5, False)
        assert accesses[1] == Access(6, True)

    def test_extend(self):
        a = Trace.from_addresses([1, 2])
        b = Trace.from_addresses([3])
        assert a.extend(b).addresses() == [1, 2, 3]

    def test_read_write_split(self):
        trace = Trace()
        trace.append(1)
        trace.append(2, write=True)
        trace.append(3)
        assert trace.reads().addresses() == [1, 3]
        assert trace.writes().addresses() == [2]

    def test_unique_addresses(self):
        trace = Trace.from_addresses([1, 1, 2, 2, 2])
        assert trace.unique_addresses() == {1, 2}

    def test_distinct_lines_per_line_size_follow_mutations(self):
        trace = Trace.from_addresses([0, 1, 2, 3, 8, 9])
        assert [trace.distinct_lines(shift) for shift in (0, 1, 2)] == [
            6, 3, 2]
        assert trace.distinct_lines(1) == 3    # memoised, same answer
        trace.append(16)
        assert trace.distinct_lines(1) == 4
        trace.append_block([17, 40], write=True)
        assert trace.distinct_lines(1) == 5
        trace.extend(Trace.from_addresses([100]))
        assert (trace.distinct_lines(0), trace.distinct_lines(1)) == (10, 6)

    def test_repr_mentions_size(self):
        assert "2 accesses" in repr(Trace.from_addresses([0, 1]))


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace(description="roundtrip")
        trace.append(10)
        trace.append(20, write=True)
        trace.append(0)
        path = tmp_path / "trace.txt"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.description == "roundtrip"
        assert loaded.accesses == trace.accesses

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# t\nR 1\n\nW 2\n")
        loaded = Trace.load(path)
        assert loaded.addresses() == [1, 2]

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# t\nX 1\n")
        with pytest.raises(ValueError):
            Trace.load(path)

    def test_saved_file_is_greppable(self, tmp_path):
        trace = Trace.from_addresses([7, 8], description="plain text")
        path = tmp_path / "trace.txt"
        trace.save(path)
        text = path.read_text()
        assert text.splitlines() == ["# plain text", "R 7", "R 8"]
