"""Deterministic CSV table format tests."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcrlab import ConfigError, Table, read_table, write_sidecar, write_table
from qcrlab.tableio import WRITE_CHUNK_ROWS, ensure_parent_dir, format_float

# rows of every kind format_float must render: signed zero, subnormals,
# infinities, NaN, integers beyond 2**53 and repeating fractions
SPECIAL_ROWS = [[-0.0, 5e-324, 2.2250738585072009e-308],
                [np.inf, -np.inf, np.nan],
                [2.0 ** 53 + 2.0, -(2.0 ** 64), 1e300],
                [0.1, -1.0 / 3.0, 281.0]]


class TestFloatFormat:
    def test_round_trips_exactly(self):
        values = [0.0, -0.0, 0.1, 1.0 / 3.0, 1e-300, 6.62607015e-34,
                  -2.5, 1e17 + 16.0, 3.141592653589793, 4.67e9]
        for x in values:
            assert float(format_float(x)) == x

    def test_plain_integers_stay_short(self):
        assert format_float(281.0) == "281"

    def test_table_rows_format_as_format_float(self, tmp_path):
        # write_table formats a whole row at once; each field must read as
        # format_float of its value
        data = np.array(SPECIAL_ROWS)
        path = tmp_path / "t.csv"
        write_table(str(path), ["a", "b", "c"], data)
        rows = path.read_text().splitlines()[1:]
        assert rows == [",".join(format_float(x) for x in row)
                        for row in data]


def one_string_write_table(path, columns, data, comments=()):
    """The writer that built the whole file as one string, kept as the
    oracle of the chunked one."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    lines = [f"# {c}" for c in comments]
    lines.append("# " + ", ".join(columns))
    row_format = ",".join(["%.17g"] * len(columns))
    lines.extend(row_format % tuple(row) for row in data.tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class TestChunkedWriter:
    CHUNK = WRITE_CHUNK_ROWS

    @pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1, 7381])
    @pytest.mark.parametrize("comments", [(), ("qcrlab ep-map", "run 2")])
    def test_bytes_equal_one_string_writer(self, tmp_path, rows, comments):
        rng = np.random.default_rng(rows)
        data = rng.standard_normal((rows, 3)) \
            * 10.0 ** rng.integers(-300, 300, (rows, 3))
        data[:len(SPECIAL_ROWS)] = SPECIAL_ROWS[:rows]
        cols = ["phi (Phi_0)", "freq (GHz)", "s21_abs (1)"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_table(str(got), cols, data, comments=comments)
        one_string_write_table(str(want), cols, data, comments=comments)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == len(comments) + 1 + rows


class TestChunkedReader:
    """The reader parses a file in one pass.  Its files are laid out in
    blocks of 1024 lines, the size it once parsed at a time, so that a
    reader that buffers lines in blocks is tested across their edges."""

    CHUNK = 1024
    HEADER = "# a (1), b (1), c (1)\n"

    def lines(self, data):
        """Comments and blank lines up to the first chunk's end, then the
        header and the rows, with a blank line and the header again at
        the second chunk's end."""
        head = [f"# note {i}\n" if i % 2 else "\n"
                for i in range(self.CHUNK - 2)]
        rows = ["%.17g,%.17g,%.17g\n" % tuple(r) for r in data.tolist()]
        lines = [*head, self.HEADER, *rows]
        lines[2 * self.CHUNK - 1:2 * self.CHUNK - 1] = ["\n", self.HEADER]
        return lines

    @pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1, 7381])
    def test_round_trip_across_chunks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        data = rng.standard_normal((rows, 3)) \
            * 10.0 ** rng.integers(-300, 300, (rows, 3))
        data[:len(SPECIAL_ROWS)] = SPECIAL_ROWS
        path = tmp_path / "t.csv"
        path.write_text("".join(self.lines(data)))
        table = read_table(str(path))
        assert table.columns == ["a (1)", "b (1)", "c (1)"]
        assert table.comments == [f"note {i}" for i in
                                  range(1, self.CHUNK - 2, 2)] \
            + ["a (1), b (1), c (1)"]
        assert table.data.shape == data.shape
        assert table.data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("bad_row, tail, message", [
        ("1,2,3,4\n", "", "ragged rows or header/data mismatch"),
        ("1,spam,3\n", "", "malformed data line '1,spam,3'"),
        # every line decodes before a malformed one is named
        ("1,spam,3\n", "\udcff", "not UTF-8 text"),
    ])
    def test_defect_in_a_later_chunk(self, tmp_path, bad_row, tail,
                                     message):
        # the defect in the second chunk, the tail tens of kB on in the third
        lines = self.lines(np.full((2 * self.CHUNK, 3), 1.0 / 3.0))
        lines[self.CHUNK + 5] = bad_row
        path = tmp_path / "bad.csv"
        path.write_bytes(("".join(lines) + tail).encode(
            "utf-8", "surrogateescape"))
        with pytest.raises(ConfigError, match=message):
            read_table(str(path))

    def test_comment_between_chunks_after_the_data(self, tmp_path):
        data = np.arange(6.0 * self.CHUNK).reshape(-1, 3)
        rows = ["%.17g,%.17g,%.17g\n" % tuple(r) for r in data.tolist()]
        rows.insert(self.CHUNK - 1, "# between chunks\n")
        path = tmp_path / "t.csv"
        path.write_text("# first\n" + self.HEADER + "".join(rows))
        table = read_table(str(path))
        assert table.columns == ["a (1)", "b (1)", "c (1)"]
        assert table.comments == ["first", "between chunks"]
        assert table.data.tobytes() == data.tobytes()

    def test_values_are_held_once(self, tmp_path):
        # the rows' floats go to one buffer that the table's data views: no
        # list of rows and no second copy of the data
        rows = 20000
        path = tmp_path / "t.csv"
        write_table(str(path), ["a (1)", "b (1)", "c (1)"],
                    np.linspace(0.0, 1.0, 3 * rows).reshape(rows, 3))
        tracemalloc.start()
        try:
            table = read_table(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.data.shape == (rows, 3)
        assert peak < 10 * table.data.size


class TestCommentsAfterTheData:
    """The last '#' line before the first data row names the columns; a
    '#' line after a data row is a comment."""

    def test_trailing_comment_with_commas(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# bias (1), shift (Hz)\n0.5,1\n0.6,2\n"
                        "# trailing note, run 2\n")
        table = read_table(str(path))
        assert table.columns == ["bias (1)", "shift (Hz)"]
        assert table.comments == ["trailing note, run 2"]
        np.testing.assert_array_equal(table.data, [[0.5, 1.0], [0.6, 2.0]])

    def test_one_field_trailing_comment(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# run 7\n# bias (1), shift (Hz)\n0.5,1\n# note\n"
                        "0.6,2\n")
        table = read_table(str(path))
        assert table.columns == ["bias (1)", "shift (Hz)"]
        assert table.comments == ["run 7", "note"]
        np.testing.assert_array_equal(table.data, [[0.5, 1.0], [0.6, 2.0]])

    def test_comments_only_after_the_data_leave_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.5,1\n0.6,2\n# bias (1), shift (Hz)\n")
        with pytest.raises(ConfigError, match="missing '#' column header"):
            read_table(str(path))


class TestRoundTrip:
    def write_sample(self, path):
        data = np.column_stack([np.linspace(0.0, 1.4, 8),
                                np.geomspace(1e3, 1e8, 8)])
        write_table(path, ["bias (V)", "rate (1/s)"], data,
                    comments=["device run 12"])
        return data

    def test_values_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        data = self.write_sample(path)
        table = read_table(path)
        assert table.columns == ["bias (V)", "rate (1/s)"]
        assert table.comments == ["device run 12"]
        np.testing.assert_array_equal(table.data, data)

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1 = str(tmp_path / "a.csv")
        p2 = str(tmp_path / "b.csv")
        self.write_sample(p1)
        t = read_table(p1)
        write_table(p2, t.columns, t.data, comments=t.comments)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_column_lookup_by_prefix(self, tmp_path):
        path = str(tmp_path / "t.csv")
        self.write_sample(path)
        t = read_table(path)
        np.testing.assert_array_equal(t.column("bias"), t.column("bias (V)"))
        with pytest.raises(KeyError):
            t.column("voltage")

    def test_single_row_table(self, tmp_path):
        path = str(tmp_path / "one.csv")
        write_table(path, ["x", "y"], [[1.5, -2.0]])
        t = read_table(path)
        assert t.data.shape == (1, 2)
        assert t.data[0, 1] == -2.0


class TestMalformedInput:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ConfigError):
            read_table(str(path))

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x, y\n1.0,spam\n")
        with pytest.raises(ConfigError):
            read_table(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x, y\n1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(ConfigError):
            read_table(str(path))

    def test_header_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x, y, z\n1.0,2.0\n")
        with pytest.raises(ConfigError):
            read_table(str(path))

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# x, y\n1.0,2.0\xff\n")
        with pytest.raises(ConfigError, match=f"{path}: not UTF-8 text"):
            read_table(str(path))

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# x, y\n")
        with pytest.raises(ConfigError):
            read_table(str(path))

    def test_write_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(str(tmp_path / "w.csv"), ["x"], [[1.0, 2.0]])


class TestSidecar:
    def test_deterministic_bytes_and_suffix(self, tmp_path):
        base = str(tmp_path / "run.csv")
        meta = {"b": 2, "a": {"z": 1, "y": [3, 4]}}
        p1 = write_sidecar(base, meta)
        assert p1 == base + ".meta.json"
        blob1 = Path(p1).read_bytes()
        write_sidecar(base, {"a": {"y": [3, 4], "z": 1}, "b": 2})
        assert Path(p1).read_bytes() == blob1
        assert blob1.startswith(b"{\n")

    def test_parent_dir_guard(self, tmp_path):
        ensure_parent_dir(str(tmp_path / "fine.csv"))
        with pytest.raises(ConfigError):
            ensure_parent_dir(str(tmp_path / "missing" / "out.csv"))

    @pytest.mark.parametrize("directory", ["out.csv", "out.csv.meta.json"])
    def test_directory_outputs_rejected(self, tmp_path, directory):
        (tmp_path / directory).mkdir()
        with pytest.raises(ConfigError, match="output path is a directory: "
                           + str(tmp_path / directory)):
            ensure_parent_dir(str(tmp_path / "out.csv"))
