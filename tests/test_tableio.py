"""Deterministic CSV table format tests."""

from pathlib import Path

import numpy as np
import pytest

from qcrlab import ConfigError, Table, read_table, write_sidecar, write_table
from qcrlab.tableio import ensure_parent_dir, format_float


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
        data = np.array([[-0.0, 5e-324, 2.2250738585072009e-308],
                         [np.inf, -np.inf, np.nan],
                         [2.0 ** 53 + 2.0, -(2.0 ** 64), 1e300],
                         [0.1, -1.0 / 3.0, 281.0]])
        path = tmp_path / "t.csv"
        write_table(str(path), ["a", "b", "c"], data)
        rows = path.read_text().splitlines()[1:]
        assert rows == [",".join(format_float(x) for x in row)
                        for row in data]


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
