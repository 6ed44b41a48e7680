"""The column writer `emit_table`, against the former per-cell row writer in `references`."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import emit_rows, format_value
from wkbohm.errors import WkbohmError
from wkbohm.tables import emit_table

SUBNORMAL = 2.2250738585072014e-308 / 3
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e308, -1e308,
                  1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1.0]
STRINGS = ["info", "nano", "analytic-free", "classical", ""]
NOT_A_COLUMN = "column 'a' of {target} is not a 1-D array of floats, integers or strings"


class TestTables:
    def test_cells_by_column_kind(self, tmp_path):
        path = emit_table(tmp_path / "k.csv", [
            ("f", "1", [1.0 / 3.0, 1.0]),
            ("f32", "1", np.array([0.1, 1.0], dtype=np.float32)),
            ("i", "1", np.array([2**62, -3], dtype=np.int64)),
            ("u", "1", np.array([2**64 - 1, 0], dtype=np.uint64)),
            ("s", "-", ["info", "nano"]),
        ])
        assert path.read_text().splitlines() == [
            "f [1],f32 [1],i [1],u [1],s [-]",
            "0.33333333333333331,0.10000000149011612,4611686018427387904,18446744073709551615,info",
            "1,1,-3,0,nano",
        ]

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        path = emit_table(tmp_path / "z.csv", [("x", "1", np.array([-0.0, 0.0, -0.0, 0.0]))])
        assert path.read_text() == "x [1]\n-0\n0\n-0\n0\n"

    def test_empty_records_header_only(self, tmp_path):
        path = emit_table(tmp_path / "empty.csv", [("t", "time", []), ("x", "length", np.empty(0))])
        assert path.read_text() == "t [time],x [length]\n"

    def test_trajectory_rows(self, tmp_path):
        cols = [
            ("t", "time", [0.0, 0.5, 1.0]),
            ("x", "length", np.array([1.0, 1.1, 1.4])),
            ("source", "-", np.array(["analytic-free"] * 3)),
            ("x0", "length", [1.0] * 3),
        ]
        path = emit_table(tmp_path / "traj.csv", cols)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "t [time],x [length],source [-],x0 [length]"
        assert lines[1] == "0,1,analytic-free,1"

    def test_unwritable_path_reports_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "t.csv"
        with pytest.raises(WkbohmError) as exc:
            emit_table(target, [("a", "1", [])])
        assert "t.csv" in str(exc.value)

    def test_column_lengths_checked_naming_file_and_column(self, tmp_path):
        target = tmp_path / "w.csv"
        with pytest.raises(WkbohmError) as exc:
            emit_table(target, [("a", "1", [1.0, 2.0]), ("b", "1", [1.0, 2.0]), ("c", "1", [3.0])])
        assert str(exc.value) == f"column 'c' of {target} has 1 cells, but column 'a' has 2"
        assert not target.exists()

    @pytest.mark.parametrize("cells, message", [
        (["a,b"], "string cell may not contain delimiter or newline: 'a,b'"),
        (["a\nb"], "string cell may not contain delimiter or newline: 'a\\nb'"),
        (np.array([True, False]), NOT_A_COLUMN),
        ([None], NOT_A_COLUMN),
        ([[1.0]], NOT_A_COLUMN),
        ([[1.0], 2.0], NOT_A_COLUMN),
        ([1.0, None], NOT_A_COLUMN),
        (np.array([1 + 2j]), NOT_A_COLUMN),
        (3.0, NOT_A_COLUMN),
    ], ids=repr)
    def test_unformattable_column_refused(self, tmp_path, cells, message):
        target = tmp_path / "w.csv"
        with pytest.raises(WkbohmError) as exc:
            emit_table(target, [("x", "1", ["b"]), ("a", "1", cells)])
        assert str(exc.value) == message.format(target=target)
        assert not target.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)], ids=str)
    def test_non_finite_cell_refused_before_writing(self, tmp_path, bad):
        target = tmp_path / "t.csv"
        cols = [("t", "time", [0.0, 0.5]), ("x", "length", [1.0, bad]), ("source", "-", ["info", "nan-free"])]
        with pytest.raises(WkbohmError) as exc:
            emit_table(target, cols)
        assert str(exc.value) == f"non-finite cell in {target}: row 1, column 'x': {format_value(bad)}"
        assert not target.exists()

    def test_string_cells_spelling_nan_or_inf_inside_are_kept(self, tmp_path):
        path = emit_table(tmp_path / "s.csv", [("name", "-", ["info", "nano"]), ("x", "1", [1.0, 2.0])])
        assert path.read_text() == "name [-],x [1]\ninfo,1\nnano,2\n"


def _column(kind, cells):
    """A column of one cell kind, as the list or array a caller hands over, and its cells for a row."""
    if kind == "float64-list":
        return cells, cells
    dtype = {"float64": np.float64, "float32": np.float32, "int64": np.int64,
             "uint64": np.uint64}.get(kind)
    if dtype is None:  # strings
        return cells, cells
    values = np.array(cells, dtype=dtype)
    return values, list(values)


CELLS = {
    "float64": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)),
    "float64-list": st.sampled_from(SPECIAL_FLOATS),
    "float32": st.floats(width=32, allow_nan=False, allow_infinity=False),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    "str": st.sampled_from(STRINGS),
}


@st.composite
def tables(draw):
    """Random columns of one kind each, maybe with one non-finite float cell."""
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    cells = [draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    floats = [j for j, kind in enumerate(kinds) if kind.startswith("float")]
    if n_rows and floats and draw(st.booleans()):
        j = draw(st.sampled_from(floats))
        cells[j][draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return [_column(kind, c) for kind, c in zip(kinds, cells)]


def _outcome(write, target):
    """The bytes written, or the error raised; the target is gone afterwards."""
    try:
        path = write()
    except WkbohmError as exc:
        assert not target.exists()
        return "error", str(exc)
    assert path == target
    text = target.read_bytes()
    target.unlink()
    return "written", text


@settings(max_examples=300, deadline=None)
@given(tables())
def test_column_writer_gives_the_row_writers_bytes_or_error(columns):
    names = [(f"c{j}", "1") for j in range(len(columns))]
    rows = [list(row) for row in zip(*(cells for _, cells in columns))]
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "t.csv"
        expected = _outcome(lambda: emit_rows(target, names, rows), target)
        got = _outcome(
            lambda: emit_table(target, [(n, u, values) for (n, u), (values, _) in zip(names, columns)]),
            target,
        )
    assert got == expected


class TestFieldSnapshotSerialization:
    def test_wavefunction_snapshot_round_trips(self, tmp_path):
        # Grid states serialize through the same table format the
        # experiments use; 17 significant digits round-trip doubles.
        from wkbohm.analytic import GaussianPacketSpec, PhysParams, free_packet_wavefunction
        from wkbohm.numerics import ComplexField, Grid1D

        grid = Grid1D(-5, 5, 101)
        spec = GaussianPacketSpec(params=PhysParams(1.0, 1.0), sigma0=1.0, p0=0.4)
        psi = ComplexField(grid, free_packet_wavefunction(spec, grid.nodes, 0.7), 0.7)
        path = emit_table(
            tmp_path / "state.csv",
            [("x", "length", grid.nodes), ("re_psi", "1/sqrt(length)", psi.values.real),
             ("im_psi", "1/sqrt(length)", psi.values.imag)],
        )
        lines = path.read_text().splitlines()[1:]
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines])
        assert np.array_equal(parsed[:, 0], grid.nodes)
        assert np.array_equal(parsed[:, 1] + 1j * parsed[:, 2], psi.values)


@pytest.mark.parametrize("value", [1 / 3, 0.1, -7.25e-13, 3.0, 6.02214076e23])
def test_float_format_round_trips_exactly(tmp_path, value):
    path = emit_table(tmp_path / "v.csv", [("v", "1", [value])])
    assert float(path.read_text().splitlines()[1]) == value
