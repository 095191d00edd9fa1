"""Array and grid tables render byte for byte like the same values as lists
of lists, in row blocks of any size, and writing holds one block at a time."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import kerrshift.serialize as serialize
from kerrshift.serialize import Artifact, Grid, _json_value, to_json_text

EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308,
         2.0 ** 53, -(2.0 ** 53), 1.0, 0.1]
AXIS_EDGES = [-0.0, 0.0, 5e-324, 2.0 ** 53, 1e308]
cells = st.one_of(st.floats(), st.sampled_from(EDGES),
                  st.integers(-(2 ** 53), 2 ** 53).map(float))
tables = arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 4)),
                elements=cells)
vectors = arrays(np.float64, st.integers(0, 8), elements=cells)
META = {"command": "probe", "config": {"x": 1.25, "n": 3}}
# BLOCK_CELLS values under which every renderer is checked: one row per
# block, a few rows per block, and the whole of any drawn table in one block
BLOCK_SIZES = (1, 5, serialize.BLOCK_CELLS)


@st.composite
def grids(draw):
    axis = st.one_of(st.floats(), st.sampled_from(AXIS_EDGES))
    nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return Grid(draw(arrays(np.float64, nx, elements=axis)),
                draw(arrays(np.float64, ny, elements=axis)),
                draw(arrays(np.float64, (nx, ny), elements=cells)))


def _one_template(table: np.ndarray) -> str:
    """Every row of a 2-D array as CSV through a single %-template: the text
    that row blocks must reproduce."""
    n, m = table.shape
    return "".join([",".join(["%.17g"] * m) + "\n"] * n) % tuple(table.ravel().tolist())


def _written(artifact: Artifact, fmt: str) -> str:
    stream = io.StringIO()
    artifact.write(stream, fmt)
    return stream.getvalue()


def test_every_edge_value_formats_as_format_17g():
    for value in EDGES:
        assert "%.17g" % value == format(value, ".17g")


@given(table=tables)
@example(table=np.empty((0, 3)))
@example(table=np.array([EDGES[:4], EDGES[4:8], EDGES[8:]]))
@settings(max_examples=200, deadline=None)
def test_array_rows_render_like_list_rows(table):
    columns = [f"c{j}" for j in range(table.shape[1])]
    as_array = Artifact(META, columns, table, ["a failure"])
    as_lists = Artifact(META, columns, table.tolist(), ["a failure"])
    assert as_array.render("json") == as_lists.render("json")
    assert as_array.render("csv") == as_lists.render("csv")


@given(grid=grids())
@example(grid=Grid(np.array(AXIS_EDGES), np.array(AXIS_EDGES[::-1]),
                   np.array(EDGES * 3)[:25].reshape(5, 5)))
@example(grid=Grid(np.array([1.5]), np.array([-0.0]), np.array([[np.nan]])))
@example(grid=Grid(np.array([1.0, 2.0]), np.empty(0), np.empty((2, 0))))
@settings(max_examples=200, deadline=None)
def test_grid_artifacts_render_like_their_rows(grid):
    # the CSV of a Grid is its (x, y, w) rows with y running fastest; its
    # JSON is the axes and the values, as lists
    rows = np.column_stack([np.repeat(grid.xs, len(grid.ys)),
                            np.tile(grid.ys, len(grid.xs)), grid.values.ravel()])
    header = Artifact(META, ["x", "y", "w"], []).render("csv")
    json_text = to_json_text({"meta": META, "data": {
        "xs": grid.xs.tolist(), "ys": grid.ys.tolist(), "values": grid.values.tolist()}})
    artifact = Artifact(META, ["x", "y", "w"], grid)
    for block_cells in BLOCK_SIZES:
        with mock.patch.object(serialize, "BLOCK_CELLS", block_cells):
            assert artifact.render("csv") == header + _one_template(rows)
            assert artifact.render("csv") == Artifact(META, ["x", "y", "w"],
                                                      rows.tolist()).render("csv")
            assert artifact.render("json") == json_text


@given(table=tables, grid=grids())
@settings(max_examples=100, deadline=None)
def test_write_gives_the_rendered_text(table, grid):
    columns = [f"c{j}" for j in range(table.shape[1])]
    artifacts = [Artifact(META, columns, table.tolist(), ["a failure"]),
                 Artifact(META, columns, table, ["a failure"]),
                 Artifact(META, ["x", "y", "w"], grid)]
    for block_cells in BLOCK_SIZES:
        with mock.patch.object(serialize, "BLOCK_CELLS", block_cells):
            for artifact in artifacts:
                for fmt in ("csv", "json"):
                    assert _written(artifact, fmt) == artifact.render(fmt)


class _CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> None:
        self.written += len(text)


def test_writing_a_grid_holds_one_block_not_the_text():
    # a 201^2 map, the size of the benchmark's, with 17-digit axes and values
    axis = np.linspace(-7.123, 7.456, 201)
    values = np.random.default_rng(7).standard_normal((201, 201)) / 7.0
    artifact = Artifact(META, ["x", "y", "w"], Grid(axis, axis + 0.1, values))
    sink = _CountingSink()
    tracemalloc.start()
    try:
        artifact.write(sink, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written == len(artifact.render("csv"))
    assert peak < sink.written / 4


@pytest.mark.parametrize("xs, ys, values, message", [
    (np.zeros(2), np.zeros(3), np.zeros((3, 2)), "shape"),
    (np.zeros((2, 1)), np.zeros(3), np.zeros((2, 3)), "2-d"),
    (np.zeros(2), np.zeros(3, dtype=complex), np.zeros((2, 3)), "complex"),
])
def test_a_grid_refuses_values_off_its_axes(xs, ys, values, message):
    with pytest.raises((TypeError, ValueError), match=message):
        Grid(xs, ys, values)


def test_grid_integral_is_the_riemann_sum():
    # steps 0.25 in x and 2 in y, every cell weighted by dx dy: 21 * 0.5
    grid = Grid(np.array([0.0, 0.25, 0.5]), np.array([-1.0, 1.0]),
                np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    assert grid.integral() == 10.5


@given(vector=vectors, table=tables, indent=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_nested_arrays_render_like_lists(vector, table, indent):
    def payload(v, t):
        return {"meta": META, "data": {"xs": v, "values": t}}

    lists = payload(vector.tolist(), table.tolist())
    assert to_json_text(payload(vector, table)) == to_json_text(lists)
    assert _json_value(table, indent) == _json_value(table.tolist(), indent)
    assert _json_value(vector, indent) == _json_value(vector.tolist(), indent)


def test_integer_arrays_print_bare_integers():
    table = np.array([[0, 1], [2 ** 53, -7]])
    artifact = Artifact(META, ["a", "b"], table)
    assert artifact.render("csv").endswith("a,b\n0,1\n9007199254740992,-7\n")
    assert artifact.render("json") == Artifact(META, ["a", "b"], table.tolist()).render("json")


def test_an_empty_table_renders_as_empty_list_rows():
    artifact = Artifact(META, ["x", "y"], np.empty((0, 2)))
    assert artifact.render("csv").endswith("\nx,y\n")
    assert '"rows": []' in artifact.render("json")
    assert _json_value(np.empty(0), 2) == "[]"


def test_zero_d_arrays_go_through_the_scalar_path():
    assert _json_value(np.array(1.5), 0) == "1.5"
    assert _json_value(np.array(7), 0) == "7"
    assert _json_value(np.array(True), 0) == "true"
    with pytest.raises(TypeError, match="complex"):
        _json_value(np.array(1 + 2j), 0)


@pytest.mark.parametrize("array", [np.array([[1 + 2j]]), np.array([[True]]),
                                   np.array([["a"]]), np.array([[None]])])
def test_non_real_arrays_are_refused_by_dtype(array):
    with pytest.raises(TypeError, match=str(array.dtype)):
        _json_value(array, 0)
    with pytest.raises(TypeError, match=str(array.dtype)):
        Artifact(META, ["a"], array)


def test_arrays_of_the_wrong_rank_are_refused():
    with pytest.raises(TypeError, match="3-d"):
        _json_value(np.zeros((2, 2, 2)), 0)
    with pytest.raises(TypeError, match="1-d"):
        Artifact(META, ["a"], np.zeros(3))


def test_csv_quotes_text_cells_that_hold_a_separator():
    # a comma, a quote or a newline in a heading or a text cell is quoted as
    # the csv module reads it
    artifact = Artifact(META, ["a,b", 'say "x"'], [["one\ntwo", 1.5], ["plain", "c,d"]])
    body = "".join(line for line in io.StringIO(artifact.render("csv"))
                   if not line.startswith("#"))
    assert list(csv.reader(io.StringIO(body))) == [
        ["a,b", 'say "x"'], ["one\ntwo", "1.5"], ["plain", "c,d"]]


def test_an_unknown_format_is_refused():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        Artifact(META, ["c"], [[1.0]]).render("xml")
