"""Array tables render byte for byte like the same values as lists of lists."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kerrshift.serialize import Artifact, _json_value, to_json_text

EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308,
         2.0 ** 53, -(2.0 ** 53), 1.0, 0.1]
cells = st.one_of(st.floats(), st.sampled_from(EDGES),
                  st.integers(-(2 ** 53), 2 ** 53).map(float))
tables = arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 4)),
                elements=cells)
vectors = arrays(np.float64, st.integers(0, 8), elements=cells)
META = {"command": "probe", "config": {"x": 1.25, "n": 3}}


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
    assert as_array.to_json_text() == as_lists.to_json_text()
    assert as_array.to_csv_text() == as_lists.to_csv_text()


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
    assert artifact.to_csv_text().endswith("a,b\n0,1\n9007199254740992,-7\n")
    assert artifact.to_json_text() == Artifact(META, ["a", "b"], table.tolist()).to_json_text()


def test_an_empty_table_renders_as_empty_list_rows():
    artifact = Artifact(META, ["x", "y"], np.empty((0, 2)))
    assert artifact.to_csv_text().endswith("\nx,y\n")
    assert '"rows": []' in artifact.to_json_text()
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
