import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    ColumnSchema,
    Dataset,
    DatasetError,
    attach_predictions,
    load_csv,
    quantile,
    schema_from_json,
    split_holdout,
    write_csv,
)

SCHEMA = (
    ColumnSchema("color", "categorical"),
    ColumnSchema("size", "numeric"),
    ColumnSchema("flag", "binary"),
)


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    path = write_file(
        tmp_path,
        "color,size,flag,score\nred,1.5,yes,0.25\nblue,2.0,no,0.5\nred,3.25,yes,0.75\n",
    )
    ds = load_csv(path, SCHEMA, prediction_column="score")
    assert (ds.n, ds.d) == (3, 3)
    assert ds.X[:, 0].tolist() == [0.0, 1.0, 0.0]  # interned in appearance order
    assert ds.X[:, 1].tolist() == [1.5, 2.0, 3.25]
    assert ds.y.tolist() == [0.25, 0.5, 0.75]
    assert ds.labels[0] == ("red", "blue")


def test_load_errors(tmp_path):
    with pytest.raises(DatasetError, match="no rows"):
        load_csv(write_file(tmp_path, "color,size,flag\n"), SCHEMA)
    with pytest.raises(DatasetError, match="missing column 'size'"):
        load_csv(write_file(tmp_path, "color,flag\nred,yes\n"), SCHEMA)
    with pytest.raises(DatasetError, match="row 2 has 2 fields"):
        load_csv(write_file(tmp_path, "color,size,flag\nred,1,yes\nred,1\n"), SCHEMA)
    with pytest.raises(DatasetError, match="unparseable numeric"):
        load_csv(write_file(tmp_path, "color,size,flag\nred,wide,yes\n"), SCHEMA)
    with pytest.raises(DatasetError, match="missing value"):
        load_csv(write_file(tmp_path, "color,size,flag\nred,,yes\n"), SCHEMA)
    with pytest.raises(DatasetError, match="more than two levels"):
        load_csv(
            write_file(tmp_path, "color,size,flag\nred,1,a\nred,1,b\nred,1,c\n"),
            SCHEMA,
        )


@pytest.mark.parametrize("cell", ["inf", "nan", "1e999", "-Infinity"])
@pytest.mark.parametrize("column", ["size", "score"])
def test_non_finite_cells_name_their_row_and_column(tmp_path, cell, column):
    rows = [
        ["red", "1", "yes", "0.5"], ["blue", "2", "no", "0.25"], ["red", "3", "yes", "1"]
    ]
    rows[1][["color", "size", "flag", "score"].index(column)] = cell
    text = "color,size,flag,score\n" + "".join(",".join(r) + "\n" for r in rows)
    want = f"non-finite value '{cell}' at row 2, column '{column}'"
    with pytest.raises(DatasetError, match=f"^{want}$"):
        load_csv(write_file(tmp_path, text), SCHEMA, prediction_column="score")


@pytest.mark.parametrize(
    "cells, want",
    [
        (["1", "inf", "wide", "2"], "non-finite value 'inf' at row 2"),
        (["1", "wide", "nan", "2"], "unparseable numeric cell 'wide' at row 2"),
        (["wide", "1e999", "", "2"], "missing value at row 3"),
        (["1", "2", "3", "1e999"], "non-finite value '1e999' at row 4"),
    ],
)
@pytest.mark.parametrize("column", ["size", "score"])
def test_a_column_with_several_faults_reports_its_first(tmp_path, cells, want, column):
    # a blank cell is reported first in a predictor column; the prediction
    # column has no such rule, and reports its first bad cell of any kind
    if column == "score" and "missing" in want:
        want = "unparseable numeric cell 'wide' at row 1"
    row = "red,{},yes,0.5" if column == "size" else "red,1,yes,{}"
    lines = [row.format(c) for c in cells]
    text = "color,size,flag,score\n" + "\n".join(lines) + "\n"
    with pytest.raises(DatasetError, match=f"^{want}, column '{column}'$"):
        load_csv(write_file(tmp_path, text), SCHEMA, prediction_column="score")


def test_quoted_fields(tmp_path):
    path = write_file(tmp_path, 'color,size,flag\n"red, deep",1.0,yes\n')
    ds = load_csv(path, SCHEMA)
    assert ds.labels[0] == ("red, deep",)


def test_roundtrip_values(tmp_path):
    path = write_file(
        tmp_path,
        "color,size,flag,score\nred,1.5,yes,0.25\nblue,-2.125,no,0.5\nred,3.0,yes,1.0\n",
    )
    ds = load_csv(path, SCHEMA, prediction_column="score")
    out = tmp_path / "copy.csv"
    write_csv(ds, out)
    again = load_csv(out, SCHEMA, prediction_column="score")
    assert np.array_equal(ds.X, again.X)
    assert np.array_equal(ds.y, again.y)
    assert ds.labels == again.labels


def test_attach_predictions(t8):
    y = np.arange(8.0)
    ds = attach_predictions(t8, y)
    assert np.array_equal(ds.y, y)
    with pytest.raises(DatasetError):
        attach_predictions(t8, np.arange(7.0))
    # replacing predictions by original responses is allowed (nearest-neighbor mode)
    replaced = attach_predictions(ds, np.ones(8))
    assert replaced.y.tolist() == [1.0] * 8


def test_quantile_examples():
    ds = Dataset(
        schema=(ColumnSchema("v", "numeric"),),
        X=np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
    )
    assert quantile(ds, 0, 0.5) == 3.0
    assert quantile(ds, 0, 0.0) == 1.0
    two = Dataset(schema=(ColumnSchema("v", "numeric"),), X=np.array([[0.0], [10.0]]))
    assert quantile(two, 0, 0.95) == pytest.approx(9.5)
    cat = Dataset(schema=(ColumnSchema("v", "categorical"),), X=np.array([[0.0]]))
    with pytest.raises(DatasetError):
        quantile(cat, 0, 0.5)
    assert quantile(ds, 0, (0.0, 0.5)) == (1.0, 3.0)
    with pytest.raises(DatasetError, match="probability 1.5 outside"):
        quantile(ds, 0, (0.0, 1.5))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.lists(st.floats(0, 1), min_size=2, max_size=6),
)
def test_quantile_monotone_in_p(values, probs):
    ds = Dataset(
        schema=(ColumnSchema("v", "numeric"),),
        X=np.array(values)[:, None],
    )
    qs = [quantile(ds, 0, p) for p in sorted(probs)]
    assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))
    # one call for many probabilities equals one call each
    assert quantile(ds, 0, sorted(probs)) == tuple(qs)


def test_split_holdout_partition():
    ds = Dataset(
        schema=(ColumnSchema("v", "numeric"),), X=np.arange(10.0)[:, None]
    )
    train, test = split_holdout(ds, 0.3, seed=5)
    assert (train.n, test.n) == (7, 3)
    together = sorted(train.X[:, 0].tolist() + test.X[:, 0].tolist())
    assert together == list(range(10))
    train2, test2 = split_holdout(ds, 0.3, seed=5)
    assert np.array_equal(test.X, test2.X) and np.array_equal(train.X, train2.X)
    with pytest.raises(DatasetError):
        split_holdout(ds, 1.5, seed=0)
    with pytest.raises(DatasetError):
        split_holdout(ds, 0.01, seed=0)


def test_schema_from_json():
    schema = schema_from_json({"a": "numeric", "b": "binary"})
    assert [c.name for c in schema] == ["a", "b"]
    schema = schema_from_json([{"name": "a", "kind": "categorical"}])
    assert schema[0].kind == "categorical"
    with pytest.raises(DatasetError):
        schema_from_json({"a": "floatish"})
