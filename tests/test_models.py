import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    ColumnSchema,
    ConvergenceError,
    Dataset,
    ExternalCommand,
    LinearModel,
    LogisticModel,
    ModelError,
    PerfectSeparationError,
    fit_logistic,
    models,
    predict,
)
from cohortshap.games import baseline_rows, baseline_sweep

from .conftest import random_dataset, t8_dataset, titanic_shaped_surrogate
from .helpers import LoggingModel, baseline_game, points_csv

SUM_SCRIPT = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    line = line.strip()\n"
    "    if line:\n"
    "        print(repr(sum(float(v) for v in line.split(','))))\n"
)


def test_linear_predict():
    model = LinearModel((2.0, 1.0, 0.0), 0.0)
    assert predict(model, [[1.0, 1.0, 1.0]])[0] == 3.0
    out = predict(model, np.eye(3))
    assert out.tolist() == [2.0, 1.0, 0.0]
    with pytest.raises(ModelError, match="columns"):
        predict(model, np.zeros((2, 2)))


def test_logistic_predict_range():
    model = LogisticModel((5.0, -3.0), 1.0)
    pts = np.random.default_rng(0).normal(scale=20, size=(100, 2))
    preds = predict(model, pts)
    assert ((preds >= 0.0) & (preds <= 1.0)).all()
    assert predict(LogisticModel((0.0,), 0.0), [[123.0]])[0] == 0.5


def test_external_command_protocol(tmp_path):
    script = tmp_path / "summodel.py"
    script.write_text(SUM_SCRIPT, encoding="utf-8")
    model = ExternalCommand((sys.executable, str(script)))
    pts = np.array([[1.0, 2.5], [0.125, -0.125], [3.0, 4.0]])
    assert predict(model, pts).tolist() == [3.5, 0.0, 7.0]


def test_external_command_constant(tmp_path):
    script = tmp_path / "const.py"
    script.write_text(
        "import sys\nfor _ in sys.stdin:\n    print(2.5)\n", encoding="utf-8"
    )
    out = predict(ExternalCommand((sys.executable, str(script))), np.zeros((4, 3)))
    assert out.tolist() == [2.5] * 4


def test_external_command_failures(tmp_path):
    bad_exit = tmp_path / "bad.py"
    bad_exit.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    with pytest.raises(ModelError, match="exited 3"):
        predict(ExternalCommand((sys.executable, str(bad_exit))), np.zeros((2, 2)))

    short = tmp_path / "short.py"
    short.write_text("print(1.0)\n", encoding="utf-8")
    with pytest.raises(ModelError, match="returned 1 predictions for 2"):
        predict(ExternalCommand((sys.executable, str(short))), np.zeros((2, 2)))

    garbled = tmp_path / "garbled.py"
    garbled.write_text(
        "import sys\nfor _ in sys.stdin:\n    print('spam')\n", encoding="utf-8"
    )
    with pytest.raises(ModelError, match="garbled"):
        predict(ExternalCommand((sys.executable, str(garbled))), np.zeros((2, 2)))

    # one prediction per line: a trailing newline is allowed, nothing more
    def replying(name, reply):
        script = tmp_path / f"{name}.py"
        script.write_text(
            f"import sys\nsys.stdin.read()\nsys.stdout.write({reply!r})\n",
            encoding="utf-8",
        )
        return ExternalCommand((sys.executable, str(script)))

    trailing = predict(replying("trailing", "0.5\n0.7\n"), np.zeros((2, 2)))
    assert trailing.tolist() == [0.5, 0.7]
    for name, reply in (("pair", "0.5 0.7\n\n"), ("blank", "0.5\n\n0.7\n")):
        with pytest.raises(ModelError, match="garbled"):
            predict(replying(name, reply), np.zeros((2, 2)))

    nonfinite = tmp_path / "inf.py"
    nonfinite.write_text(
        "import sys\nfor _ in sys.stdin:\n    print('inf')\n", encoding="utf-8"
    )
    with pytest.raises(ModelError, match="non-finite"):
        predict(ExternalCommand((sys.executable, str(nonfinite))), np.zeros((2, 2)))


def test_fit_logistic_score_equation():
    # at the IRLS optimum the score X^T (y - p) vanishes, intercept included
    ds, labels = titanic_shaped_surrogate(seed=3)
    model = fit_logistic(ds, labels)
    p = predict(model, ds.X)
    design = np.column_stack([ds.X, np.ones(ds.n)])
    score = design.T @ (labels - p)
    assert np.max(np.abs(score)) < 1e-6


def test_fit_logistic_recovers_simple_signal():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(4000, 1))
    eta = 0.75 * X[:, 0] - 0.25
    y = (rng.random(4000) < 1 / (1 + np.exp(-eta))).astype(float)
    ds = Dataset(schema=(ColumnSchema("x", "numeric"),), X=X)
    model = fit_logistic(ds, y)
    assert model.coefficients[0] == pytest.approx(0.75, abs=0.15)
    assert model.intercept == pytest.approx(-0.25, abs=0.15)


def test_fit_logistic_degenerate_cases():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    ds = Dataset(schema=(ColumnSchema("x", "numeric"),), X=X)
    with pytest.raises((PerfectSeparationError, ConvergenceError)):
        fit_logistic(ds, np.array([0.0, 0.0, 1.0, 1.0]))
    with pytest.raises(ModelError, match="constant"):
        fit_logistic(ds, np.zeros(4))
    with pytest.raises(ModelError, match="0/1"):
        fit_logistic(ds, np.array([0.0, 0.5, 1.0, 1.0]))


def test_fit_iteration_cap():
    ds = t8_dataset()
    labels = (ds.y > 1.4).astype(float)
    with pytest.raises((ConvergenceError, PerfectSeparationError)):
        fit_logistic(ds, labels, iterations=1)


def check_csv_text(points) -> None:
    assert models._csv_text(points) == points_csv(points)


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
SPECIALS = [0.0, -0.0, np.nan, NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1, 1.0, -2.5]
VALUES = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True))


@st.composite
def repeated_rows(draw):
    d = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(VALUES, min_size=d, max_size=d), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))
    return np.array(base, dtype=float)[picks]


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
def test_csv_text_matches_per_value_repr(points):
    check_csv_text(points)


def test_csv_text_edge_shapes():
    check_csv_text(np.array([[-0.0]]))
    check_csv_text(np.array([[0.0], [-0.0], [0.0], [np.nan], [NAN_PAYLOAD]]))
    # more rows than one block, with repeated values in every column
    rng = np.random.default_rng(0)
    n = 2 * models.ROW_BLOCK + 7
    points = np.column_stack([
        rng.normal(size=n),
        rng.choice(SPECIALS, size=n),
        np.copysign(rng.integers(0, 3, size=n), rng.choice([-1.0, 1.0], size=n)),
    ])
    points[5:9] = points[0]  # whole-row repeats
    check_csv_text(points)


def _peak_bytes(fn, points) -> int:
    tracemalloc.start()
    try:
        fn(points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_text_memory_is_bounded():
    # four row blocks of all-distinct values
    points = np.random.default_rng(1).normal(size=(4 * models.ROW_BLOCK, 8))
    assert _peak_bytes(models._csv_text, points) <= _peak_bytes(points_csv, points)


COEF = (0.75, -1.5, 2.0, 0.125, -0.5, 1.25)


@pytest.mark.parametrize("method", ["bs", "bs2", "abs", "abs2"])
def test_baseline_game_table_spawns_once(tmp_path, method):
    ds = random_dataset(12, 6, seed=4)
    logged = LoggingModel(tmp_path, COEF)
    table = baseline_game(ds, method, 3, logged.model).value_table()
    assert logged.spawns == 1
    expected = baseline_game(ds, method, 3, logged.linear).value_table()
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


def test_mc_baseline_game_spawns_once_per_values_call(tmp_path):
    ds = random_dataset(12, 6, seed=5)
    logged = LoggingModel(tmp_path, COEF)
    baselines = baseline_rows("bs", ds, logged.model, "mean")
    for spawns, masks in enumerate(([3, 5, 63], [5, 3], [5, 7, 9]), start=1):
        next(baseline_sweep(logged.model, baselines, "bs", ds.X[[2]], masks))
        assert logged.spawns == spawns
    # each sweep leads with the baseline row, then its masks
    assert [len(text.splitlines()) for text in logged.received()] == [4, 3, 4]


def test_external_rows_sent_in_order(tmp_path):
    logged = LoggingModel(tmp_path, COEF)
    base = np.random.default_rng(6).normal(size=(5, 6))
    points = base[[3, 1, 3, 0, 1, 1, 4, 3]]
    preds = predict(logged.model, points)
    assert logged.received() == [points_csv(points)]
    np.testing.assert_allclose(preds, predict(logged.linear, points), rtol=0, atol=1e-12)
