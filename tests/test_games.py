import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    AbsoluteThreshold,
    ColumnSchema,
    Dataset,
    DatasetError,
    Identity,
    LinearModel,
    LogisticModel,
    ModelError,
    RelativeThreshold,
    SimilarityError,
    attach_predictions,
    games,
    is_realistic,
    local_attributions,
    make_game,
    predict,
    realism_splits,
    resolve_rules,
    shapley_engine,
    shapley_exact,
    shapley_permutation,
    similarity_row,
    variance_shapley,
)
from cohortshap.games import COHORT_METHODS, MODEL_METHODS, TableGame
from cohortshap.shapley import permutation_masks
from cohortshap.similarity import cohort_value_tables, cohort_values, match_codes

from .conftest import random_dataset, t8_target
from .helpers import (
    LoggingModel,
    ReferenceVarGame,
    chosen_masks,
    lazy_cohort_game,
    naive_baseline_value,
    naive_realism_split,
    points_csv,
    reference_shapley,
)

LINEAR = LinearModel((2.0, 1.0, 0.0), 0.0)
IDENT3 = [Identity()] * 3


@pytest.fixture
def t8_games(t8):
    return t8, t8_target(t8)


def test_cs_values(t8_games):
    ds, t = t8_games
    g = make_game("cs", ds, t, IDENT3)
    assert g.value([]) == 0.0
    assert g.value([0]) == pytest.approx(1.0)
    assert g.value([1]) == pytest.approx(0.5)
    assert g.value([2]) == pytest.approx(0.0)
    assert g.value([0, 1, 2]) == pytest.approx(1.5)
    # singleton full cohort: total equals f(x_t) - grand mean
    assert g.total == pytest.approx(ds.y[t] - ds.y.mean())


def test_cs2_values(t8_games):
    ds, t = t8_games
    g = make_game("cs2", ds, t, IDENT3)
    assert g.value([]) == 0.0
    assert g.value([0]) == pytest.approx(1.0)
    assert g.value([0, 1]) == pytest.approx(2.25)
    assert g.value([2]) == 0.0
    table = g.value_table()
    assert (table >= 0.0).all()


def test_bs_values(t8_games):
    ds, t = t8_games
    g = make_game("bs", ds, t, model=LINEAR, baseline="mean")
    assert g.value([]) == 0.0
    assert g.value([0]) == pytest.approx(1.0)  # equals the CS value here
    assert g.total == pytest.approx(3.0 - 1.5)
    explicit = make_game("bs", ds, t, model=LINEAR, baseline=[0.5, 0.5, 0.5])
    assert explicit.total == g.total


def test_bs2_values(t8_games):
    ds, t = t8_games
    g = make_game("bs2", ds, t, model=LINEAR, baseline="mean")
    assert g.value([]) == 0.0
    assert g.total == pytest.approx(2.25)
    bs = make_game("bs", ds, t, model=LINEAR, baseline="mean")
    assert g.total == pytest.approx(bs.total**2)


def test_abs_values(t8_games):
    ds, t = t8_games
    g = make_game("abs", ds, t, model=LINEAR)
    assert g.value([]) == 0.0
    assert g.value([0]) == pytest.approx(1.0)
    # decomposes the same total as CS: f(x_t) - grand mean
    assert g.total == pytest.approx(make_game("cs", ds, t, IDENT3).total)


def test_abs2_values(t8_games):
    ds, t = t8_games
    g = make_game("abs2", ds, t, model=LINEAR)
    assert g.value([]) == 0.0
    assert g.total == pytest.approx(3.5)
    assert g.total >= make_game("cs2", ds, t, IDENT3).total


def test_abs2_dominates_cs2_on_random_data():
    from cohortshap import AbsoluteThreshold, predict

    ds = random_dataset(50, 3, seed=21)
    rng = np.random.default_rng(0)
    model = LinearModel(tuple(rng.normal(size=3)), 0.5)
    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [AbsoluteThreshold(0.4)] * 3
    for t in (0, 17, 42):
        assert (
            make_game("abs2", ds, t, model=model).total
            >= make_game("cs2", ds, t, rules).total - 1e-12
        )


def test_var_values(t8):
    g = ReferenceVarGame(t8, IDENT3)
    assert g.value([]) == 0.0
    assert g.value([0, 1, 2]) == pytest.approx(1.25)
    assert g.value([0]) == pytest.approx(1.0)
    # the library's var game is the same subject average, coalition by
    # coalition: its exact Shapley values and total are the reference's
    want = shapley_exact(g)
    got = variance_shapley(t8, IDENT3)
    assert got.method == "var" and got.target is None
    assert got.total == pytest.approx(want.total, abs=1e-12)
    assert got.phi == pytest.approx(want.phi, abs=1e-12)


def test_purity(t8_games):
    ds, t = t8_games
    for game in (
        make_game("cs", ds, t, IDENT3),
        make_game("bs", ds, t, model=LINEAR, baseline="mean"),
        make_game("abs", ds, t, model=LINEAR),
    ):
        first = game.value([0, 2])
        again = game.value([0, 2])
        assert first == again  # bit-identical on repeat


def test_game_evaluates_the_requested_nonempty_masks():
    ds = random_dataset(30, 6, seed=12)
    codes = match_codes(ds.X, resolve_rules([AbsoluteThreshold(0.5)] * 6, ds), ds.X)
    lazy = lazy_cohort_game(ds, "cs", 4, codes[4])
    seen = []

    def recording(masks):
        seen.append(masks.copy())
        return lazy.values(masks)

    game = games.Game(ds.d, "cs", 4, evaluate=recording)
    oracle = cohort_values(codes[4:5], ds.y, np.arange(64), False)[0]
    oracle[0] = 0.0
    rng = np.random.default_rng(3)
    for shape in ((40,), (5, 7), (3, 2, 4)):
        masks = rng.integers(0, 64, size=shape)
        got = game.values(masks)
        assert got.shape == shape
        assert np.array_equal(got, oracle[masks])
        # every nonempty mask of the call, repeats included, and nothing else
        assert np.array_equal(seen[-1], masks[masks != 0])
    assert len(seen) == 3
    assert game.values([]).shape == (0,)


def test_cs_needs_predictions(t8):
    bare = t8.__class__(schema=t8.schema, X=t8.X)
    with pytest.raises(DatasetError):
        make_game("cs", bare, 0, IDENT3)


def test_table_game_guards():
    with pytest.raises(ValueError, match="power of two"):
        TableGame(np.zeros(3), "cube")
    with pytest.raises(ValueError, match="at least one"):
        TableGame(np.zeros(1), "cube")
    g = TableGame(np.array([5.0, 1.0]), "cube")
    assert g.value(0) == 0.0  # entry 0 forced to zero


def test_values_reject_masks_outside_the_lattice(t8_games, monkeypatch):
    ds, t = t8_games
    lazy = random_dataset(30, 22, seed=79, n_binary=22)
    monkeypatch.setattr(games, "predict", lambda *a: pytest.fail("model called"))
    cases = [
        (make_game("cs", ds, t, IDENT3), 3),
        (make_game("cs", lazy, 3, [Identity()] * 22), 22),
        (make_game("bs", ds, t, model=LINEAR), 3),
    ]
    for game, d in cases:
        for masks, bad in ([-1], -1), ([3, 1 << d, 1], 1 << d), ([[1, 2], [-5, 0]], -5):
            with pytest.raises(SimilarityError, match=f"mask {bad} outside the d={d}"):
                game.values(masks)
        # a float is rejected, never truncated to the mask below it
        floats = ([1.7, 2.9], "1.7"), ([[1.0], [2.5]], "1.0"), ([np.nan], "nan")
        for masks, bad in floats:
            with pytest.raises(SimilarityError, match=f"mask {bad} is not an integer"):
                game.values(masks)
        with pytest.raises(SimilarityError, match="mask 1.5 is not an integer"):
            game.value(1.5)
        assert game.values([]).shape == (0,)


def test_empty_set_scores_zero_without_reaching_a_model(monkeypatch):
    # at d >= 8 BLAS row grouping moves the last bits of a model's
    # predictions, so the empty set's exact 0 must not come from one
    ds = random_dataset(40, 10, seed=81)
    model = LinearModel(tuple(np.linspace(-1.0, 1.0, 10)), 0.25)
    sweep, sent = games.baseline_sweep, []

    def recording(model, baselines, method, X, masks, *args):
        sent.append(np.array(masks))
        return sweep(model, baselines, method, X, masks, *args)

    monkeypatch.setattr(games, "baseline_sweep", recording)
    masks = [0, 5, 0, 1023]
    for method in ("bs", "abs"):
        values = make_game(method, ds, 3, model=model).values(masks)
        assert values[0] == 0.0 and values[2] == 0.0
    assert len(sent) == 2 and all(np.array_equal(m, [5, 1023]) for m in sent)
    lazy = random_dataset(30, 22, seed=82, n_binary=22)
    values = make_game("cs", lazy, 4, [Identity()] * 22).values(masks)
    assert values[0] == 0.0 and values[2] == 0.0


def test_local_attributions_reject_methods_without_a_game(t8):
    for method in ("var", "nope"):
        with pytest.raises(DatasetError, match="has no per-target game"):
            local_attributions(t8, method, [1, 2], model=LINEAR)


def test_lazy_cohort_game_above_table_cap():
    # d beyond the dense-table cap exercises the pattern-filter path; the
    # values must agree with a thin replica of the definition
    ds = random_dataset(40, 21, seed=77, n_binary=21)
    rules = [Identity()] * 21
    g = make_game("cs", ds, 5, rules)
    assert g._table is None
    grand = ds.y.mean()
    for u in ([], [0], [3, 17], list(range(21))):
        sel = np.ones(ds.n, dtype=bool)
        for j in u:
            sel &= ds.X[:, j] == ds.X[5, j]
        expected = 0.0 if not u else ds.y[sel].mean() - grand
        assert g.value(u) == pytest.approx(expected, abs=1e-12)
    att = shapley_permutation(g, 8, seed=1)
    assert att.phi.sum() == pytest.approx(att.total, abs=1e-10)


def test_lazy_var_game_above_table_cap():
    ds = random_dataset(25, 21, seed=78, n_binary=21)
    rules = [Identity()] * 21
    g = ReferenceVarGame(ds, rules)
    grand = ds.y.mean()
    u = [2, 9]
    acc = 0.0
    for t in range(ds.n):
        sel = np.ones(ds.n, dtype=bool)
        for j in u:
            sel &= ds.X[:, j] == ds.X[t, j]
        acc += (ds.y[sel].mean() - grand) ** 2
    assert g.value(u) == pytest.approx(acc / ds.n, abs=1e-12)
    assert g.value([]) == 0.0
    # the library's lazy var game reads the same values along the orders
    want = shapley_permutation(g, 8, seed=1)
    got = variance_shapley(ds, rules, "mc", 8, 1)
    assert got.total == pytest.approx(want.total, abs=1e-12)
    assert got.phi == pytest.approx(want.phi, abs=1e-12)
    assert got.stderr == pytest.approx(want.stderr, abs=1e-12)


def test_lazy_constant_column_adds_exact_zero_first():
    # every subject is close on column 5, so an order that starts with it
    # reaches the cohort of all subjects, which scores exactly 0
    for seed in range(3):
        ds = random_dataset(300, 22, seed=seed)
        X = ds.X.copy()
        X[:, 5] = 1.5
        ds = attach_predictions(Dataset(schema=ds.schema, X=X), ds.y)
        game = make_game("cs", ds, 7, [AbsoluteThreshold(1.0)] * 22)
        perms, masks = permutation_masks(22, 200, seed)
        first = masks[perms[:, 0] == 5, 1]
        assert len(first) and not game.values(first).any()


def test_linear_mean_baseline_bs_equals_cs_total():
    # linear model, mean baseline: f(x_b) = grand mean, so BS and CS totals
    # agree whenever the full cohort is the singleton {t}
    ds = random_dataset(80, 4, seed=33)
    rng = np.random.default_rng(1)
    model = LinearModel(tuple(rng.normal(size=4)), -0.3)
    from cohortshap import AbsoluteThreshold, predict

    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [AbsoluteThreshold(0.05)] * 4
    checked = 0
    for t in range(ds.n):
        codes = similarity_row(rules, ds, t)
        cs = make_game("cs", ds, t, rules)
        if codes.max() == 15 and (codes == 15).sum() == 1:
            bs = make_game("bs", ds, t, model=model, baseline="mean")
            assert bs.total == pytest.approx(cs.total, rel=1e-10)
            checked += 1
    assert checked > 10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.sampled_from(
            [
                Identity(),
                AbsoluteThreshold(0.0),
                AbsoluteThreshold(0.5),
                RelativeThreshold(0.5),
            ]
        ),
        min_size=8,
    ),
)
def test_dense_and_lazy_cohort_games_agree(d, n, seed, rule_pool):
    # a coarse grid gives ties and zero levels (where a relative threshold
    # admits only exact zeros); the last column is constant
    rng = np.random.default_rng(seed)
    X = rng.integers(-2, 3, size=(n, d)) * 0.5
    X[:, -1] = 0.5
    schema = tuple(ColumnSchema(f"c{j}", "numeric") for j in range(d))
    ds = attach_predictions(Dataset(schema=schema, X=X), rng.normal(size=n))
    rules = rule_pool[:d]
    resolved = resolve_rules(rules, ds)
    codes = match_codes(ds.X, resolved, ds.X)
    masks = np.arange(1 << d)
    for squared in (False, True):
        np.testing.assert_allclose(
            cohort_values(codes, ds.y, masks, squared),
            cohort_value_tables(codes, ds.y, d, squared).T,
            rtol=1e-12,
            atol=1e-12,
        )
    for method in COHORT_METHODS:
        t = int(rng.integers(n))
        dense = make_game(method, ds, t, rules)
        lazy = lazy_cohort_game(ds, method, t, codes[t])
        assert lazy.values(masks) == pytest.approx(dense.value_table(), abs=1e-12)
    # the var game's subject mean, by the sweep's dense tables and, with the
    # table cap lowered below d, by its lazy kernel
    dense_var = ReferenceVarGame(ds, rules).value_table()
    for cap in (games.EXACT_CAP, 0):
        with mock.patch.object(games, "EXACT_CAP", cap):
            chunks = games.cohort_value_chunks(ds, resolved, range(n), masks[1:], True)
            var = sum(chunk.sum(axis=1) for _, chunk in chunks) / n
        assert var == pytest.approx(dense_var, abs=1e-12)


SWEEP_COEF = (0.75, -1.5, 2.0, 0.125)
# one to five targets, with a repeated one
TARGET_SETS = ([5], [0, 3], [2, 2, 7], [1, 4, 9, 2], [0, 1, 2, 3, 4])
PERMS, SEED = 5, 9


def _sweep_points(ds, method, targets, masks):
    """The points a command's sweep must send, in order: the k baseline rows
    once, then for each target, each mask and each baseline row the hybrid
    taking the target on the mask's features."""
    baselines = ds.X if method.startswith("abs") else ds.X.mean(axis=0)[None]
    rows = list(baselines)
    for t in targets:
        for u in masks:
            for b in baselines:
                rows.append([ds.X[t, j] if u >> j & 1 else b[j] for j in range(ds.d)])
    return np.array(rows)


def _chunks(k, n_masks):
    """Call sizes in points: one that splits inside a target, one that also
    splits inside a mask's k points (for k > 1), and one below a mask's k
    points (for k > 1; one point for k = 1)."""
    return (k * (n_masks // 2 + 1), k * 2 + k // 2 + 1, max(1, k // 2))


def _assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.method, a.target, a.permutations_used) == (
            b.method, b.target, b.permutations_used)
        assert np.array_equal(a.phi, b.phi) and a.total == b.total
        assert (a.stderr is None) == (b.stderr is None)
        assert a.stderr is None or np.array_equal(a.stderr, b.stderr)


def _grid_dataset(n, d, seed):
    """Values on a grid of halves. With n a power of two (for the mean
    baseline) and the dyadic SWEEP_COEF every inline prediction is exact, so
    it does not depend on how BLAS groups the rows of a call; the
    external-model test below covers inexact arithmetic."""
    rng = np.random.default_rng(seed)
    X = rng.integers(-4, 5, size=(n, d)) * 0.5
    schema = tuple(ColumnSchema(f"c{j}", "numeric") for j in range(d))
    return attach_predictions(Dataset(schema=schema, X=X), rng.normal(size=n))


@pytest.mark.parametrize("engine", ["exact", "mc"])
@pytest.mark.parametrize("method", MODEL_METHODS)
def test_baseline_sweep_equals_per_target_games(monkeypatch, method, engine):
    ds = _grid_dataset(16, 4, seed=21)
    model = LinearModel(SWEEP_COEF, 0.25)
    k = ds.n if method.startswith("abs") else 1
    masks = chosen_masks(ds.d, engine, PERMS, SEED)
    for targets in TARGET_SETS:
        want = [
            reference_shapley(make_game(method, ds, t, model=model), engine, PERMS, SEED)
            for t in targets
        ]
        stream = _sweep_points(ds, method, targets, masks)
        for chunk in _chunks(k, len(masks)):
            sent = []

            def recording(model, points, sent=sent):
                sent.append(np.array(points))
                return predict(model, points)

            with monkeypatch.context() as patch:
                patch.setattr(games, "predict", recording)
                patch.setattr(games, "POINT_CHUNK", chunk * ds.d)
                got = local_attributions(
                    ds, method, targets, model=model, engine=engine,
                    permutations=PERMS, seed=SEED,
                )
            _assert_same(got, want)
            assert len(sent) == math.ceil(stream.size / (chunk * ds.d))
            assert np.array_equal(np.concatenate(sent), stream)


@pytest.mark.parametrize("engine", ["exact", "mc"])
@pytest.mark.parametrize("method", MODEL_METHODS)
def test_baseline_sweep_with_an_external_model(tmp_path, monkeypatch, method, engine):
    ds = random_dataset(10, 4, seed=22)
    logged = LoggingModel(tmp_path, SWEEP_COEF)
    targets = [2, 2, 7]
    k = ds.n if method.startswith("abs") else 1
    masks = chosen_masks(ds.d, engine, PERMS, SEED)
    chunk = k * (len(masks) // 2 + 1) + k // 2
    stream = _sweep_points(ds, method, targets, masks)
    with monkeypatch.context() as patch:
        patch.setattr(games, "POINT_CHUNK", chunk * ds.d)
        got = local_attributions(
            ds, method, targets, model=logged.model, engine=engine,
            permutations=PERMS, seed=SEED,
        )
    # the baseline rows went once, in the first call, ahead of every hybrid
    assert "".join(logged.received()) == points_csv(stream)
    assert logged.spawns == math.ceil(stream.size / (chunk * ds.d))
    want = [
        reference_shapley(make_game(method, ds, t, model=logged.model), engine, PERMS, SEED)
        for t in targets
    ]
    _assert_same(got, want)


@pytest.mark.parametrize("engine", ["exact", "mc"])
@pytest.mark.parametrize("method", MODEL_METHODS)
@pytest.mark.parametrize("d", range(1, 6))
def test_baseline_games_match_a_naive_oracle(d, method, engine):
    ds = _grid_dataset(7, d, seed=40 + d)
    rng = np.random.default_rng(40 + d)
    coef, intercept = rng.normal(size=d).tolist(), float(rng.normal())
    logistic = d % 2 == 0
    model = (LogisticModel if logistic else LinearModel)(tuple(coef), intercept)

    def f(x):
        eta = intercept + sum(c * v for c, v in zip(coef, x))
        return 1.0 / (1.0 + math.exp(-eta)) if logistic else eta

    rows = ds.X.tolist()
    if method.startswith("abs"):
        baselines = rows
    else:
        baselines = [[sum(column) / ds.n for column in zip(*rows)]]
    squared = method.endswith("2")
    targets = [4, 0, 4]
    got = local_attributions(
        ds, method, targets, model=model, engine=engine, permutations=PERMS, seed=SEED
    )
    for t, att in zip(targets, got, strict=True):
        table = [
            naive_baseline_value(f, rows[t], baselines, u, squared)
            for u in range(1 << d)
        ]
        dense = make_game(method, ds, t, model=model).value_table()
        np.testing.assert_allclose(dense, table, rtol=0, atol=1e-12)
        want = shapley_engine(TableGame(table, method, t), engine, PERMS, SEED)
        np.testing.assert_allclose(att.phi, want.phi, rtol=0, atol=1e-12)
        assert att.total == pytest.approx(want.total, rel=0, abs=1e-12)
    if engine == "mc":
        return
    rules = [AbsoluteThreshold(0.5)] * d
    splits = realism_splits(ds, targets, "mean", model, rules, method)
    for t, split in zip(targets, splits, strict=True):
        phi_r, phi_u = naive_realism_split(
            f, rows[t], baselines, squared, lambda point: is_realistic(point, ds, rules)
        )
        np.testing.assert_allclose(split.phi_realistic, phi_r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(split.phi_unrealistic, phi_u, rtol=0, atol=1e-12)


def test_failure_mid_sweep_raises(tmp_path, monkeypatch):
    ds = random_dataset(10, 4, seed=23)
    logged = LoggingModel(tmp_path, SWEEP_COEF, fail=1)
    monkeypatch.setattr(games, "POINT_CHUNK", 20 * ds.d)
    with pytest.raises(ModelError, match="exited 3"):
        local_attributions(ds, "bs", [1, 5, 8], model=logged.model)
    assert logged.spawns == 2
