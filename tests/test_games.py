import math
import re
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
    aggregate,
    attach_predictions,
    games,
    is_realistic,
    local_attributions,
    make_cs_game,
    predict,
    realism_splits,
    resolve_rules,
    shapley_exact,
    shapley_permutation,
    similarity,
    similarity_row,
    variance_shapley,
)
from cohortshap.games import COHORT_METHODS, MODEL_METHODS
from cohortshap.shapley import permutation_masks
from cohortshap.similarity import (
    cohort_table_chunks,
    cohort_value_tables,
    cohort_values,
    match_codes,
)

from .conftest import random_dataset, t8_target
from .helpers import (
    LoggingModel,
    ReferenceVarGame,
    baseline_game,
    chosen_masks,
    lazy_cohort_game,
    naive_baseline_value,
    naive_realism_split,
    points_csv,
    reference_shapley,
    table_game,
)

LINEAR = LinearModel((2.0, 1.0, 0.0), 0.0)
IDENT3 = [Identity()] * 3


@pytest.fixture
def t8_games(t8):
    return t8, t8_target(t8)


def cohort_table(ds, method, t, rules):
    """Target t's 2^d cohort values of ``method``, as the chunk source
    yields them to a sweep of that one target."""
    resolved = resolve_rules(rules, ds)
    ((_, chunk),) = cohort_table_chunks(ds, resolved, [t], None, method == "cs2")
    return chunk[:, 0]


def baseline_table(ds, method, t, model, baseline="mean"):
    """Target t's 2^d baseline values of ``method`` from a one-target sweep."""
    return baseline_game(ds, method, t, model, baseline).value_table()


def test_cs_values(t8_games):
    ds, t = t8_games
    g = cohort_table(ds, "cs", t, IDENT3)
    assert g[0] == 0.0
    assert g[0b001] == pytest.approx(1.0)
    assert g[0b010] == pytest.approx(0.5)
    assert g[0b100] == pytest.approx(0.0)
    assert g[0b111] == pytest.approx(1.5)
    # singleton full cohort: total equals f(x_t) - grand mean
    assert g[-1] == pytest.approx(ds.y[t] - ds.y.mean())


def test_cs2_values(t8_games):
    ds, t = t8_games
    g = cohort_table(ds, "cs2", t, IDENT3)
    assert g[0] == 0.0
    assert g[0b001] == pytest.approx(1.0)
    assert g[0b011] == pytest.approx(2.25)
    assert g[0b100] == 0.0
    assert (g >= 0.0).all()


def test_bs_values(t8_games):
    ds, t = t8_games
    g = baseline_table(ds, "bs", t, LINEAR)
    assert g[0] == 0.0
    assert g[0b001] == pytest.approx(1.0)  # equals the CS value here
    assert g[-1] == pytest.approx(3.0 - 1.5)
    explicit = baseline_table(ds, "bs", t, LINEAR, baseline=[0.5, 0.5, 0.5])
    assert explicit[-1] == g[-1]


def test_bs2_values(t8_games):
    ds, t = t8_games
    g = baseline_table(ds, "bs2", t, LINEAR)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(2.25)
    bs = baseline_table(ds, "bs", t, LINEAR)
    assert g[-1] == pytest.approx(bs[-1] ** 2)


def test_abs_values(t8_games):
    ds, t = t8_games
    g = baseline_table(ds, "abs", t, LINEAR)
    assert g[0] == 0.0
    assert g[0b001] == pytest.approx(1.0)
    # decomposes the same total as CS: f(x_t) - grand mean
    assert g[-1] == pytest.approx(cohort_table(ds, "cs", t, IDENT3)[-1])


def test_abs2_values(t8_games):
    ds, t = t8_games
    g = baseline_table(ds, "abs2", t, LINEAR)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(3.5)
    assert g[-1] >= cohort_table(ds, "cs2", t, IDENT3)[-1]


def test_abs2_dominates_cs2_on_random_data():
    ds = random_dataset(50, 3, seed=21)
    rng = np.random.default_rng(0)
    model = LinearModel(tuple(rng.normal(size=3)), 0.5)
    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [AbsoluteThreshold(0.4)] * 3
    targets = [0, 17, 42]
    abs2 = local_attributions(ds, "abs2", targets, model=model)
    cs2 = local_attributions(ds, "cs2", targets, rules)
    for a, c in zip(abs2, cs2, strict=True):
        assert a.total >= c.total - 1e-12


def test_var_values(t8):
    g = ReferenceVarGame(t8, IDENT3)
    table = g.value_table()
    assert table[0] == 0.0
    assert table[0b111] == pytest.approx(1.25)
    assert table[0b001] == pytest.approx(1.0)
    # the library's var game is the same subject average, coalition by
    # coalition: its exact Shapley values and total are the reference's
    want = shapley_exact(g)
    got = variance_shapley(t8, IDENT3)
    assert got.method == "var" and got.target is None
    assert got.total == pytest.approx(want.total, abs=1e-12)
    assert got.phi == pytest.approx(want.phi, abs=1e-12)


def test_purity(t8_games):
    ds, t = t8_games
    for values in (
        lambda: cohort_table(ds, "cs", t, IDENT3),
        lambda: baseline_table(ds, "bs", t, LINEAR),
        lambda: baseline_table(ds, "abs", t, LINEAR),
    ):
        first = values()[0b101]
        again = values()[0b101]
        assert first == again  # bit-identical on repeat


def test_game_evaluates_the_requested_nonempty_masks(monkeypatch):
    # a game above the table cap scores the nonempty masks of each request
    ds = random_dataset(30, 6, seed=12)
    codes = match_codes(ds.X, resolve_rules([AbsoluteThreshold(0.5)] * 6, ds), ds.X)
    seen = []

    def recording(codes, y, masks, squared):
        seen.append(masks.copy())
        return cohort_values(codes, y, masks, squared)

    monkeypatch.setattr(games, "EXACT_CAP", 0)
    monkeypatch.setattr(games, "cohort_values", recording)
    game = make_cs_game(ds, codes[4], 4)
    assert game.value_table() is None
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
    assert game.values(np.zeros(0, dtype=np.int64)).shape == (0,)


def test_cs_needs_predictions(t8):
    bare = t8.__class__(schema=t8.schema, X=t8.X)
    with pytest.raises(DatasetError):
        local_attributions(bare, "cs", [0], IDENT3)


@pytest.mark.parametrize("bad", [1.5, "3", True, np.float64(2.0), None])
def test_targets_must_be_integers(t8, bad):
    # a float, a text or a bool is refused, never truncated or cast to a row
    for call in (
        lambda: local_attributions(t8, "cs", [bad], IDENT3),
        lambda: local_attributions(t8, "bs", [2, bad], model=LINEAR),
        lambda: list(realism_splits(t8, [bad], "mean", LINEAR, IDENT3, "bs")),
        lambda: similarity_row(IDENT3, t8, bad),
    ):
        with pytest.raises(DatasetError, match=re.escape(f"target {bad!r} is not")):
            call()
    # an integer of any integer type is a target
    (att,) = local_attributions(t8, "cs", [np.int32(7)], IDENT3)
    assert att.target == 7 and type(att.target) is int


def test_empty_set_scores_zero_without_reaching_a_model(monkeypatch):
    # at d >= 8 BLAS row grouping moves the last bits of a model's
    # predictions, so the empty set's exact 0 must not come from one
    ds = random_dataset(40, 10, seed=81)
    model = LinearModel(tuple(np.linspace(-1.0, 1.0, 10)), 0.25)
    sweep, contract, sent, rows = games.baseline_sweep, aggregate._contract, [], []

    def recording(model, baselines, method, X, masks, *args):
        sent.append(masks)
        return sweep(model, baselines, method, X, masks, *args)

    def first_rows(chunks, *args):
        chunks = list(chunks)
        rows.extend(chunk[0] for _, chunk in chunks)
        return contract(chunks, *args)

    monkeypatch.setattr(aggregate, "baseline_sweep", recording)
    monkeypatch.setattr(aggregate, "_contract", first_rows)
    for method in ("bs", "abs"):
        local_attributions(ds, method, [3, 8], model=model)
        local_attributions(ds, method, [3], model=model, engine="mc", permutations=4)
    # every nonempty set (None) or the draw's nonempty masks, never the empty set
    assert len(sent) == 4 and sent[0] is None and sent[2] is None
    assert all(0 not in masks for masks in sent[1::2])
    lazy = random_dataset(30, 22, seed=82, n_binary=22)
    local_attributions(lazy, "cs", [4], [Identity()] * 22, engine="mc", permutations=4)
    assert len(rows) == 7 and all(np.array_equal(row, np.zeros(len(row))) for row in rows)
    game = make_cs_game(lazy, similarity_row([Identity()] * 22, lazy, 4), 4)
    values = game.values(np.array([0, 5, 0, 1023]))
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
    g = make_cs_game(ds, similarity_row(rules, ds, 5), 5)
    assert g._table is None
    grand = ds.y.mean()
    for u in ([], [0], [3, 17], list(range(21))):
        sel = np.ones(ds.n, dtype=bool)
        for j in u:
            sel &= ds.X[:, j] == ds.X[5, j]
        expected = 0.0 if not u else ds.y[sel].mean() - grand
        value = g.values(np.array([sum(1 << j for j in u)]))[0]
        assert value == pytest.approx(expected, abs=1e-12)
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
    table = g.value_table()
    assert table[1 << 2 | 1 << 9] == pytest.approx(acc / ds.n, abs=1e-12)
    assert table[0] == 0.0
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
        resolved = resolve_rules([AbsoluteThreshold(1.0)] * 22, ds)
        perms, masks = permutation_masks(22, 200, seed)
        first = np.unique(masks[perms[:, 0] == 5, 1])
        ((_, chunk),) = cohort_table_chunks(ds, resolved, [7], first, False)
        assert len(first) and not chunk.any()


def test_linear_mean_baseline_bs_equals_cs_total():
    # linear model, mean baseline: f(x_b) = grand mean, so BS and CS totals
    # agree whenever the full cohort is the singleton {t}
    ds = random_dataset(80, 4, seed=33)
    rng = np.random.default_rng(1)
    model = LinearModel(tuple(rng.normal(size=4)), -0.3)
    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [AbsoluteThreshold(0.05)] * 4
    codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X)
    singletons = [t for t in range(ds.n) if (codes[t] == 15).sum() == 1]
    assert len(singletons) > 10
    cs = local_attributions(ds, "cs", singletons, rules)
    bs = local_attributions(ds, "bs", singletons, model=model, baseline="mean")
    for a, b in zip(bs, cs, strict=True):
        assert a.total == pytest.approx(b.total, rel=1e-10)


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
        dense = cohort_value_tables(similarity_row(rules, ds, t), ds.y, d, method == "cs2")
        lazy = lazy_cohort_game(ds, method, t, codes[t])
        assert lazy.values(masks) == pytest.approx(dense, abs=1e-12)
    # the var game's subject mean, by the sweep's dense tables and, with the
    # table cap lowered below d, by its lazy kernel
    dense_var = ReferenceVarGame(ds, rules).value_table()
    for cap in (games.EXACT_CAP, 0):
        with mock.patch.object(similarity, "EXACT_CAP", cap):
            chunks = cohort_table_chunks(ds, resolved, range(n), masks[1:], True)
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
            reference_shapley(baseline_game(ds, method, t, model), engine, PERMS, SEED)
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
        reference_shapley(baseline_game(ds, method, t, logged.model), engine, PERMS, SEED)
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
        dense = baseline_table(ds, method, t, model)
        np.testing.assert_allclose(dense, table, rtol=0, atol=1e-12)
        game = table_game(table, method, t)
        want = shapley_exact(game) if engine == "exact" else shapley_permutation(game, PERMS, SEED)
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
