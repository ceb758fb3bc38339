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
    RelativeThreshold,
    attach_predictions,
    make_game,
    make_var_game,
    resolve_rules,
    similarity_row,
)
from cohortshap.games import COHORT_METHODS, TableGame, _LazyCohortGame
from cohortshap.similarity import cohort_value_tables, cohort_values, match_codes

from .conftest import random_dataset, t8_target

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
    g = make_var_game(t8, IDENT3)
    assert g.value([]) == 0.0
    assert g.value([0, 1, 2]) == pytest.approx(1.25)
    assert g.value([0]) == pytest.approx(1.0)
    # subject-average of squared cohort games, coalition by coalition
    per_target = np.zeros(8)
    for t in range(t8.n):
        per_target += make_game("cs2", t8, t, IDENT3).value_table()
    assert g.value_table() == pytest.approx(per_target / t8.n, abs=1e-12)


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


def test_memo_evaluates_each_mask_once():
    ds = random_dataset(30, 6, seed=12)
    codes = match_codes(ds.X, resolve_rules([AbsoluteThreshold(0.5)] * 6, ds), ds.X)
    game = _LazyCohortGame(ds, "cs", 4, codes[4], None)
    seen = []
    evaluate = game._evaluate_many

    def recording(masks):
        seen.append(masks.copy())
        return evaluate(masks)

    game._evaluate_many = recording
    oracle = cohort_values(codes[4:5], ds.y, np.arange(64), False)[0]
    oracle[0] = 0.0
    rng = np.random.default_rng(3)
    requested = set()
    for shape in ((40,), (5, 7), (3, 2, 4)):
        masks = rng.integers(0, 64, size=shape)
        got = game.values(masks)
        assert got.shape == shape
        assert np.array_equal(got, oracle[masks])
        requested.update(masks.ravel().tolist())
    evaluated = np.concatenate(seen)
    assert len(np.unique(evaluated)) == len(evaluated)  # none twice, across calls
    assert set(evaluated.tolist()) == requested - {0}
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


def test_lazy_cohort_game_above_table_cap():
    # d beyond the dense-table cap exercises the pattern-filter path; the
    # values must agree with a thin replica of the definition
    from cohortshap import shapley_permutation

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
    g = make_var_game(ds, [Identity()] * 21)
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
            cohort_value_tables(codes, ds.y, d, squared),
            rtol=1e-12,
            atol=1e-12,
        )
    for method in COHORT_METHODS:
        t = int(rng.integers(n))
        dense = make_game(method, ds, t, rules)
        lazy = _LazyCohortGame(ds, method, t, codes[t], None)
        assert lazy.values(masks) == pytest.approx(dense.value_table(), abs=1e-12)
    lazy_var = _LazyCohortGame(ds, "var", None, None, resolved)
    dense_var = make_var_game(ds, rules).value_table()
    assert lazy_var.values(masks) == pytest.approx(dense_var, abs=1e-12)
