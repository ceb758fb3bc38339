import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    AbsoluteThreshold,
    ColumnSchema,
    Dataset,
    Identity,
    RangeFraction,
    RelativeThreshold,
    SimilarityError,
    attach_predictions,
    resolve_rules,
    scale_rules,
    similarity_row,
)
from cohortshap import make_var_game, similarity
from cohortshap.games import cohort_value_sweep
from cohortshap.similarity import (
    cohort_value_tables,
    cohort_values,
    match_code_chunks,
    match_codes,
    subset_int,
)

from .conftest import random_dataset, t8_target
from .helpers import cohort, dense, naive_cohort_members


def test_rule_validation():
    with pytest.raises(SimilarityError):
        AbsoluteThreshold(-0.5)
    with pytest.raises(SimilarityError):
        RangeFraction(0.1, 0.9, 0.1)
    with pytest.raises(SimilarityError):
        RelativeThreshold(-1.0)
    assert scale_rules([AbsoluteThreshold(2.0), Identity()], 0.5) == [
        AbsoluteThreshold(1.0),
        Identity(),
    ]


def test_resolve_range_fraction():
    ds = Dataset(
        schema=(ColumnSchema("v", "numeric"),),
        X=np.linspace(0.0, 10.0, 21)[:, None],
    )
    (rule,) = resolve_rules([RangeFraction(0.1)], ds)
    assert rule == AbsoluteThreshold(1.0)
    (trimmed,) = resolve_rules([RangeFraction(0.1, 0.05, 0.95)], ds)
    assert trimmed.delta == pytest.approx(0.9)


def test_resolve_guards():
    ds = Dataset(
        schema=(ColumnSchema("c", "categorical"), ColumnSchema("b", "binary")),
        X=np.zeros((3, 2)),
    )
    with pytest.raises(SimilarityError, match="categorical"):
        resolve_rules([AbsoluteThreshold(1.0), Identity()], ds)
    with pytest.raises(SimilarityError, match="non-numeric"):
        resolve_rules([Identity(), RelativeThreshold(0.1)], ds)
    with pytest.raises(SimilarityError, match="3 rules"):
        resolve_rules([Identity(), Identity(), Identity()], ds)
    with pytest.raises(SimilarityError, match="non-numeric"):
        resolve_rules([Identity(), RangeFraction(0.1)], ds)
    with pytest.raises(SimilarityError, match="unresolved"):
        match_codes(ds.X, [Identity(), RangeFraction(0.1)], ds.X[0])


TIES = st.sampled_from([0.0, -0.0, 1.0, 1.2, 1.8, 3.0, -3.0, 5.0])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(TIES, st.floats(-1e6, 1e6)), min_size=1, max_size=12),
    delta=st.one_of(st.just(0.0), st.sampled_from([0.5, 5.0]), st.floats(0.0, 1e3)),
    pick=st.integers(0, 11),
)
def test_close_is_gap_within_radius(values, delta, pick):
    col = np.array(values)
    for rule in (Identity(), AbsoluteThreshold(delta), RelativeThreshold(delta)):
        # one centre, and every entry as a centre (the match_codes broadcast)
        for center in (col[pick % len(col)], col[:, None]):
            gap = np.abs(col - center)
            assert np.array_equal(rule.close(col, center), gap <= rule.radius(center))


def test_zero_threshold_equals_identity():
    ds = random_dataset(60, 3, seed=1)
    for t in (0, 13, 59):
        zi = similarity_row([Identity()] * 3, ds, t)
        za = similarity_row([AbsoluteThreshold(0.0)] * 3, ds, t)
        assert np.array_equal(dense(zi, 3), dense(za, 3))


def test_target_row_all_ones():
    ds = random_dataset(40, 4, seed=3)
    rules = [AbsoluteThreshold(0.2)] * 2 + [RelativeThreshold(0.1), Identity()]
    for t in (0, 17, 39):
        codes = similarity_row(rules, ds, t)
        assert codes.shape == (ds.n,) and codes.dtype == np.int64
        assert dense(codes, 4)[t].all()
        assert not codes.flags.writeable


def test_t8_cohort_counts(t8):
    t = t8_target(t8)
    codes = similarity_row([Identity()] * 3, t8, t)
    assert cohort(codes, [], 3).sum() == 8
    assert cohort(codes, [0], 3).sum() == 4
    assert cohort(codes, [0, 1], 3).sum() == 2
    assert cohort(codes, [0, 1, 2], 3).sum() == 1
    assert cohort(codes, 0b101, 3).sum() == 2


def test_t8_cohort_means(t8):
    t = t8_target(t8)
    codes = similarity_row([Identity()] * 3, t8, t)
    assert t8.y[cohort(codes, [0], 3)].mean() == pytest.approx(2.5)
    assert t8.y[cohort(codes, [], 3)].mean() == pytest.approx(1.5)
    assert t8.y[cohort(codes, [0, 1, 2], 3)].mean() == t8.y[t]


def test_refinement_associativity():
    ds = random_dataset(50, 4, seed=11)
    codes = similarity_row([AbsoluteThreshold(0.5)] * 4, ds, 7)
    for u in range(1 << 4):
        for j in range(4):
            left = cohort(codes, u, 4) & dense(codes, 4)[:, j]
            right = cohort(codes, u | (1 << j), 4)
            assert np.array_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 15), st.integers(0, 15))
def test_monotonicity_and_membership(seed, u, extra):
    ds = random_dataset(35, 4, seed=seed % 1000)
    t = seed % 35
    codes = similarity_row([AbsoluteThreshold(0.4)] * 4, ds, t)
    v = u | extra
    mu, mv = cohort(codes, u, 4), cohort(codes, v, 4)
    assert mv.sum() <= mu.sum()
    assert np.array_equal(mv & mu, mv)  # v-cohort inside u-cohort
    assert mu[t] and mv[t]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bit_level_oracle_against_row_loop(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(30, 3, seed=seed % 997, n_binary=1)
    t = int(rng.integers(0, 30))
    delta = float(rng.uniform(0.05, 1.0))
    rules = [Identity(), AbsoluteThreshold(delta), RelativeThreshold(0.3)]
    codes = similarity_row(rules, ds, t)
    fns = [
        lambda a, b: a == b,
        lambda a, b: abs(b - a) <= delta,
        lambda a, b: abs(b - a) <= 0.3 * abs(a),
    ]
    for u in range(8):
        feats = [j for j in range(3) if u >> j & 1]
        expected = naive_cohort_members(ds.X, ds.X[t], feats, fns)
        assert np.flatnonzero(cohort(codes, u, 3)).tolist() == expected


def test_duplicated_columns_swap_invariance():
    base = random_dataset(40, 2, seed=5)
    X = np.column_stack([base.X[:, 0], base.X[:, 0], base.X[:, 1]])
    schema = tuple(ColumnSchema(f"c{j}", "numeric") for j in range(3))
    ds = attach_predictions(Dataset(schema=schema, X=X), base.y)
    rules = [AbsoluteThreshold(0.3)] * 3
    codes = similarity_row(rules, ds, 11)
    for u in range(8):
        swapped = (u & 0b100) | ((u & 1) << 1) | ((u >> 1) & 1)
        assert cohort(codes, u, 3).sum() == cohort(codes, swapped, 3).sum()


def test_match_codes_row_blocks_equal_per_point_codes(monkeypatch):
    ds = random_dataset(37, 4, seed=6, n_binary=1)
    base = [Identity(), AbsoluteThreshold(0.3), RelativeThreshold(0.4), RangeFraction(0.2)]
    resolved = resolve_rules(base, ds)
    pts = np.vstack([ds.X, ds.X[:9] + 0.1, np.zeros((1, 4))])  # 47 points
    # 5 points per block: ten blocks, the last one ragged
    monkeypatch.setattr(similarity, "MASK_BLOCK_BYTES", 8 * 37 * 5 + 7)
    codes = match_codes(ds.X, resolved, pts)
    for p, point in enumerate(pts):
        want = np.zeros(ds.n, dtype=np.int64)
        for j, rule in enumerate(resolved):
            for i in range(ds.n):
                want[i] |= int(bool(rule.close(ds.X[i, j], point[j]))) << j
        assert np.array_equal(codes[p], want)


@pytest.mark.parametrize("n,d", [(200, 4), (50, 10)])
def test_chunks_bound_codes_and_tables(monkeypatch, n, d):
    # a target's codes (8n bytes) outweigh its table (8 * 2^d bytes) at
    # (200, 4), and the table outweighs the codes at (50, 10)
    ds = random_dataset(n, d, seed=n + d)
    resolved = resolve_rules([AbsoluteThreshold(0.5)] * d, ds)
    targets = np.arange(n)
    want = cohort_value_sweep(ds, resolved, squared=True, rows=True, mean=True)
    row = max(8 * n, 8 << d)
    for budget in (3 * row + 5, row - 1):  # three targets a chunk, then one
        monkeypatch.setattr(similarity, "CHUNK_BYTES", budget)
        chunks = 0
        for s, codes in match_code_chunks(ds, resolved, targets, 8 << d):
            assert len(codes) == 1 or len(codes) * row <= budget
            points = ds.X[s : s + len(codes)]
            assert np.array_equal(codes, match_codes(ds.X, resolved, points))
            chunks += 1
        assert chunks == -(-n // max(1, budget // row))
        got = cohort_value_sweep(ds, resolved, squared=True, rows=True, mean=True)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_lazy_var_game_chunks_follow_the_budget(monkeypatch):
    ds = random_dataset(40, 22, seed=8)
    rules = [AbsoluteThreshold(0.8)] * 22
    masks = np.random.default_rng(3).integers(0, 1 << 22, size=50)
    want = make_var_game(ds, rules).values(masks)
    monkeypatch.setattr(similarity, "CHUNK_BYTES", 8 * ds.n * 3)  # 14 chunks
    got = make_var_game(ds, rules).values(masks)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_cohort_tables_match_masks():
    ds = random_dataset(70, 4, seed=9)
    rules = [AbsoluteThreshold(0.6)] * 4
    row = similarity_row(rules, ds, 21)
    codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X[21])
    assert np.array_equal(codes[0], row)
    grand = ds.y.mean()
    for squared in (False, True):
        table = cohort_value_tables(codes, ds.y, 4, squared)[0]
        lazy = cohort_values(codes, ds.y, np.arange(16), squared)[0]
        assert table[0] == lazy[0] == 0.0
        for u in range(1, 1 << 4):
            want = ds.y[cohort(row, u, 4)].mean() - grand
            want = want * want if squared else want
            assert table[u] == pytest.approx(want, rel=1e-12, abs=1e-14)
            assert lazy[u] == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_subset_int():
    assert subset_int([0, 2], 3) == 0b101
    assert subset_int(0b11, 2) == 3
    with pytest.raises(SimilarityError):
        subset_int([3], 3)
    with pytest.raises(SimilarityError):
        subset_int(8, 3)
