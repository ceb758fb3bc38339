import tracemalloc

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
    local_attributions,
    resolve_rules,
    scale_rules,
    similarity_row,
)
from cohortshap import games, similarity
from cohortshap.aggregate import global_attribution
from cohortshap.similarity import (
    cohort_value_tables,
    code_dtype,
    count_dtype,
    cohort_values,
    match_code_chunks,
    match_codes,
    subset_int,
)

from .conftest import random_dataset, t8_target
from .helpers import (
    chosen_masks,
    cohort,
    dense,
    int64_count_tables,
    naive_cohort_members,
    scalar_match_codes,
)


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


@pytest.mark.parametrize("rule", [AbsoluteThreshold, RelativeThreshold, RangeFraction])
def test_nan_threshold_refused_when_built(rule):
    # nan < 0 is False, so a sign test alone would let a NaN threshold through
    with pytest.raises(SimilarityError, match="nan"):
        rule(float("nan"))


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


# every resolved rule type, with two thresholds for each type that has one,
# so that a stacked group mixes thresholds
MIXED_RULES = [
    Identity(),
    AbsoluteThreshold(0.5),
    RelativeThreshold(0.5),
    AbsoluteThreshold(1.0),
    RelativeThreshold(0.25),
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 7, 8, 15, 16, 31, 32, 33, 63]),
    st.integers(1, 9),
    st.integers(1, 7),
    st.sampled_from([1, 2, 3, None]),
    st.integers(0, 2**32 - 1),
)
def test_match_codes_row_blocks_equal_per_point_codes(d, n, m, per_block, seed):
    # d on both sides of each code width's edge; rule types interleaved,
    # identity first and last; blocks of one point, ragged blocks of two or
    # three, or one block; a half grid gives ties, zeros and gaps equal to
    # a threshold
    rng = np.random.default_rng(seed)
    resolved = [MIXED_RULES[k] for k in rng.integers(len(MIXED_RULES), size=d)]
    if d >= 3:
        resolved[1] = RelativeThreshold(0.5)
    resolved[0] = resolved[-1] = Identity()
    grid = rng.integers(-3, 4, size=(n + m, d)) * 0.5
    values = np.where(rng.random(grid.shape) < 0.8, grid, rng.normal(size=grid.shape))
    X, points = values[:n], values[n:]
    want = scalar_match_codes(X, resolved, points)
    with pytest.MonkeyPatch.context() as mp:
        if per_block is not None:
            mp.setattr(similarity, "MASK_BLOCK_BYTES", 8 * n * d * per_block + 7)
        got = match_codes(X, resolved, points)
        assert got.dtype == code_dtype(d)
        assert np.array_equal(got.astype(np.int64), want)
        # a reused buffer is overwritten whole
        out = np.full((m, n), -1, dtype=code_dtype(d))
        assert match_codes(X, resolved, points, out=out) is out
        assert np.array_equal(out.astype(np.int64), want)


def test_code_dtype_is_the_narrowest_signed_type():
    widths = {d: code_dtype(d) for d in (1, 7, 8, 15, 16, 31, 32, 63)}
    assert widths == {
        1: np.int8,
        7: np.int8,
        8: np.int16,
        15: np.int16,
        16: np.int32,
        31: np.int32,
        32: np.int64,
        63: np.int64,
    }


def test_count_dtype_holds_every_count_up_to_n():
    widths = {n: count_dtype(n) for n in (1, 255, 256, 32767, 32768, 1 << 31)}
    assert widths == {
        1: np.uint8,
        255: np.uint8,
        256: np.int16,
        32767: np.int16,
        32768: np.int32,
        1 << 31: np.int32,
    }


@pytest.mark.parametrize(
    "n, targets", [(255, 1), (255, 2), (256, 1), (256, 2), (32767, 1), (32768, 1)]
)
@pytest.mark.parametrize("squared", [False, True])
def test_narrow_count_tables_equal_int64_count_tables(n, targets, squared):
    # n on both sides of the uint8 and int16 edges of count_dtype: the empty
    # set's count is n in every table, and with every subject close on every
    # feature so is every count
    d = 5
    rng = np.random.default_rng(n + targets)
    y = rng.normal(size=n) + 3.0
    full = np.full((targets, n), (1 << d) - 1, dtype=code_dtype(d))
    drawn = rng.integers(0, 1 << d, size=(targets, n)).astype(code_dtype(d))
    for codes in (drawn, full):
        want = int64_count_tables(codes, y, d, squared)
        if targets == 1:
            got = cohort_value_tables(codes[0], y, d, squared)
            assert np.array_equal(got, want[:, 0])
        got = cohort_value_tables(codes, y, d, squared)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("d", [7, 8])
@pytest.mark.parametrize("squared", [False, True])
def test_narrow_code_tables_equal_int64_code_tables(d, squared):
    # 256 targets: code * 256 overflows an int8 code at d = 7 and an int16
    # one at d = 8, so the bin index must be widened before its multiply
    ds = random_dataset(40, d, seed=d)
    resolved = resolve_rules([AbsoluteThreshold(1.5)] * d, ds)
    codes = match_codes(ds.X, resolved, ds.X[np.arange(256) % ds.n])
    assert codes.dtype == code_dtype(d) and codes.max() >= 1 << (d - 1)
    got = cohort_value_tables(codes, ds.y, d, squared)
    want = cohort_value_tables(codes.astype(np.int64), ds.y, d, squared)
    assert np.array_equal(got, want)


def _swept(ds, rules):
    """The outputs of global's one sweep with per-subject rows: the var
    game's phi and total, and every subject's cs2 row."""
    direct, rows = global_attribution(ds, rules, per_subject=True)
    return direct.phi, direct.total, rows


@pytest.mark.parametrize("n,d", [(200, 4), (50, 10)])
def test_chunks_bound_codes_and_tables(monkeypatch, n, d):
    # a target's codes (8n bytes) outweigh its table (8 * 2^d bytes) at
    # (200, 4), and the table outweighs the codes at (50, 10)
    ds = random_dataset(n, d, seed=n + d)
    resolved = resolve_rules([AbsoluteThreshold(0.5)] * d, ds)
    targets = np.arange(n)
    want = _swept(ds, [AbsoluteThreshold(0.5)] * d)
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
        got = _swept(ds, [AbsoluteThreshold(0.5)] * d)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_sweep_tables_are_each_targets_table(d, count, seed, squared):
    # column b of a lattice-major chunk is bit for bit the 1-D table of its
    # target, and its last row that target's total
    ds = random_dataset(40, d, seed=seed % 997)
    rules = [AbsoluteThreshold(0.7)] * d
    resolved = resolve_rules(rules, ds)
    targets = np.random.default_rng(seed).choice(ds.n, size=count, replace=False)
    seen = 0
    for s, tables in similarity.cohort_table_chunks(ds, resolved, targets, squared):
        assert tables.shape[0] == 1 << d
        for b in range(tables.shape[1]):
            codes = match_codes(ds.X, resolved, ds.X[targets[s + b]])[0]
            alone = cohort_value_tables(codes, ds.y, d, squared)
            assert np.array_equal(tables[:, b], alone)
            seen += 1
    assert seen == count
    method = "cs2" if squared else "cs"
    totals = [att.total for att in local_attributions(ds, method, targets, rules)]
    codes = match_codes(ds.X, resolved, ds.X[targets])
    assert np.array_equal(totals, cohort_value_tables(codes, ds.y, d, squared)[-1])


def test_cohort_tables_peak_near_their_own_size():
    # the live tables peak at about 10.3 bytes a cell: uint8 counts (n = 40)
    # beside an int64 or a float64 table, and the three 8192-entry buffers
    # numpy's ufunc iterator allocates for a pass of the float superset sum
    # over runs of 40 or more (192 KB whatever the table size, 1.2 bytes a
    # cell here); subtracting the first lattice row as a broadcast view instead
    # of a copy made numpy copy the whole table
    d = 12
    ds = random_dataset(40, d, seed=4)
    codes = match_codes(ds.X, resolve_rules([AbsoluteThreshold(0.7)] * d, ds), ds.X)
    cells = len(codes) << d
    want = cohort_value_tables(codes, ds.y, d, True)
    tracemalloc.start()
    try:
        got = cohort_value_tables(codes, ds.y, d, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 11 * cells


def test_sweep_peak_stays_within_the_chunk_budget(monkeypatch):
    # a table chunk is charged everything it holds while it is built and
    # contracted, so the sweep's live set stays within CHUNK_BYTES besides
    # its outputs; charged its float table alone, a chunk held about three
    # times its budget: int32 counts beside bincount's int64 table, then the
    # float tables beside the contraction's half
    d, budget = 12, 1 << 20
    ds = random_dataset(120, d, seed=12)
    rules = [AbsoluteThreshold(0.7)] * d
    want = _swept(ds, rules)
    monkeypatch.setattr(similarity, "CHUNK_BYTES", budget)
    tracemalloc.start()
    try:
        got = _swept(ds, rules)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    # the outputs: the rows, and the var game's mean table, summed beside
    # the chunks
    assert peak < budget + got[2].nbytes + (8 << d)


def test_lazy_var_game_chunks_follow_the_budget(monkeypatch):
    ds = random_dataset(40, 22, seed=8)
    rules = [AbsoluteThreshold(0.8)] * 22
    want, _ = global_attribution(ds, rules, "mc", 50, 3)
    # a target is charged its values at the draw's masks, so three a chunk
    masks = chosen_masks(ds.d, "mc", 50, 3)
    monkeypatch.setattr(similarity, "CHUNK_BYTES", 8 * len(masks) * 3)  # 14 chunks
    chunks = []
    sweep = similarity.match_code_chunks

    def counting(*args):
        for chunk in sweep(*args):
            chunks.append(len(chunk[1]))
            yield chunk

    monkeypatch.setattr(games, "match_code_chunks", counting)
    got, _ = global_attribution(ds, rules, "mc", 50, 3)
    assert len(chunks) == 14
    for a, b in ((got.phi, want.phi), (got.stderr, want.stderr), (got.total, want.total)):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_cohort_tables_match_masks():
    ds = random_dataset(70, 4, seed=9)
    rules = [AbsoluteThreshold(0.6)] * 4
    row = similarity_row(rules, ds, 21)
    codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X[21])
    assert np.array_equal(codes[0], row)
    grand = ds.y.mean()
    for squared in (False, True):
        table = cohort_value_tables(codes, ds.y, 4, squared)[:, 0]
        lazy = cohort_values(codes, ds.y, np.arange(16), squared)[0]
        assert table[0] == lazy[0] == 0.0
        for u in range(1, 1 << 4):
            want = ds.y[cohort(row, u, 4)].mean() - grand
            want = want * want if squared else want
            assert table[u] == pytest.approx(want, rel=1e-12, abs=1e-14)
            assert lazy[u] == pytest.approx(want, rel=1e-12, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 63, 64, 65, 129]),
    st.integers(1, 63),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_cohort_values_match_a_plain_reference(n, d, rows, seed, squared):
    # n on both sides of the 64-subject word edges, d up to 63 (masks with
    # bit 62), and mask 0 and the full mask among random ones
    rng = np.random.default_rng(seed)
    full = np.int64((1 << d) - 1)
    # each subject misses a feature with a small chance, so that cohorts of
    # many features keep members
    close = rng.random((rows, n, d)) >= rng.uniform(0.0, 0.3)
    codes = np.where(close, np.int64(1) << np.arange(d), 0).sum(axis=-1)
    # every row's target is close to itself, so no cohort is empty
    codes[np.arange(rows), rng.integers(n, size=rows)] = full
    y = rng.normal(size=n)
    drawn = rng.random((int(rng.integers(1, 40)), d)) < rng.uniform(0.0, 1.0)
    masks = np.concatenate(
        [[0, full, np.int64(1) << (d - 1)], (drawn << np.arange(d)).sum(axis=-1)]
    )
    got = cohort_values(codes, y, masks, squared)
    # the narrow codes match_codes writes read the same
    narrow = codes.astype(code_dtype(d))
    assert np.array_equal(cohort_values(narrow, y, masks, squared), got)
    want = np.zeros((rows, len(masks)))
    for r in range(rows):
        for k, u in enumerate(masks):
            v = y[(codes[r] & u) == u].mean() - y.mean()
            want[r, k] = (v * v if squared else v) if u else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 63, 300])
def test_all_subject_cohort_scores_exactly_zero(n):
    # every subject is close on every feature, so every cohort is all n
    # subjects; its mean, a product with y over n, may round off y.mean()
    codes = np.full((3, n), (1 << 22) - 1, dtype=np.int64)
    masks = np.arange(1 << 10) << 12
    for seed in range(5):
        y = np.random.default_rng([n, seed]).normal(size=n)
        for squared in (False, True):
            assert not cohort_values(codes, y, masks, squared).any()


def test_cohort_values_peak_is_blocked():
    # the float members of a block of rows and masks, and the subset tables
    # of a block of rows, stay within about MASK_BLOCK_BYTES however many
    # rows and masks a call scores; unblocked, the members of 256 rows x 8k
    # masks would take 256 x 8192 x n x 8 bytes
    rows, n, d = 256, 40, 22
    ds = random_dataset(n, d, seed=6)
    resolved = resolve_rules([AbsoluteThreshold(0.9)] * d, ds)
    codes = match_codes(ds.X, resolved, ds.X[np.arange(rows) % n])
    masks = np.sort(np.random.default_rng(2).choice(1 << d, size=8192, replace=False))
    want = cohort_values(codes[:1], ds.y, masks, False)
    tracemalloc.start()
    try:
        got = cohort_values(codes, ds.y, masks, False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[n], want[0])
    # the subset tables, the cohort words, one gather of them and the float
    # members of a block each take about MASK_BLOCK_BYTES
    assert peak < got.nbytes + 6 * similarity.MASK_BLOCK_BYTES


def test_subset_int():
    assert subset_int([0, 2], 3) == 0b101
    assert subset_int(0b11, 2) == 3
    with pytest.raises(SimilarityError):
        subset_int([3], 3)
    with pytest.raises(SimilarityError):
        subset_int(8, 3)
