import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    AbsoluteThreshold,
    Dataset,
    DatasetError,
    Identity,
    LinearModel,
    RangeFraction,
    RelativeThreshold,
    aggregate_squared_cs,
    attach_predictions,
    local_attributions,
    make_panel,
    resolve_rules,
    shapley_exact,
    shapley_permutation,
    variance_shapley,
    write_panel_csv,
)
from cohortshap import aggregate, games, shapley, similarity
from cohortshap.aggregate import global_attribution
from cohortshap.shapley import _phi_from_tables
from cohortshap.similarity import (
    CHUNK_BYTES,
    MAX_CHUNK_TARGETS,
    cohort_table_chunks,
    cohort_value_tables,
    match_codes,
)

from .conftest import random_dataset, t8_target
from .helpers import (
    ReferenceVarGame,
    baseline_game,
    chosen_masks,
    cohort_game,
    scatter_permutation,
    table_game,
)

IDENT3 = [Identity()] * 3


def _cs_rows(ds, rules, squared):
    """Exact cohort Shapley rows of every subject: (phi matrix, totals)."""
    atts = local_attributions(ds, "cs2" if squared else "cs", rules=rules)
    return np.array([att.phi for att in atts]), np.array([att.total for att in atts])


def _var_columns(monkeypatch):
    """The value columns that global_attribution contracts as the var game,
    one a call, recorded as they go."""
    seen = []
    contract = aggregate._contract

    def recording(chunks, d, draw, method, targets):
        if method == "var":
            chunks = list(chunks)
            seen.extend(chunk[:, 0].copy() for _, chunk in chunks)
        return contract(chunks, d, draw, method, targets)

    monkeypatch.setattr(aggregate, "_contract", recording)
    return seen


def test_t8_variance_shapley(t8):
    out = variance_shapley(t8, IDENT3)
    assert out.phi == pytest.approx([1.0, 0.25, 0.0], abs=1e-12)
    assert out.total == pytest.approx(1.25)


def test_constant_predictions_zero(t8):
    flat = attach_predictions(t8, np.full(8, 2.5))
    out = variance_shapley(flat, IDENT3)
    assert np.abs(out.phi).max() == 0.0


def test_t8_disaggregation(t8):
    agg = aggregate_squared_cs(t8, IDENT3)
    direct, rows = global_attribution(t8, IDENT3, per_subject=True)
    assert agg.phi == pytest.approx(direct.phi, abs=1e-12)
    t = t8_target(t8)
    assert rows[t] == pytest.approx([1.5, 0.75, 0.0], abs=1e-12)


def test_single_subject_all_zero():
    ds = random_dataset(1, 3, seed=0)
    _, rows = global_attribution(ds, [AbsoluteThreshold(0.5)] * 3, per_subject=True)
    assert np.abs(rows).max() == 0.0


def test_sweep_matches_per_target_games():
    ds = random_dataset(60, 4, seed=13, n_binary=1)
    rules = [Identity()] + [AbsoluteThreshold(0.5)] * 3
    phi, totals = _cs_rows(ds, rules, squared=False)
    phi2, _ = _cs_rows(ds, rules, squared=True)
    for t in (0, 7, 33, 59):
        att = shapley_exact(cohort_game(ds, "cs", t, rules))
        assert phi[t] == pytest.approx(att.phi, abs=1e-10)
        assert totals[t] == pytest.approx(att.total, abs=1e-12)
        att2 = shapley_exact(cohort_game(ds, "cs2", t, rules))
        assert phi2[t] == pytest.approx(att2.phi, abs=1e-10)


def test_dummy_features_get_exact_zeros_across_chunks():
    # column 1 is constant and every pair is close on column 3, so both are
    # dummies of every cohort game: each v(u + j) - v(u) is exactly 0, and so
    # is their Shapley value on every row of every chunk, not a rounding
    # residue of the contraction
    ds = random_dataset(300, 5, seed=17)
    assert ds.n > MAX_CHUNK_TARGETS
    X = ds.X.copy()
    X[:, 1] = 2.0
    ds = attach_predictions(Dataset(schema=ds.schema, X=X), ds.y)
    rules = [AbsoluteThreshold(0.5), Identity(), RelativeThreshold(0.3),
             AbsoluteThreshold(1e6), AbsoluteThreshold(0.4)]
    for method in ("cs", "cs2"):
        phi = np.array([a.phi for a in local_attributions(ds, method, rules=rules)])
        assert (phi[:, [1, 3]] == 0.0).all()
        assert (phi[:, [0, 2, 4]] != 0.0).any(axis=0).all()
    direct, rows = global_attribution(ds, rules, per_subject=True)
    assert (rows[:, [1, 3]] == 0.0).all()
    assert (direct.phi[[1, 3]] == 0.0).all()


@pytest.mark.parametrize("d", [4, 21])
def test_mc_cohort_panel_resolves_rules_once(monkeypatch, d):
    # the quantile ranges of RangeFraction rules are pinned once per call,
    # for the dense (d = 4) and the lazy (d = 21) games alike
    ds = random_dataset(30, d, seed=23)
    rules = [RangeFraction(0.3)] * d
    masks = chosen_masks(d, "mc", 20, 5)
    want = [scatter_permutation(cohort_game(ds, "cs", t, rules, masks), 20, 5) for t in range(30)]
    calls = []

    def counting(rules, ds):
        calls.append(1)
        return resolve_rules(rules, ds)

    # games binds no resolve_rules of its own today; one bound there later
    # would be counted too
    for module in (aggregate, games, similarity):
        monkeypatch.setattr(module, "resolve_rules", counting, raising=False)
    got = local_attributions(ds, "cs", rules=rules, engine="mc", permutations=20, seed=5)
    assert len(calls) == 1
    assert [a.target for a in got] == list(range(30))
    for a, b in zip(got, want):
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.stderr, b.stderr)
        assert a.total == b.total


# bs stays below d = 8, where an inline model's product does not depend on
# how a call groups its rows (CHANGES.md, models.predict)
@pytest.mark.parametrize(
    "method, d", [("cs", 4), ("cs", 21), ("cs2", 4), ("cs2", 21), ("bs", 4)]
)
def test_mc_sweep_draws_the_orders_once(monkeypatch, method, d):
    # one draw serves every target, a repeated one included, and each
    # target's estimate is bit for bit that of its own game
    ds = random_dataset(30, d, seed=24)
    rules = [AbsoluteThreshold(0.8)] * d
    model = LinearModel(tuple(np.linspace(-1.0, 1.0, d)), 0.5)
    targets = [3, 17, 3, 29]
    masks = chosen_masks(d, "mc", 20, 5)
    want = [
        scatter_permutation(
            baseline_game(ds, method, t, model) if method == "bs"
            else cohort_game(ds, method, t, rules, masks),
            20, 5,
        )
        for t in targets
    ]
    # an earlier call may have left this draw in the memo
    shapley._draw.cache_clear()
    draws, draw = [], shapley._permutations

    def counting(d, m, seed):
        draws.append(m)
        return draw(d, m, seed)

    monkeypatch.setattr(shapley, "_permutations", counting)
    got = local_attributions(ds, method, targets, rules, model, engine="mc",
                             permutations=20, seed=5)
    assert draws == [20]
    assert [a.target for a in got] == targets
    for a, b in zip(got, want):
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.stderr, b.stderr)
        assert (a.total, a.method, a.permutations_used) == (b.total, b.method, 20)


@pytest.mark.parametrize(
    "d, engine",
    [(4, "exact"), (4, "mc"), (21, "mc")],
    ids=["d4-exact", "d4-mc", "d21-mc"],
)
@pytest.mark.parametrize("method", ["cs", "cs2", "bs", "bs2", "abs", "abs2"])
def test_local_attributions_build_no_game(monkeypatch, method, d, engine):
    # every method and engine reads value chunks: no per-target game
    ds = random_dataset(12, d, seed=26)
    rules = [AbsoluteThreshold(0.8)] * d
    model = LinearModel(tuple(np.linspace(-1.0, 1.0, d)), 0.5)

    def refuse(self, *args, **kwargs):
        raise AssertionError("local_attributions built a game")

    monkeypatch.setattr(games.Game, "__init__", refuse)
    targets = [3, 7, 3]
    got = local_attributions(ds, method, targets, rules, model, engine=engine,
                             permutations=10, seed=2)
    assert [a.target for a in got] == targets
    assert all(np.isfinite(a.phi).all() and a.method == method for a in got)


@pytest.mark.parametrize(
    "d, chunk_bytes, max_targets, size",
    [
        (4, 480, MAX_CHUNK_TARGETS, 2),
        # a row of coalition values takes more than 480 bytes at d = 21
        (21, 480, MAX_CHUNK_TARGETS, 1),
        (4, CHUNK_BYTES, 3, 3),
        (21, CHUNK_BYTES, 3, 3),
    ],
)
def test_chunked_mc_sweeps_equal_unchunked_ones(
    monkeypatch, d, chunk_bytes, max_targets, size
):
    # a target's values depend neither on which chunk carries it nor on the
    # targets beside it
    ds = random_dataset(30, d, seed=25)
    rules = [AbsoluteThreshold(0.8)] * d
    sweep = dict(rules=rules, engine="mc", permutations=20, seed=6)
    want = local_attributions(ds, "cs2", **sweep)
    chunks, value_chunks = [], aggregate.cohort_table_chunks

    def counting(*args):
        for chunk in value_chunks(*args):
            chunks.append(chunk[1].shape[1])
            yield chunk

    monkeypatch.setattr(aggregate, "cohort_table_chunks", counting)
    monkeypatch.setattr(similarity, "CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(similarity, "MAX_CHUNK_TARGETS", max_targets)
    got = local_attributions(ds, "cs2", **sweep)
    assert sum(chunks) == ds.n and max(chunks) == size
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.stderr, b.stderr)
        assert a.total == b.total


def _with_outliers(ds, huge: float):
    """``ds`` with subject 0 at +10 and subject 1 at -10 on every column,
    predicting +huge and -huge: under AbsoluteThreshold(0.8) rules only a
    subject's own cohorts hold it, so the grand mean stays small and only
    targets 0 and 1 have increments near ``huge``."""
    X, y = ds.X.copy(), ds.y.copy()
    X[0], X[1] = 10.0, -10.0
    y[0], y[1] = huge, -huge
    return attach_predictions(Dataset(schema=ds.schema, X=X), y)


# predictions whose increments (cs) or squared values (cs2) come near 1e200
# and 1e300: their squares in the standard error overflow
HUGE = {"cs": 1e200, "cs2": 1e150}


def _assert_blocks_equal_games(ds, method, targets, m, seed, per_block, chunk_targets,
                               one_target_chunks=False):
    """local_attributions under mc, with blocks of ``per_block`` targets and
    chunks of at most ``chunk_targets``, equals each target's own game bit
    for bit; returns its attributions."""
    rules = [AbsoluteThreshold(0.8)] * ds.d
    masks = chosen_masks(ds.d, "mc", m, seed)
    want = [
        scatter_permutation(cohort_game(ds, method, t, rules, masks), m, seed)
        for t in targets
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shapley, "MASK_BLOCK_BYTES", 8 * m * ds.d * per_block)
        mp.setattr(similarity, "MAX_CHUNK_TARGETS", chunk_targets)
        if one_target_chunks:
            mp.setattr(similarity, "CHUNK_BYTES", 8)
        got = local_attributions(ds, method, targets, rules, engine="mc",
                                 permutations=m, seed=seed)
    assert [a.target for a in got] == list(targets)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.stderr, b.stderr)
        assert (a.total, a.method, a.permutations_used) == (b.total, b.method, m)
    return got


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_estimates_equal_per_target_games(data):
    # each block of a chunk's targets is one estimate; every target's phi,
    # stderr and total must be bit for bit those of its own game, whatever
    # the chunk and the block that carry it and the targets beside it
    lazy = data.draw(st.booleans(), label="lazy")
    d = data.draw(st.integers(21, 22) if lazy else st.integers(2, 8), label="d")
    n = data.draw(st.integers(8, 14) if lazy else st.integers(6, 30), label="n")
    method = data.draw(st.sampled_from(["cs", "cs2"]), label="method")
    m = data.draw(st.sampled_from([2, 3, 4, 5, 10, 41]), label="m")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    ds = random_dataset(n, d, seed=seed)
    targets = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10),
                        label="targets")
    if data.draw(st.booleans(), label="outliers"):
        # target 0's increments are near the float limit, in a block with
        # ordinary targets
        ds = _with_outliers(ds, HUGE[method])
        targets = [0, *targets]
    _assert_blocks_equal_games(
        ds, method, targets, m, seed,
        per_block=data.draw(st.integers(1, 4), label="targets per block"),
        chunk_targets=data.draw(st.integers(1, 6), label="targets per chunk"),
        one_target_chunks=data.draw(st.booleans(), label="one-target chunks"),
    )


@pytest.mark.parametrize("d", [5, 21])
@pytest.mark.parametrize("method", ["cs", "cs2"])
def test_stderr_fallback_in_a_mixed_block(method, d):
    # target 0's raw standard errors overflow and take the scaled fallback
    # in the one block it shares with two ordinary targets
    ds = _with_outliers(random_dataset(12, d, seed=31), HUGE[method])
    got = _assert_blocks_equal_games(ds, method, [3, 0, 5], 10, 4, per_block=3,
                                     chunk_targets=3)
    assert np.isfinite(got[1].stderr).all() and got[1].stderr.max() > 1e140
    assert max(got[0].stderr.max(), got[2].stderr.max()) < 1e10


def test_mc_blocks_bound_memory():
    # 256 targets x 2000 orders at d = 14: unblocked, one target's samples
    # (2000 x 14 floats) times a chunk's targets would take tens of MB; in
    # blocks the estimates hold a few MASK_BLOCK_BYTES beyond the chunk
    ds = random_dataset(256, 14, seed=9)
    rules = [AbsoluteThreshold(0.5)] * 14
    m = 2000
    _, orders = shapley.permutation_masks(14, m, 3)
    masks = np.unique(orders)[1:]
    resolved = resolve_rules(rules, ds)
    tracemalloc.start()
    try:
        for _ in cohort_table_chunks(ds, resolved, range(ds.n), masks, False):
            pass
        _, chunk_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = local_attributions(ds, "cs", rules=rules, engine="mc", permutations=m,
                                 seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 256 and all(np.isfinite(a.stderr).all() for a in got)
    assert peak < chunk_peak + 8 * similarity.MASK_BLOCK_BYTES


def test_sweep_memory_bounded_by_chunk():
    # the sweeps contract (and sum) each chunk as it is built, so their peaks
    # stay below a single targets x 2^d table of cohort values
    ds = random_dataset(300, 16, seed=4)
    rules = [AbsoluteThreshold(0.5)] * 16
    full_table = ds.n * (1 << ds.d) * 8
    tracemalloc.start()
    try:
        phi, totals = _cs_rows(ds, rules, squared=False)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        direct, rows = global_attribution(ds, rules, per_subject=True)
        _, peak_global = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert phi.shape == (300, 16) and np.isfinite(totals).all()
    assert peak < full_table
    assert rows.shape == (300, 16) and np.isfinite(direct.phi).all()
    assert peak_global < full_table


@pytest.mark.parametrize("d", [16, 17, 18])
def test_exact_sweep_lists_no_masks(d):
    # the exact mask choice is None, every set, so no 2^d array of masks is
    # built: a one-subject sweep holds its chunk's own tables and the
    # contraction's half table (4 bytes a set), well under the 8 * 2^d bytes
    # of an int64 mask array
    ds = random_dataset(1, d, seed=d)
    rules = [AbsoluteThreshold(0.5)] * d
    resolved = resolve_rules(rules, ds)
    want = local_attributions(ds, "cs", rules=rules)  # the weights are cached
    tracemalloc.start()
    try:
        for _ in cohort_table_chunks(ds, resolved, np.arange(ds.n), None, False):
            pass
        _, chunk_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = local_attributions(ds, "cs", rules=rules)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[0].phi, want[0].phi)
    assert peak < chunk_peak + (4 << d)


def _two_pass(ds, rules, engine):
    """The direct and disaggregated routes as two separate passes over the
    squared cohort tables, summed and contracted in the sweep's chunks."""
    resolved = resolve_rules(rules, ds)
    tables = cohort_value_tables(match_codes(ds.X, resolved, ds.X), ds.y, ds.d, True)
    chunks = [
        tables[:, s : s + chunk.shape[1]]
        for s, chunk in cohort_table_chunks(ds, resolved, np.arange(ds.n), None, True)
    ]
    table = np.zeros(1 << ds.d)
    for chunk in chunks:
        table += chunk.sum(axis=1)
    table /= ds.n
    game = table_game(table, "var")
    direct = shapley_exact(game) if engine == "exact" else shapley_permutation(game, 300, 7)
    rows = np.concatenate([_phi_from_tables(chunk, ds.d) for chunk in chunks])
    return table, direct, rows, tables[-1]


@pytest.mark.parametrize("engine", ["exact", "mc"])
@pytest.mark.parametrize("n", [40, 300])
def test_one_sweep_matches_two_passes_bit_for_bit(monkeypatch, engine, n):
    # identity, absolute, relative and constant columns; 300 subjects take
    # two chunks at d = 6
    for seed in (5, 6):
        ds = random_dataset(n, 6, seed=seed, n_binary=1)
        X = ds.X.copy()
        X[:, 5] = 1.5
        ds = attach_predictions(Dataset(schema=ds.schema, X=X), ds.y)
        rules = [Identity(), AbsoluteThreshold(0.5), AbsoluteThreshold(0.0),
                 RelativeThreshold(0.3), RelativeThreshold(0.0), AbsoluteThreshold(0.2)]
        table, want, rows, totals = _two_pass(ds, rules, engine)
        var_columns = _var_columns(monkeypatch)
        direct, cs2_rows = global_attribution(
            ds, rules, engine, 300, 7, per_subject=True
        )
        assert direct.method == "var" and direct.target is None
        assert np.array_equal(direct.phi, want.phi)
        assert direct.total == want.total
        if engine == "mc":
            assert np.array_equal(direct.stderr, want.stderr)
            assert direct.permutations_used == 300
        assert np.array_equal(cs2_rows, rows)
        phi, sweep_totals = _cs_rows(ds, rules, squared=True)
        assert np.array_equal(phi, rows) and np.array_equal(sweep_totals, totals)
        # the two public routes give the same numbers on their own
        alone = variance_shapley(ds, rules, engine, 300, 7)
        assert np.array_equal(alone.phi, want.phi)
        agg = aggregate_squared_cs(ds, rules)
        assert agg.method == "cs2-aggregate"
        assert np.array_equal(agg.phi, rows.mean(axis=0))
        assert agg.total == float(totals.mean())
        lone, none = global_attribution(ds, rules, engine, 300, 7)
        assert none is None and np.array_equal(lone.phi, want.phi)
        # the var game's values: the whole mean table, or under mc the rows
        # of the draw's coalitions, whether the sweep read every set or them
        draw = np.concatenate(([0], chosen_masks(ds.d, engine, 300, 7)))
        assert len(var_columns) == 3
        for column in var_columns:
            assert np.array_equal(column, table[draw])
        monkeypatch.undo()


def test_mc_var_game_does_not_depend_on_per_subject():
    # 7 orders at d = 10 reach few of the 1023 nonempty sets: per-subject
    # rows make the sweep read them all, and the draw's rows are then
    # gathered from the mean table
    ds = random_dataset(50, 10, seed=41)
    rules = [AbsoluteThreshold(0.6)] * 10
    assert len(chosen_masks(10, "mc", 7, 2)) < 100
    lone, none = global_attribution(ds, rules, "mc", 7, 2)
    direct, rows = global_attribution(ds, rules, "mc", 7, 2, per_subject=True)
    assert none is None
    assert np.array_equal(direct.phi, lone.phi) and direct.total == lone.total
    assert np.array_equal(direct.stderr, lone.stderr)
    _, exact_rows = global_attribution(ds, rules, per_subject=True)
    assert np.array_equal(rows, exact_rows)


@pytest.mark.parametrize("d", [5, 21])
def test_global_refuses_a_bad_engine_before_any_chunk(monkeypatch, d):
    ds = random_dataset(30, d, seed=31, n_binary=d)
    rules = [Identity()] * d

    def refuse(*args, **kwargs):
        raise AssertionError("a chunk was built")

    for module, name in ((aggregate, "cohort_table_chunks"),
                         (similarity, "match_codes")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        variance_shapley(ds, rules, "bogus")
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        global_attribution(ds, rules, "bogus", per_subject=d <= games.EXACT_CAP)
    if d > games.EXACT_CAP:
        # per-subject rows need the dense tables whatever the engine
        for engine in ("exact", "mc"):
            with pytest.raises(DatasetError, match="per-subject rows need all 2\\^d"):
                global_attribution(ds, rules, engine, 20, per_subject=True)


def test_sweeps_above_the_cap_name_the_mc_engine():
    # the sweeps take an engine name, so the cap's error names the one to use
    ds = random_dataset(30, 22, seed=32, n_binary=22)
    rules = [Identity()] * 22
    cap = 'd=22 exceeds the exact cap 20; use engine="mc"'
    with pytest.raises(ValueError, match=cap):
        local_attributions(ds, "cs", [0], rules, engine="exact")
    with pytest.raises(ValueError, match=cap):
        global_attribution(ds, rules, "exact")


def test_disaggregation_identity_random():
    for seed in (1, 2, 3):
        ds = random_dataset(120, 5, seed=seed, n_binary=2)
        rules = [Identity(), Identity()] + [AbsoluteThreshold(0.7)] * 3
        direct, rows = global_attribution(ds, rules, per_subject=True)
        agg = aggregate_squared_cs(ds, rules)
        budget = 1e-9 * max(direct.total, 1e-12)
        assert np.max(np.abs(direct.phi - agg.phi)) <= budget
        assert agg.phi == pytest.approx(rows.mean(axis=0), abs=1e-12)


def test_val_var_identity_all_subsets(t8, monkeypatch):
    var_columns = _var_columns(monkeypatch)
    variance_shapley(t8, IDENT3)
    per_target = np.zeros(8)
    for t in range(t8.n):
        per_target += cohort_game(t8, "cs2", t, IDENT3).value_table()
    (table,) = var_columns
    assert table == pytest.approx(per_target / t8.n, abs=1e-12)
    assert ReferenceVarGame(t8, IDENT3).values(np.arange(8)) == pytest.approx(
        table, abs=1e-12
    )


def test_unsquared_cs_aggregates_to_zero_on_full_factorial(t8):
    phi, _ = _cs_rows(t8, IDENT3, squared=False)
    sd = t8.y.std()
    assert np.abs(phi.mean(axis=0)).max() <= 1e-9 * sd


def test_panel_cs(t8):
    panel = make_panel(t8, "cs", local_attributions(t8, "cs", rules=IDENT3))
    t = t8_target(t8)
    assert panel.bars[t] == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
    # ordering sorts predictions non-decreasingly
    ordered = t8.y[panel.ordering]
    assert (np.diff(ordered) >= 0).all()
    # full factorial with identity: every full cohort is a singleton, so the
    # bars of each subject sum to its overlay
    assert panel.bars.sum(axis=1) == pytest.approx(panel.overlay, abs=1e-10)


def test_panel_model_methods(t8):
    model = LinearModel((2.0, 1.0, 0.0), 0.0)
    atts = local_attributions(t8, "bs", model=model, baseline="mean")
    panel = make_panel(t8, "bs", atts)
    t = t8_target(t8)
    assert panel.bars[t].sum() == pytest.approx(3.0 - 1.5, abs=1e-10)
    with pytest.raises(Exception):
        local_attributions(t8, "var")


def test_panel_csv_format(t8, tmp_path):
    panel = make_panel(t8, "cs", local_attributions(t8, "cs", rules=IDENT3))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,subject,x1,x2,x3,overlay"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) == panel.ordering[0]


def test_panel_tie_break_stable():
    ds = random_dataset(12, 3, seed=2)
    ds = attach_predictions(ds, np.zeros(12))
    atts = local_attributions(ds, "cs", rules=[AbsoluteThreshold(0.5)] * 3)
    panel = make_panel(ds, "cs", atts)
    assert panel.ordering.tolist() == list(range(12))
