import tracemalloc

import numpy as np
import pytest

from cohortshap import (
    AbsoluteThreshold,
    Dataset,
    Identity,
    LinearModel,
    RelativeThreshold,
    TableGame,
    aggregate_squared_cs,
    attach_predictions,
    local_attributions,
    make_game,
    make_panel,
    make_var_game,
    resolve_rules,
    shapley_engine,
    shapley_exact,
    variance_shapley,
    write_panel_csv,
)
from cohortshap.aggregate import global_attribution
from cohortshap.games import cohort_value_sweep
from cohortshap.shapley import _phi_from_tables
from cohortshap.similarity import (
    CHUNK_BYTES,
    MAX_CHUNK_TARGETS,
    cohort_value_tables,
    match_codes,
)

from .conftest import random_dataset, t8_target

IDENT3 = [Identity()] * 3


def _cs_rows(ds, rules, squared):
    """Exact cohort Shapley rows of every subject: (phi matrix, totals)."""
    _, phi, totals = cohort_value_sweep(ds, resolve_rules(rules, ds), squared=squared)
    return phi, totals


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
        att = shapley_exact(make_game("cs", ds, t, rules))
        assert phi[t] == pytest.approx(att.phi, abs=1e-10)
        assert totals[t] == pytest.approx(att.total, abs=1e-12)
        att2 = shapley_exact(make_game("cs2", ds, t, rules))
        assert phi2[t] == pytest.approx(att2.phi, abs=1e-10)


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


def _two_pass(ds, rules, engine):
    """The direct and disaggregated routes as two separate passes over the
    squared cohort tables, summed and contracted in the sweep's chunks."""
    tables = cohort_value_tables(
        match_codes(ds.X, resolve_rules(rules, ds), ds.X), ds.y, ds.d, squared=True
    )
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // (8 << ds.d)))
    table = np.zeros(1 << ds.d)
    for s in range(0, ds.n, step):
        table += tables[s : s + step].sum(axis=0)
    table /= ds.n
    direct = shapley_engine(TableGame(table, "var"), engine, 300, 7)
    rows = np.concatenate(
        [_phi_from_tables(tables[s : s + step], ds.d) for s in range(0, ds.n, step)]
    )
    return table, direct, rows, tables[:, -1]


@pytest.mark.parametrize("engine", ["exact", "mc"])
@pytest.mark.parametrize("n", [40, 300])
def test_one_sweep_matches_two_passes_bit_for_bit(engine, n):
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
        assert np.array_equal(make_var_game(ds, rules).value_table(), table)
        lone, none = global_attribution(ds, rules, engine, 300, 7)
        assert none is None and np.array_equal(lone.phi, want.phi)


def test_disaggregation_identity_random():
    for seed in (1, 2, 3):
        ds = random_dataset(120, 5, seed=seed, n_binary=2)
        rules = [Identity(), Identity()] + [AbsoluteThreshold(0.7)] * 3
        direct, rows = global_attribution(ds, rules, per_subject=True)
        agg = aggregate_squared_cs(ds, rules)
        budget = 1e-9 * max(direct.total, 1e-12)
        assert np.max(np.abs(direct.phi - agg.phi)) <= budget
        assert agg.phi == pytest.approx(rows.mean(axis=0), abs=1e-12)


def test_val_var_identity_all_subsets(t8):
    game = make_var_game(t8, IDENT3)
    per_target = np.zeros(8)
    for t in range(t8.n):
        per_target += make_game("cs2", t8, t, IDENT3).value_table()
    assert game.value_table() == pytest.approx(per_target / t8.n, abs=1e-12)


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
