"""Acceptance gate: one test per shipping criterion, each at its stated
tolerance, printing a PASS line when it holds.

The two real-data calibration criteria need data/titanic3.csv and
data/boston.csv (see data/README.md); without the files they are reported
as BLOCKED via skip, never weakened. The performance criterion runs on the
real passenger table when present and otherwise on a synthetic table of the
identical shape, which exercises the same kernels at the same scale.
"""

import time

import numpy as np
import pytest

from cohortshap import (
    AbsoluteThreshold,
    CubeFunction,
    Identity,
    LinearModel,
    RangeFraction,
    RelativeThreshold,
    aggregate_squared_cs,
    anchored_cube,
    attach_predictions,
    fit_logistic,
    local_attributions,
    make_cs_game,
    predict,
    realism_curve,
    shapley_exact,
    shapley_from_anchored,
    shapley_permutation,
    similarity_row,
    variance_shapley,
)
from cohortshap.aggregate import global_attribution
from cohortshap.audit import realism_splits
from cohortshap.similarity import cohort_value_tables

from .conftest import (
    load_boston,
    load_titanic,
    random_dataset,
    t8_dataset,
    t8_target,
    titanic_shaped_surrogate,
)
from .helpers import shapley_all_permutations_table, table_game

TITANIC_RULES = [
    Identity(),
    Identity(),
    RangeFraction(0.1, 0.0, 1.0),
    Identity(),
    Identity(),
    RangeFraction(0.1, 0.0, 1.0),
]
TITANIC_UNIT_RULES = [
    Identity(),
    Identity(),
    RangeFraction(1.0, 0.0, 1.0),
    Identity(),
    Identity(),
    RangeFraction(1.0, 0.0, 1.0),
]


def report(n, text):
    print(f"[criterion {n:2d}] PASS  {text}")


def random_table_game(d, seed, method="rand"):
    vals = np.random.default_rng(seed).normal(size=1 << d)
    vals[0] = 0.0
    return table_game(vals, method)


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    rel = 1e-10
    for seed in range(200):
        d = 1 + seed % 8
        game = random_table_game(d, seed)
        att = shapley_exact(game)
        scale = max(1.0, abs(att.total))
        # efficiency
        assert abs(att.phi.sum() - att.total) <= rel * scale
        # exhaustive all-d!-orders oracle
        phi_oracle, total_oracle = shapley_all_permutations_table(
            game.value_table(), d
        )
        assert np.max(np.abs(att.phi - phi_oracle)) <= rel * scale
        assert abs(att.total - total_oracle) <= rel * scale
        # symmetry: duplicate player 0 into a fresh player d
        vals = game.value_table()
        sym = np.empty(1 << (d + 1))
        for u in range(1 << (d + 1)):
            low = u & ((1 << d) - 1)
            merged = (low | 1) if (u >> d) & 1 else low
            sym[u] = vals[merged]
        phi_sym = shapley_exact(table_game(sym, "sym")).phi
        assert abs(phi_sym[0] - phi_sym[d]) <= rel * max(1.0, abs(phi_sym[0]))
        # dummy: player d never changes the value
        dummy = np.concatenate([vals, vals])
        phi_dummy = shapley_exact(table_game(dummy, "dummy")).phi
        assert abs(phi_dummy[d]) <= rel
        # additivity against an independent game
        other = random_table_game(d, 10_000 + seed)
        combo = table_game(1.5 * vals - 0.5 * other.value_table(), "combo")
        lhs = shapley_exact(combo).phi
        rhs = 1.5 * att.phi - 0.5 * shapley_exact(other).phi
        assert np.max(np.abs(lhs - rhs)) <= rel * max(1.0, np.abs(rhs).max())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"axioms + exhaustive oracle on 200 games in {elapsed:.2f}s")


def test_criterion_2_anchored_equivalence():
    start = time.perf_counter()
    for seed in range(100):
        d = 1 + seed % 10
        g = CubeFunction(np.random.default_rng(1000 + seed).normal(size=1 << d))
        via_anchored = shapley_from_anchored(anchored_cube(g))
        direct = shapley_exact(table_game(g.values - g.values[0], "cube"))
        assert np.max(np.abs(via_anchored.phi - direct.phi)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"anchored-route equivalence on 100 cubes in {elapsed:.2f}s")


def random_rules(d, seed):
    rng = np.random.default_rng(seed)
    rules = []
    for _ in range(d):
        kind = rng.integers(0, 4)
        if kind == 0:
            rules.append(Identity())
        elif kind == 1:
            rules.append(AbsoluteThreshold(float(rng.uniform(0.05, 1.5))))
        elif kind == 2:
            rules.append(RelativeThreshold(float(rng.uniform(0.05, 0.8))))
        else:
            rules.append(RangeFraction(float(rng.uniform(0.02, 0.4))))
    return rules


def test_criterion_3_disaggregation_identity():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 501))
        d = int(rng.integers(2, 7))
        ds = random_dataset(n, d, seed=seed + 500)
        rules = random_rules(d, seed + 900)
        direct = variance_shapley(ds, rules)
        agg = aggregate_squared_cs(ds, rules)
        budget = 1e-9 * max(direct.total, 1e-300)
        assert np.max(np.abs(direct.phi - agg.phi)) <= budget
        _, rows = global_attribution(ds, rules, per_subject=True)
        assert rows.shape == (n, d)
        assert np.array_equal(agg.phi, rows.mean(axis=0))
    report(3, "variance Shapley equals mean squared-cohort rows on 8 datasets")


def test_criterion_4_t8_fixture():
    ds = t8_dataset()
    t = t8_target(ds)
    rules = [Identity()] * 3

    (cs,) = local_attributions(ds, "cs", [t], rules)
    assert cs.phi == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
    (cs2,) = local_attributions(ds, "cs2", [t], rules)
    assert cs2.phi == pytest.approx([1.5, 0.75, 0.0], abs=1e-12)
    var = variance_shapley(ds, rules)
    assert var.phi == pytest.approx([1.0, 0.25, 0.0], abs=1e-12)

    model = LinearModel((2.0, 1.0, 0.0), 0.0)
    abs2_total = local_attributions(ds, "abs2", [t], model=model)[0].total
    cs2_total = cs2.total
    assert abs2_total == pytest.approx(3.5, abs=1e-12)
    assert cs2_total == pytest.approx(2.25, abs=1e-12)
    assert abs2_total >= cs2_total

    # the same numbers through the committed exhaustive-permutation oracle
    codes = similarity_row(rules, ds, t)
    phi_oracle, _ = shapley_all_permutations_table(
        cohort_value_tables(codes, ds.y, 3, False), 3
    )
    assert phi_oracle == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
    phi_oracle2, _ = shapley_all_permutations_table(
        cohort_value_tables(codes, ds.y, 3, True), 3
    )
    assert phi_oracle2 == pytest.approx([1.5, 0.75, 0.0], abs=1e-12)
    report(4, "T8 fixture values match the frozen oracle numbers")


def test_criterion_5_titanic_realism_calibration():
    loaded = load_titanic()
    if loaded is None:
        pytest.skip(
            "BLOCKED: data/titanic3.csv not available in this environment "
            "(no network egress; no offline source); see data/README.md"
        )
    ds, _ = loaded
    assert ds.n == 1045 and ds.d == 6
    start = time.perf_counter()
    report_t = realism_curve(
        ds, TITANIC_UNIT_RULES, scales=[0.2], fractions=[0.1, 0.2, 0.3],
        runs=100, seed=2024,
    )
    elapsed = time.perf_counter() - start
    assert abs(report_t.marginal_rates[0] - 0.86) <= 0.04
    assert ((report_t.holdout_rates >= 0.88) & (report_t.holdout_rates <= 0.98)).all()
    assert elapsed < 120.0
    report(5, f"titanic realism calibration in {elapsed:.1f}s")


def test_criterion_5_boston_realism_calibration():
    loaded = load_boston()
    if loaded is None:
        pytest.skip(
            "BLOCKED: data/boston.csv not available in this environment "
            "(no network egress; no offline source); see data/README.md"
        )
    ds, _ = loaded
    assert ds.n == 506 and ds.d == 13
    rules = [RangeFraction(1.0, 0.05, 0.95)] * 13
    start = time.perf_counter()
    report_b = realism_curve(
        ds, rules, scales=[0.2], fractions=[0.1, 0.2, 0.3], runs=100, seed=2024
    )
    elapsed = time.perf_counter() - start
    assert abs(report_b.marginal_rates[0] - 0.13) <= 0.05
    assert (report_b.holdout_rates > 0.90).all()
    assert elapsed < 120.0
    report(5, f"boston realism calibration in {elapsed:.1f}s")


def test_criterion_6_titanic_ranking():
    loaded = load_titanic()
    if loaded is None:
        pytest.skip(
            "BLOCKED: data/titanic3.csv not available in this environment "
            "(no network egress; no offline source); see data/README.md"
        )
    ds, survived = loaded
    model = fit_logistic(ds, survived)
    ds = attach_predictions(ds, predict(model, ds.X))
    out = variance_shapley(ds, TITANIC_RULES)
    order = np.argsort(out.phi)[::-1]
    names = [ds.names[j] for j in order]
    assert names[0] == "sex"
    assert names[1] == "pclass"
    report(6, f"titanic ranking: {names}")


def test_criterion_7_linear_model_properties():
    # (a) fitted linear model + mean baseline: BS total equals CS total for
    # every target whose full cohort is the singleton {t}
    ds = random_dataset(200, 5, seed=71)
    rng = np.random.default_rng(5)
    true_y = ds.X @ rng.normal(size=5) + rng.normal(scale=0.2, size=200)
    design = np.column_stack([ds.X, np.ones(200)])
    fitted = np.linalg.lstsq(design, true_y, rcond=None)[0]
    model = LinearModel(tuple(fitted[:-1]), float(fitted[-1]))
    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [AbsoluteThreshold(0.05)] * 5
    full = (1 << 5) - 1
    singletons = [
        t for t in range(ds.n) if (similarity_row(rules, ds, t) == full).sum() == 1
    ]
    cs = local_attributions(ds, "cs", singletons, rules)
    bs = local_attributions(ds, "bs", singletons, model=model, baseline="mean")
    for cs_t, bs_t in zip(cs, bs, strict=True):
        assert bs_t.total == pytest.approx(cs_t.total, rel=1e-10, abs=1e-10)
    singles = len(singletons)
    assert singles >= 50

    # (b) structural indirect-influence check: drop a column from the model
    ds2 = random_dataset(300, 4, seed=99)  # columns share a latent factor
    beta = np.array([1.0, -2.0, 0.5, 0.0])
    beta[3] = 0.0  # the model never reads column 3
    model2 = LinearModel(tuple(beta), 0.0)
    ds2 = attach_predictions(ds2, predict(model2, ds2.X))
    rules2 = [AbsoluteThreshold(0.4)] * 4
    saw_nonzero_cs = False
    bs = local_attributions(ds2, "bs", range(60), model=model2, baseline="mean")
    cs = local_attributions(ds2, "cs", range(60), rules2)
    for bs_t, cs_t in zip(bs, cs, strict=True):
        assert bs_t.phi[3] == 0.0  # exactly: the increments are identically zero
        if abs(cs_t.phi[3]) > 1e-3:
            saw_nonzero_cs = True
    assert saw_nonzero_cs
    report(7, f"linear BS/CS total agreement on {singles} singleton targets; "
              "dropped column forces BS phi to 0 while CS phi stays free")


def test_criterion_8_mc_convergence():
    d = 10
    trials_ok = 0
    for trial in range(100):
        game = random_table_game(d, 31_000 + trial)
        exact = shapley_exact(game)
        mc = shapley_permutation(game, 5000, seed=trial)
        within = np.abs(mc.phi - exact.phi) <= 4.0 * mc.stderr
        if within.all():
            trials_ok += 1
    assert trials_ok >= 99

    # per-permutation efficiency: increments telescope to the total
    game = random_table_game(d, 12345)
    mc = shapley_permutation(game, 64, seed=3)
    assert mc.phi.sum() == pytest.approx(mc.total, abs=1e-12)
    report(8, f"mc within 4 stderr of exact in {trials_ok}/100 trials")


def test_criterion_9_performance_budget():
    loaded = load_titanic()
    if loaded is not None:
        ds, _ = loaded
        label = "titanic"
        model = fit_logistic(ds, loaded[1])
        ds = attach_predictions(ds, predict(model, ds.X))
    else:
        ds, _ = titanic_shaped_surrogate(seed=7)
        label = "surrogate with the titanic shape (1045 x 6)"
    assert ds.n == 1045 and ds.d == 6
    start = time.perf_counter()
    atts = local_attributions(ds, "cs", rules=TITANIC_RULES)
    elapsed = time.perf_counter() - start
    phi = np.array([att.phi for att in atts])
    assert phi.shape == (1045, 6)
    assert np.isfinite(phi).all()
    # spot-check the sweep against the single-target path
    for t in (0, 512, 1044):
        att = shapley_exact(make_cs_game(ds, similarity_row(TITANIC_RULES, ds, t), t))
        assert phi[t] == pytest.approx(att.phi, abs=1e-10)
    assert elapsed <= 10.0
    report(9, f"CS for all 1045 subjects ({label}) in {elapsed:.2f}s")


def test_criterion_10_split_partition():
    rng = np.random.default_rng(17)
    ds = random_dataset(150, 5, seed=55, n_binary=1)
    model = LinearModel(tuple(rng.normal(size=5)), 0.1)
    ds = attach_predictions(ds, predict(model, ds.X))
    rules = [Identity()] + [AbsoluteThreshold(0.5)] * 4
    targets = rng.choice(ds.n, size=50, replace=False)
    for t in targets:
        split = next(realism_splits(ds, [int(t)], "mean", model, rules, method="bs"))
        recombined = split.phi_realistic + split.phi_unrealistic
        assert np.array_equal(recombined, split.phi)  # bit-exact partition
        (engine,) = local_attributions(ds, "bs", [int(t)], model=model, baseline="mean")
        assert split.phi == pytest.approx(engine.phi, rel=1e-12, abs=1e-12)
    report(10, "realism split partitions 50 BS attributions bit-exactly")
