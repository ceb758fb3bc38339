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
    RangeFraction,
    RelativeThreshold,
    attach_predictions,
    is_realistic,
    make_game,
    realism_curve,
    sample_marginal_product,
    shapley_exact,
    write_realism_csv,
)
from cohortshap import audit, games
from cohortshap.audit import (
    _derive_seed,
    _hybrid_flags,
    _min_witness_scale,
    realism_splits,
)
from cohortshap.dataset import split_holdout
from cohortshap.similarity import match_codes, resolve_rules, scale_rules

from .conftest import random_dataset, t8_target
from .helpers import LoggingModel, dense_min_witness_scale

LINEAR = LinearModel((2.0, 1.0, 0.0), 0.0)


def two_point_dataset():
    return Dataset(
        schema=(ColumnSchema("a", "binary"), ColumnSchema("b", "binary")),
        X=np.array([[0.0, 0.0], [1.0, 1.0]]),
    )


def test_marginal_sampling_values_observed(t8):
    pts = sample_marginal_product(t8, 500, seed=3)
    assert pts.shape == (500, 3)
    assert np.isin(pts, (0.0, 1.0)).all()
    again = sample_marginal_product(t8, 500, seed=3)
    assert np.array_equal(pts, again)


def test_marginal_sampling_mixes_coordinates():
    ds = two_point_dataset()
    pts = sample_marginal_product(ds, 4000, seed=1)
    mixed = (pts[:, 0] != pts[:, 1]).mean()
    assert mixed == pytest.approx(0.5, abs=0.05)  # 2 of 4 equally likely pairs


def test_is_realistic_observed_rows():
    ds = random_dataset(40, 3, seed=8)
    rules = [AbsoluteThreshold(0.2)] * 3
    for t in (0, 13, 39):
        assert is_realistic(ds.X[t], ds, rules) is True


def test_is_realistic_counterexample():
    ds = two_point_dataset()
    rules = [Identity(), Identity()]
    assert is_realistic(np.array([0.0, 1.0]), ds, rules) is False
    assert is_realistic(np.array([1.0, 1.0]), ds, rules) is True


def test_wide_threshold_everything_realistic():
    ds = random_dataset(30, 2, seed=5)
    span = ds.X.max() - ds.X.min()
    rules = [AbsoluteThreshold(float(span) * 2)] * 2
    pts = sample_marginal_product(ds, 100, seed=0)
    assert all(is_realistic(p, ds, rules) for p in pts)


def test_min_witness_scale_matches_flags():
    ds = random_dataset(50, 3, seed=10, n_binary=1)
    base = [Identity()] + [AbsoluteThreshold(1.0)] * 2
    resolved = resolve_rules(base, ds)
    pts = sample_marginal_product(ds, 300, seed=2)
    min_scale = _min_witness_scale(pts, ds.X, resolved)
    for scale in (0.1, 0.4, 0.9):
        scaled = [Identity(), AbsoluteThreshold(scale), AbsoluteThreshold(scale)]
        expect = [is_realistic(p, ds, scaled) for p in pts]
        assert np.array_equal(min_scale <= scale, expect)


SCAN_RULES = {
    "identity": Identity(),
    "zero": AbsoluteThreshold(0.0),
    "relative": RelativeThreshold(0.5),
    "range": RangeFraction(0.3),
    "half": AbsoluteThreshold(0.5),
    "quarter": AbsoluteThreshold(0.25),
}
# ties, signed zeros (zero relative centres on some points only), a value
# no reference row takes, so some query keys have no bucket, and huge and
# tiny values, so that gap * (1 / radius) overflows to inf on shared radii
# (gaps near 1e308) and on relative columns (tiny centres); no gap itself
# overflows
SCAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.5, 1e300, -1e300, 1e308, 1e-300]),
    st.floats(-4.0, 4.0),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bucketed_scan_equals_dense_scan(data):
    # up to six columns, so that one radius is shared by several columns
    # and several shared radii sit side by side
    d = data.draw(st.integers(1, 6))
    kinds = data.draw(st.lists(st.sampled_from(sorted(SCAN_RULES)), min_size=d, max_size=d))
    n = data.draw(st.integers(1, 23))
    m = data.draw(st.integers(1, 37))
    ref = data.draw(st.lists(SCAN_VALUES, min_size=n * d, max_size=n * d))
    pts = data.draw(
        st.lists(st.one_of(SCAN_VALUES, st.just(7.0)), min_size=m * d, max_size=m * d)
    )
    ref, pts = np.reshape(ref, (n, d)), np.reshape(pts, (m, d))
    ds = Dataset(schema=tuple(ColumnSchema(f"c{j}", "numeric") for j in range(d)), X=ref)
    resolved = resolve_rules([SCAN_RULES[k] for k in kinds], ds)
    # one-point blocks, few-point blocks with a ragged last one, one block
    budget = data.draw(st.sampled_from([8, 8 * 5, 8 * 64, 1 << 20]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audit, "MASK_BLOCK_BYTES", budget)
        got = _min_witness_scale(pts, ref, resolved)
    assert np.array_equal(got, dense_min_witness_scale(pts, ref, resolved))


def test_witness_scan_bucket_edges():
    ref = np.array([[0.0, 1.0], [1.0, 2.0], [1.0, 4.0]])
    pts = np.array([[-0.0, 1.5], [2.0, 1.0], [1.0, 3.5]])
    # -0.0 keys with 0.0; key 2.0 has no reference row; all-key tables give 0
    keys_only = _min_witness_scale(pts, ref, [Identity(), AbsoluteThreshold(0.0)])
    assert np.array_equal(keys_only, [np.inf, np.inf, np.inf])
    keys_only = _min_witness_scale(pts[:, :1], ref[:, :1], [Identity()])
    assert np.array_equal(keys_only, [0.0, np.inf, 0.0])
    mixed = _min_witness_scale(pts, ref, [Identity(), AbsoluteThreshold(0.25)])
    assert np.array_equal(mixed, [2.0, np.inf, 2.0])


def _predicate_rate(points, ref: Dataset, rules) -> float:
    return float(np.mean([is_realistic(p, ref, rules) for p in points]))


def test_realism_curve_rates_are_predicate_rates():
    # Integer gaps put witness scales on the configured scales, where the
    # scan's ratio and the predicate round apart: 3 / 5 rounds above 0.6
    # although 3 <= 5 * 0.6, and 1.8 / (0.5 * 3) rounds to 1.2 although
    # 1.8 > 0.5 * 1.2 * 3. Every rate must still be is_realistic's.
    # Rows with c = 1 have a in {0, 6} and b = 1.2, so a sample with c = 1
    # and a = 3 or b = 3.0 has only such boundary witnesses.
    rng = np.random.default_rng(12)
    n = 40
    c = rng.choice([0.0, 1.0], n)
    a = np.where(c == 1, rng.choice([0.0, 6.0], n), rng.choice([0.0, 3.0, 6.0], n))
    b = np.where(c == 1, 1.2, rng.choice([1.2, 3.0], n))
    X = np.column_stack([a, b, c])
    ds = Dataset(
        schema=(ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric"),
                ColumnSchema("c", "binary")),
        X=X,
    )
    base = [AbsoluteThreshold(5.0), RelativeThreshold(0.5), Identity()]
    resolved = resolve_rules(base, ds)
    scales, fractions, runs, seed, m = [0.6, 1.0, 1.2], [0.25, 0.5], 3, 5, 60
    screen_misses = 0
    for reference in ("full", "train"):
        report = realism_curve(
            ds, base, scales, fractions, runs=runs, seed=seed,
            marginal_samples=m, marginal_reference=reference,
        )
        marginal = np.zeros(len(scales))
        holdout = np.zeros((len(scales), len(fractions)))
        for r in range(runs):
            source = ds
            if reference == "train":
                source, _ = split_holdout(ds, fractions[0], _derive_seed(seed, 2, 0, r))
            pts = sample_marginal_product(source, m, _derive_seed(seed, 1, r))
            min_scale = _min_witness_scale(pts, source.X, resolved)
            for si, scale in enumerate(scales):
                rules = scale_rules(resolved, scale)
                flags = [is_realistic(p, source, rules) for p in pts]
                marginal[si] += np.mean(flags)
                screen_misses += int(np.sum((min_scale <= scale) != flags))
            for fi, frac in enumerate(fractions):
                train, test = split_holdout(ds, frac, _derive_seed(seed, 2, fi, r))
                for si, scale in enumerate(scales):
                    rules = scale_rules(resolved, scale)
                    holdout[si, fi] += _predicate_rate(test.X, train, rules)
        assert np.allclose(report.marginal_rates, marginal / runs, rtol=0, atol=1e-12)
        assert np.allclose(report.holdout_rates, holdout / runs, rtol=0, atol=1e-12)
        assert (np.diff(report.marginal_rates) >= 0).all()
        assert (np.diff(report.holdout_rates, axis=0) >= 0).all()
    assert screen_misses > 0  # the data does reach the ulp boundaries


def test_full_factorial_marginal_rate_one(t8):
    report = realism_curve(
        t8, [Identity()] * 3, scales=[0.5], fractions=[0.25], runs=3, seed=0
    )
    assert report.marginal_rates[0] == 1.0


def test_realism_curve_monotone_and_bounded():
    ds = random_dataset(90, 4, seed=44)
    base = [RangeFraction(1.0)] * 4
    report = realism_curve(
        ds, base, scales=[0.05, 0.1, 0.2, 0.5, 1.0], fractions=[0.1, 0.3],
        runs=4, seed=7, marginal_samples=400,
    )
    assert ((report.marginal_rates >= 0) & (report.marginal_rates <= 1)).all()
    assert (np.diff(report.marginal_rates) >= 0).all()
    assert (np.diff(report.holdout_rates, axis=0) >= 0).all()


def test_realism_curve_holdout_beats_marginal_on_correlated_data():
    # strongly dependent coordinates: product sampling breaks the dependence,
    # held-out rows respect it
    rng = np.random.default_rng(0)
    base = rng.normal(size=600)
    X = np.column_stack([base, base + rng.normal(scale=0.05, size=600)])
    ds = Dataset(
        schema=(ColumnSchema("a", "numeric"), ColumnSchema("b", "numeric")), X=X
    )
    report = realism_curve(
        ds, [RangeFraction(1.0)] * 2, scales=[0.05], fractions=[0.2],
        runs=5, seed=3, marginal_samples=1000,
    )
    assert report.holdout_rates[0, 0] > report.marginal_rates[0] + 0.2


def test_realism_report_csv(tmp_path):
    ds = random_dataset(40, 2, seed=1)
    report = realism_curve(
        ds, [RangeFraction(1.0)] * 2, scales=[0.1, 0.2], fractions=[0.25],
        runs=2, seed=1, marginal_samples=50,
    )
    path = tmp_path / "realism.csv"
    write_realism_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,source,fraction,rate"
    assert len(lines) == 1 + 2 * (1 + 1)
    assert lines[1].startswith("0.1,marginal,,")


def test_split_partition_exact(t8):
    rules = [Identity()] * 3
    t = t8_target(t8)
    split = next(realism_splits(t8, [t], "mean", LINEAR, rules, method="bs"))
    full = shapley_exact(make_game("bs", t8, t, model=LINEAR, baseline="mean"))
    # same increments partitioned: parts recombine to the engine's phi
    assert np.array_equal(split.phi, split.phi_realistic + split.phi_unrealistic)
    assert split.phi == pytest.approx(full.phi, rel=1e-12, abs=1e-12)


def test_split_all_realistic_when_baseline_observed(t8):
    rules = [Identity()] * 3
    t = t8_target(t8)
    # full factorial + identity similarity: every hybrid is an observed row
    split = next(realism_splits(t8, [t], t8.X[0], LINEAR, rules, method="bs"))
    assert np.abs(split.phi_unrealistic).max() == 0.0


def test_split_flags_mean_baseline_unrealistic(t8):
    rules = [Identity()] * 3
    t = t8_target(t8)
    # the averaged baseline (0.5, 0.5, 0.5) matches no binary row, so the
    # empty-side hybrids are unrealistic and some mass lands there
    split = next(realism_splits(t8, [t], "mean", LINEAR, rules, method="bs"))
    assert np.abs(split.phi_unrealistic).sum() > 0.0


def test_split_abs_method(t8):
    rules = [Identity()] * 3
    t = t8_target(t8)
    split = next(realism_splits(t8, [t], "mean", LINEAR, rules, method="abs"))
    full = shapley_exact(make_game("abs", t8, t, model=LINEAR))
    assert split.phi == pytest.approx(full.phi, rel=1e-12, abs=1e-12)
    # hybrids of observed rows on a full factorial are observed rows
    assert np.abs(split.phi_unrealistic).max() == 0.0


def test_split_squared_methods(t8):
    rules = [Identity()] * 3
    t = t8_target(t8)
    for method in ("bs2", "abs2"):
        split = next(realism_splits(t8, [t], "mean", LINEAR, rules, method=method))
        full = shapley_exact(make_game(method, t8, t, model=LINEAR))
        assert split.phi == pytest.approx(full.phi, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("method", ["bs", "bs2", "abs", "abs2"])
def test_realism_splits_equal_one_target_splits(t8, monkeypatch, method):
    rules = [Identity()] * 3
    targets = [7, 2, 7]
    want = [
        next(realism_splits(t8, [t], "mean", LINEAR, rules, method)) for t in targets
    ]
    # calls of 5 points split masks, and for abs a mask's 8 baselines
    monkeypatch.setattr(games, "POINT_CHUNK", 5 * t8.d)
    coded = []

    def counting(X, resolved, points, out=None):
        coded.append(len(np.atleast_2d(points)))
        return match_codes(X, resolved, points, out)

    monkeypatch.setattr(audit, "match_codes", counting)
    got = list(realism_splits(t8, targets, "mean", LINEAR, rules, method))
    # the baseline rows are coded once per command, each target once
    assert len(coded) == 1 + len(targets)
    for a, b in zip(got, want, strict=True):
        assert a.target == b.target
        assert np.array_equal(a.phi_realistic, b.phi_realistic)
        assert np.array_equal(a.phi_unrealistic, b.phi_unrealistic)


def _mixed_rule_table():
    # a coarse grid gives ties and zero levels (where a relative threshold
    # admits only exact zeros); column 3 holds category codes, column 4 is
    # constant
    rng = np.random.default_rng(17)
    X = rng.integers(-2, 3, size=(24, 5)) * 0.5
    X[:, 3] = rng.integers(0, 3, size=24)
    X[:, 4] = 0.5
    kinds = ["numeric", "numeric", "numeric", "categorical", "numeric"]
    schema = tuple(ColumnSchema(f"c{j}", kind) for j, kind in enumerate(kinds))
    ds = attach_predictions(Dataset(schema=schema, X=X), rng.normal(size=24))
    rules = [
        AbsoluteThreshold(0.5),
        AbsoluteThreshold(0.0),
        RelativeThreshold(0.5),
        Identity(),
        AbsoluteThreshold(0.5),
    ]
    return ds, rules


@pytest.mark.parametrize("method,baseline", [("bs", "mean"), ("bs", 5), ("abs", None)])
def test_hybrid_flags_match_point_scan(method, baseline):
    ds, rules = _mixed_rule_table()
    model = LinearModel((1.0, -2.0, 0.5, 0.0, 3.0), 0.0)
    if isinstance(baseline, int):
        baseline = ds.X[baseline]
    baselines, x_t = games.baseline_rows(method, ds, model, baseline), ds.X[7]
    resolved = resolve_rules(rules, ds)
    code_b = match_codes(ds.X, resolved, baselines)
    flags = _hybrid_flags(ds.X, resolved, x_t, code_b)
    assert flags.shape == (1 << ds.d, len(baselines))
    for b, x_b in enumerate(baselines):
        for u in range(1 << ds.d):
            take = (u >> np.arange(ds.d) & 1).astype(bool)
            point = np.where(take, x_t, x_b)
            assert flags[u, b] == is_realistic(point, ds, rules)
    assert flags.any() and not flags.all()


@pytest.mark.parametrize("d", [7, 8])
def test_hybrid_flags_equal_a_dense_int64_reference(d):
    # narrow codes (int8 at d = 7, int16 at d = 8) give every hybrid the
    # realism of the same codes widened to int64
    ds = random_dataset(30, d, seed=d)
    resolved = resolve_rules([AbsoluteThreshold(1.2)] * d, ds)
    baselines = np.vstack([ds.X.mean(axis=0), ds.X[3], ds.X[11] + 0.3])
    code_b = match_codes(ds.X, resolved, baselines)
    x_t = ds.X[5]
    flags = _hybrid_flags(ds.X, resolved, x_t, code_b)
    code_t = match_codes(ds.X, resolved, x_t).astype(np.int64)
    u = np.arange(1 << d, dtype=np.int64)[:, None, None]
    close = (code_t & u) | (code_b.astype(np.int64) & ~u)
    full = (1 << d) - 1
    want = ((close & full) == full).any(axis=2)
    assert np.array_equal(flags, want)
    assert want.any() and not want.all()


def test_splits_check_every_target_before_a_model_call(t8, tmp_path):
    logged = LoggingModel(tmp_path, (2.0, 1.0, 0.0))
    splits = realism_splits(t8, [1, 99], "mean", logged.model, [Identity()] * 3)
    with pytest.raises(DatasetError, match="target 99 outside 0..7"):
        next(splits)
    assert logged.spawns == 0


def test_overflowing_split_is_refused(t8):
    # bs2 squares differences near 1e200: they overflow, and the split is
    # refused, without numpy's raw warnings, instead of yielding NaN
    huge = LinearModel((1e200, 1e200, 0.0), 0.0)
    splits = realism_splits(t8, [7], "mean", huge, [Identity()] * 3, method="bs2")
    with pytest.raises(ValueError, match="realism split of target 7 is not finite"):
        next(splits)


def test_split_rejects_cohort_methods(t8):
    with pytest.raises(ValueError, match="baseline-style"):
        next(realism_splits(t8, [0], "mean", LINEAR, [Identity()] * 3, method="cs"))
