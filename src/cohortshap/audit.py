"""Realism audit of synthetic-point attribution methods.

A point is realistic when at least one subject is similar to it on every
predictor, under the same predicate (``match_codes``) that builds cohorts.
Marginal-product sampling is compared against held-out rows. Each run is
scored in one pass, and a ``train`` marginal reference reuses its split at
the first fraction. One witness scan per point set computes, per point, the
smallest threshold scale at which a witness appears; it screens the point
at every scale at once. A column whose radius is 0 at every point must
match exactly at any scale, so the scan groups rows and points into
exact-match buckets on those columns and pairs a point only with the rows
of its bucket. The columns that share one radius at every point (an
absolute or resolved range threshold) are scaled together: the largest gap
over them is multiplied once by the reciprocal, which is exact because
rounding a product by a positive number is monotone. The scan runs in point
blocks whose three reused buffers share about ``MASK_BLOCK_BYTES``, so a
block stays in a core's L2 cache. A point whose scale lies within
``SCALE_ULPS`` ulps of a configured scale is decided by the predicate
itself, so every rate is the share of points :func:`is_realistic` accepts,
and sharing the draws across scales keeps the rates monotone in the
threshold.
The realism split of a baseline-style attribution reads the witnesses of
every hybrid from the match codes of the target and of the baseline rows,
coded once per run of splits, and the splits of many targets take their
differences from one baseline sweep, so they share its model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import write_table
from .bits import halves
from .dataset import Dataset, _checked_targets, split_holdout
from .games import EXACT_CAP, MODEL_METHODS, baseline_rows, baseline_sweep
from .shapley import _halves_weights
from .similarity import (
    MASK_BLOCK_BYTES,
    SimilarityError,
    in_cohort,
    match_codes,
    resolve_rules,
    scale_rules,
)

# The scan's ratio gap / radius and the predicate's test gap <= radius * scale
# round differently; near a scale they are at most a few ulps apart.
SCALE_ULPS = 8


@dataclass(frozen=True)
class RealismReport:
    """Realized realistic fractions per threshold scale, for marginal-product
    samples and for held-out rows at each holdout fraction."""

    thresholds: tuple[float, ...]
    fractions: tuple[float, ...]
    marginal_rates: np.ndarray  # (scales,)
    holdout_rates: np.ndarray  # (scales, fractions)
    runs: int
    seed: int
    marginal_samples: int


@dataclass(frozen=True)
class SplitAttribution:
    """An attribution partitioned by whether each marginal increment compared
    two realistic synthetic points."""

    phi_realistic: np.ndarray
    phi_unrealistic: np.ndarray
    method: str
    target: int

    @property
    def phi(self) -> np.ndarray:
        return self.phi_realistic + self.phi_unrealistic


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def sample_marginal_product(ds: Dataset, m: int, seed) -> np.ndarray:
    """m points drawn coordinatewise from the empirical marginals."""
    if m < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    out = np.empty((m, ds.d))
    for j in range(ds.d):
        out[:, j] = ds.X[rng.integers(0, ds.n, size=m), j]
    return out


def is_realistic(point, ds: Dataset, rules) -> bool:
    """Whether some subject is similar to the point on all d predictors."""
    point = np.asarray(point, dtype=float)
    if point.shape != (ds.d,):
        raise SimilarityError(f"point has shape {point.shape}, want ({ds.d},)")
    codes = match_codes(ds.X, resolve_rules(rules, ds), point)[0]
    return bool(in_cohort(codes, (1 << ds.d) - 1).any())


def _hybrid_flags(X, resolved, x_t, code_b) -> np.ndarray:
    """(2^d, k) realism, witnesses from ``X``, of every hybrid that takes
    ``x_t`` on the features in u and baseline row b elsewhere, given the
    (k, n) match codes ``code_b`` of the baseline rows: subject i is close
    to it exactly on (code_t[i] & u) | (code_b[i] & ~u)."""
    d = X.shape[1]
    full = (1 << d) - 1
    code_t = match_codes(X, resolved, x_t)
    k, n = code_b.shape
    flags = np.empty((1 << d, k), dtype=bool)
    step = max(1, MASK_BLOCK_BYTES // (8 * k * n))
    for s in range(0, 1 << d, step):
        u = np.arange(s, min(s + step, 1 << d), dtype=code_t.dtype)[:, None, None]
        close = (code_t & u) | (code_b & ~u)
        flags[s : s + len(u)] = in_cohort(close, full).any(axis=2)
    return flags


def _bucket_keys(ref_X: np.ndarray, points: np.ndarray, cols) -> tuple:
    """Dense int64 keys of the reference rows and of the points over the
    columns ``cols``: two rows share a key exactly when they are equal (==)
    on every such column. Mixed radix over per-column ``np.unique`` codes,
    re-densified after each column so the key cannot overflow."""
    values = np.concatenate([ref_X[:, cols], points[:, cols]])
    key = np.zeros(len(values), dtype=np.int64)
    for column in values.T:
        levels, code = np.unique(column, return_inverse=True)
        _, key = np.unique(key * len(levels) + code, return_inverse=True)
    return key[: len(ref_X)], key[len(ref_X) :]


def _min_witness_scale(points: np.ndarray, ref_X: np.ndarray, resolved) -> np.ndarray:
    """Smallest threshold multiplier at which each point gains a witness.

    Rules are taken at unit scale. A key column, one whose radius is 0 at
    every point (identity, a zero threshold, a relative threshold at zero
    levels only), must match exactly at any scale, so the reference rows and
    the points are grouped by their key over those columns and each point
    is scanned only against the rows of its own bucket. On the other
    columns a pair needs ``|col - center| * (1 / radius)``, the largest over
    columns; a point's scale is the smallest need in its bucket: 0.0 when
    every column is a key column and the bucket has rows, +inf when it has
    none. Columns that share one radius at every point are scanned as a
    group: the largest gap over the group times the one reciprocal. That is
    exact, since rounding ``gap * inv`` is monotone in the gap for inv > 0,
    so the product of the largest gap is the largest product (an overflow
    is inf either way, and at inv = inf a zero gap is the same skipped NaN).
    The scan runs in point blocks whose three buffers share about
    MASK_BLOCK_BYTES, so they stay in a core's L2 cache. The ratios round
    differently from the predicate, so this is a screen: near a scale,
    :func:`_realistic_at` asks ``match_codes``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radii = [
        np.broadcast_to(rule.radius(points[:, j]), len(points))
        for j, rule in enumerate(resolved)
    ]
    is_key = [np.count_nonzero(r) == 0 for r in radii]
    keys = [j for j, k in enumerate(is_key) if k]
    scan = [j for j, k in enumerate(is_key) if not k]
    ref_key, point_key = _bucket_keys(ref_X, points, keys)
    ref_order = np.argsort(ref_key, kind="stable")
    point_order = np.argsort(point_key, kind="stable")
    ref_key, point_key = ref_key[ref_order], point_key[point_order]
    starts = np.flatnonzero(np.diff(point_key, prepend=-1))
    ends = np.append(starts[1:], len(points))
    lo = np.searchsorted(ref_key, point_key[starts], side="left")
    width = np.searchsorted(ref_key, point_key[starts], side="right") - lo
    found = np.repeat(np.where(width > 0, 0.0, np.inf), ends - starts)
    if scan:
        cols = ref_X[ref_order][:, scan].T.copy()
        centers = points[point_order][:, scan].T.copy()
        # scan positions by radius: the columns that share one radius at
        # every point go together, and the columns whose radius varies by
        # point are scaled one at a time
        shared: dict = {}
        varying = []
        for c, j in enumerate(scan):
            if (radii[j] == radii[j][0]).all():
                shared.setdefault(radii[j][0], []).append(c)
            else:
                varying.append(c)
        rows = np.maximum(1, MASK_BLOCK_BYTES // (3 * 8 * np.maximum(width, 1)))
        size = int((np.minimum(ends - starts, rows) * width).max())
        buf = np.empty((3, size))
        # gap / radius, by a reciprocal because a product is cheaper than a
        # quotient: x/0 is inf, and fmax skips the NaN of 0/0, an exact
        # match at radius 0, as it would skip a ratio of 0; a gap or ratio
        # past the float range is inf, beyond every scale
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = (1.0 / np.stack([radii[j] for j in scan]))[:, point_order]
            for b in np.flatnonzero(width):
                ref = cols[:, None, lo[b] : lo[b] + width[b]]
                for s in range(starts[b], ends[b], rows[b]):
                    e = min(s + rows[b], ends[b])
                    need, gap, tmp = buf[:, : (e - s) * width[b]].reshape(3, e - s, -1)
                    need.fill(0.0)
                    for group in shared.values():
                        np.subtract(ref[group[0]], centers[group[0], s:e, None], out=gap)
                        np.abs(gap, out=gap)
                        for c in group[1:]:
                            np.subtract(ref[c], centers[c, s:e, None], out=tmp)
                            np.abs(tmp, out=tmp)
                            np.fmax(gap, tmp, out=gap)
                        np.multiply(gap, inv[group[0], 0], out=gap)
                        np.fmax(need, gap, out=need)
                    for c in varying:
                        np.subtract(ref[c], centers[c, s:e, None], out=gap)
                        np.abs(gap, out=gap)
                        np.multiply(gap, inv[c, s:e, None], out=gap)
                        np.fmax(need, gap, out=need)
                    need.min(axis=1, out=found[s:e])
    out = np.empty(len(points))
    out[point_order] = found
    return out


def _realistic_at(points: np.ndarray, ref_X: np.ndarray, resolved, scales):
    """(scales, points) realism of each point, witnesses from ``ref_X``, under
    ``scale_rules(resolved, s)`` for each scale s: the witness scan screens,
    and points within SCALE_ULPS ulps of s are decided by ``match_codes``,
    a block of about MASK_BLOCK_BYTES of codes at a time."""
    min_scale = _min_witness_scale(points, ref_X, resolved)
    flags = min_scale <= scales[:, None]
    tol = SCALE_ULPS * np.spacing(np.abs(scales))
    near = np.abs(min_scale - scales[:, None]) <= tol[:, None]
    full = (1 << ref_X.shape[1]) - 1
    step = max(1, MASK_BLOCK_BYTES // (8 * len(ref_X)))
    for k in np.flatnonzero(near.any(axis=1)):
        scaled = scale_rules(resolved, scales[k])
        idx = np.flatnonzero(near[k])
        for s in range(0, len(idx), step):
            blk = idx[s : s + step]
            codes = match_codes(ref_X, scaled, points[blk])
            flags[k, blk] = in_cohort(codes, full).any(axis=1)
    return flags


def realism_curve(
    ds: Dataset,
    base_rules,
    scales,
    fractions,
    runs: int,
    seed: int,
    marginal_samples: int | None = None,
    marginal_reference: str = "full",
) -> RealismReport:
    """Realistic fractions of marginal-product samples versus held-out rows.

    ``base_rules`` carry thresholds at scale 1.0; each entry of ``scales``
    multiplies them. Draws and splits are shared across scales (one witness
    scan per point set), and each rate is the share of points that
    :func:`is_realistic` accepts at that scale, so rates are non-decreasing
    in the threshold. Thresholds are resolved against the full dataset;
    holdout witnesses come from the train split only. Each run is scored in
    one pass: it makes its split at each fraction once and adds its rates to
    one (scales, 1 + fractions) table, marginal first. Marginal witnesses
    come from the full dataset, or with marginal_reference="train" from the
    run's train split at the first fraction, which is reused.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if marginal_reference not in ("full", "train"):
        raise ValueError(f"unknown marginal reference {marginal_reference!r}")
    if marginal_reference == "train" and len(fractions) == 0:
        raise ValueError("a train marginal reference needs a holdout fraction")
    scales = tuple(float(s) for s in scales)
    fractions = tuple(float(f) for f in fractions)
    m = 10 * ds.n if marginal_samples is None else int(marginal_samples)
    resolved = resolve_rules(base_rules, ds)
    scale_arr = np.asarray(scales)

    rates = np.zeros((len(scales), 1 + len(fractions)))
    for r in range(runs):
        splits = [split_holdout(ds, frac, _derive_seed(seed, 2, fi, r))
                  for fi, frac in enumerate(fractions)]
        source = splits[0][0] if marginal_reference == "train" else ds
        pts = sample_marginal_product(source, m, _derive_seed(seed, 1, r))
        scored = [(pts, source.X), *((test.X, train.X) for train, test in splits)]
        for col, (points, ref) in enumerate(scored):
            rates[:, col] += _realistic_at(points, ref, resolved, scale_arr).mean(axis=1)
    rates /= runs

    return RealismReport(
        thresholds=scales,
        fractions=fractions,
        marginal_rates=rates[:, 0],
        holdout_rates=rates[:, 1:],
        runs=runs,
        seed=seed,
        marginal_samples=m,
    )


def write_realism_csv(report: RealismReport, path) -> None:
    """The curve as CSV, one line per scale and source: at each scale the
    marginal rate, then the holdout rate at each fraction."""
    cells = [("marginal", ""), *(("holdout", repr(f)) for f in report.fractions)]
    source, fraction = np.tile(np.array(cells, dtype=object).T, len(report.thresholds))
    rates = np.column_stack((report.marginal_rates, report.holdout_rates))
    columns = [np.repeat(report.thresholds, len(cells)), source, fraction, rates.ravel()]
    write_table(path, ["threshold", "source", "fraction", "rate"], columns)


def realism_splits(
    ds: Dataset,
    targets,
    baseline,
    model,
    rules,
    method: str = "bs",
):
    """Partition a baseline-style attribution of each of ``targets`` by
    increment realism; yields one :class:`SplitAttribution` per target, in
    order.

    Every marginal increment of the exact allocation compares two synthetic
    points; it counts as realistic only when both endpoints have a witness.
    The two parts use the same increments, so they sum to the method's full
    attribution by construction. The per-baseline differences of every
    target come from one :func:`games.baseline_sweep`. A target whose
    parts or their sum are not finite (an overflowing difference, say)
    raises ValueError, as a non-finite attribution does.
    """
    if ds.d > EXACT_CAP:
        raise ValueError(f"d={ds.d} exceeds the exact cap {EXACT_CAP}")
    if method not in MODEL_METHODS:
        raise ValueError(f"realism split needs a baseline-style method, got {method!r}")
    targets = _checked_targets(ds, targets)
    baselines = baseline_rows(method, ds, model, baseline)
    d, k = ds.d, len(baselines)
    resolved = resolve_rules(rules, ds)
    code_b = match_codes(ds.X, resolved, baselines)
    weights = _halves_weights(d)
    sweep = baseline_sweep(
        model, baselines, method, ds.X[targets], None, per_baseline=True
    )
    for t in targets:
        # realism and per-baseline differences of every hybrid, (2^d, k); the
        # empty set's hybrids are the baseline rows, so their differences are
        # 0. An overflow shows as a non-finite sum, refused below; the error
        # state is not held across the yield.
        flags = _hybrid_flags(ds.X, resolved, ds.X[t], code_b)
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = np.concatenate([np.zeros((1, k)), next(sweep)])
            phi_r = np.zeros(d)
            phi_u = np.zeros(d)
            for j in range(d):
                lo, hi = halves(diffs, d, j)
                ok_lo, ok_hi = halves(flags, d, j)
                terms = weights.reshape(lo.shape[:2])[..., None] * (hi - lo) / k
                pair_ok = ok_hi & ok_lo
                phi_r[j] = terms[pair_ok].sum()
                phi_u[j] = terms[~pair_ok].sum()
            # non-finite whenever either part is
            finite = np.isfinite(phi_r + phi_u).all()
        if not finite:
            raise ValueError(f"realism split of target {t} is not finite")
        yield SplitAttribution(
            phi_realistic=phi_r, phi_unrealistic=phi_u, method=method, target=t
        )
