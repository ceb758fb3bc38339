"""Realism audit of synthetic-point attribution methods.

A point is realistic when at least one subject is similar to it on every
predictor, under the same predicate (``match_codes``) that builds cohorts.
Marginal-product sampling is compared against held-out rows. One witness
scan per run computes, per point, the smallest threshold scale at which a
witness appears; it screens the point at every scale at once. A column
whose radius is 0 at every point must match exactly at any scale, so the
scan groups rows and points into exact-match buckets on those columns and
pairs a point only with the rows of its bucket, in blocks of about
``MASK_BLOCK_BYTES`` held in two buffers reused across blocks. A point whose
scale lies within ``SCALE_ULPS`` ulps of a configured scale is decided by
the predicate itself, so every rate is the share of points
:func:`is_realistic` accepts, and sharing the draws across scales keeps the
rates monotone in the threshold.
The realism split of a baseline-style attribution reads the witnesses of
every hybrid from the match codes of the target and of the baseline row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bits import halves, subset_sizes
from .dataset import Dataset, split_holdout
from .games import EXACT_CAP, MODEL_METHODS, make_game
from .shapley import shapley_weight_table
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


def _hybrid_flags(X, resolved, x_t, baselines) -> np.ndarray:
    """(k, 2^d) realism, witnesses from ``X``, of every hybrid that takes
    ``x_t`` on the features in u and baseline row b elsewhere: subject i is
    close to it exactly on (code_t[i] & u) | (code_b[i] & ~u)."""
    d = X.shape[1]
    full = (1 << d) - 1
    code_t = match_codes(X, resolved, x_t)
    code_b = match_codes(X, resolved, baselines)
    k, n = code_b.shape
    flags = np.empty((k, 1 << d), dtype=bool)
    step = max(1, MASK_BLOCK_BYTES // (8 * k * n))
    for s in range(0, 1 << d, step):
        u = np.arange(s, min(s + step, 1 << d), dtype=np.int64)[:, None, None]
        close = (code_t & u) | (code_b & ~u)
        flags[:, s : s + len(u)] = in_cohort(close, full).any(axis=2).T
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
    none. The scan runs in point blocks of about MASK_BLOCK_BYTES per
    buffer. The ratios round differently from the predicate, so this is a
    screen: near a scale, :func:`_realistic_at` asks ``match_codes``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    radii = [rule.radius(points[:, j]) for j, rule in enumerate(resolved)]
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
        rows = np.maximum(1, MASK_BLOCK_BYTES // (8 * np.maximum(width, 1)))
        size = int((np.minimum(ends - starts, rows) * width).max())
        need_buf, ratio_buf = np.empty(size), np.empty(size)
        # gap / radius, by a reciprocal because a product is cheaper than a
        # quotient: x/0 is inf, and fmax skips the NaN of 0/0, an exact
        # match at radius 0, as it would skip a ratio of 0; a gap or ratio
        # past the float range is inf, beyond every scale
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = np.stack([1.0 / np.broadcast_to(radii[j], len(points)) for j in scan])
            inv = inv[:, point_order]
            for b in np.flatnonzero(width):
                ref = cols[:, None, lo[b] : lo[b] + width[b]]
                for s in range(starts[b], ends[b], rows[b]):
                    e = min(s + rows[b], ends[b])
                    need = need_buf[: (e - s) * width[b]].reshape(e - s, width[b])
                    ratio = ratio_buf[: need.size].reshape(need.shape)
                    need.fill(0.0)
                    for c in range(len(scan)):
                        np.subtract(ref[c], centers[c, s:e, None], out=ratio)
                        np.abs(ratio, out=ratio)
                        np.multiply(ratio, inv[c, s:e, None], out=ratio)
                        np.fmax(need, ratio, out=need)
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
    scan per run), and each rate is the share of points that
    :func:`is_realistic` accepts at that scale, so rates are non-decreasing
    in the threshold. Thresholds are resolved against the full dataset;
    holdout witnesses come from the train split only. Witnesses for the marginal
    curve come from the full dataset, or from a per-run train split (at the
    first holdout fraction) when marginal_reference="train".
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

    marginal = np.zeros(len(scales))
    for r in range(runs):
        source = ds
        witness_X = ds.X
        if marginal_reference == "train":
            source, _ = split_holdout(ds, fractions[0], _derive_seed(seed, 2, 0, r))
            witness_X = source.X
        pts = sample_marginal_product(source, m, _derive_seed(seed, 1, r))
        marginal += _realistic_at(pts, witness_X, resolved, scale_arr).mean(axis=1)
    marginal /= runs

    holdout = np.zeros((len(scales), len(fractions)))
    for fi, frac in enumerate(fractions):
        for r in range(runs):
            train, test = split_holdout(ds, frac, _derive_seed(seed, 2, fi, r))
            flags = _realistic_at(test.X, train.X, resolved, scale_arr)
            holdout[:, fi] += flags.mean(axis=1)
    holdout /= runs

    return RealismReport(
        thresholds=scales,
        fractions=fractions,
        marginal_rates=marginal,
        holdout_rates=holdout,
        runs=runs,
        seed=seed,
        marginal_samples=m,
    )


def write_realism_csv(report: RealismReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "source", "fraction", "rate"])
        for si, scale in enumerate(report.thresholds):
            writer.writerow(
                [repr(float(scale)), "marginal", "", repr(float(report.marginal_rates[si]))]
            )
            for fi, frac in enumerate(report.fractions):
                writer.writerow(
                    [
                        repr(float(scale)),
                        "holdout",
                        repr(float(frac)),
                        repr(float(report.holdout_rates[si, fi])),
                    ]
                )


def bs_realism_split(
    ds: Dataset,
    t: int,
    baseline,
    model,
    rules,
    method: str = "bs",
) -> SplitAttribution:
    """Partition a baseline-style attribution by increment realism.

    Every marginal increment of the exact allocation compares two synthetic
    points; it counts as realistic only when both endpoints have a witness.
    The two parts use the same increments, so they sum to the method's full
    attribution by construction.
    """
    if ds.d > EXACT_CAP:
        raise ValueError(f"d={ds.d} exceeds the exact cap {EXACT_CAP}")
    if method not in MODEL_METHODS:
        raise ValueError(f"realism split needs a baseline-style method, got {method!r}")
    game = make_game(method, ds, t, model=model, baseline=baseline)
    d = ds.d
    masks = np.arange(1 << d, dtype=np.int64)
    # per-baseline differences and realism of every hybrid, (baselines, 2^d)
    diffs = np.ascontiguousarray(game.baseline_diffs(masks).T)
    flags = _hybrid_flags(ds.X, resolve_rules(rules, ds), game.x_t, game.baselines)

    w = shapley_weight_table(d)
    sizes = subset_sizes(d)
    k = len(diffs)
    phi_r = np.zeros(d)
    phi_u = np.zeros(d)
    for j in range(d):
        lo, hi = halves(diffs, d, j)
        ok_lo, ok_hi = halves(flags, d, j)
        terms = w[halves(sizes, d, j)[0]] * (hi - lo) / k
        pair_ok = ok_hi & ok_lo
        phi_r[j] = terms[pair_ok].sum()
        phi_u[j] = terms[~pair_ok].sum()

    return SplitAttribution(
        phi_realistic=phi_r, phi_unrealistic=phi_u, method=method, target=t
    )
