"""Realism audit of synthetic-point attribution methods.

A point is realistic when at least one subject is similar to it on every
predictor. Marginal-product sampling is compared against held-out rows by
computing, per sampled point, the smallest threshold scale at which a
witness appears; rates at every scale then come from one pass, and sharing
the draws across scales makes the monotonicity in the threshold exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bits import halves, subset_sizes
from .dataset import Dataset, split_holdout
from .games import EXACT_CAP, MODEL_METHODS, make_game
from .models import predict
from .shapley import shapley_weight_table
from .similarity import (
    AbsoluteThreshold,
    Identity,
    RelativeThreshold,
    SimilarityError,
    _column_close,
    in_cohort,
    match_codes,
    resolve_rules,
)

POINT_BLOCK = 2048


@dataclass(frozen=True)
class RealismVerdict:
    point: np.ndarray
    realistic: bool
    witness: int | None


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


def is_realistic(point, ds: Dataset, rules) -> RealismVerdict:
    """Scan for a subject similar to the point on all d predictors."""
    point = np.asarray(point, dtype=float)
    if point.shape != (ds.d,):
        raise SimilarityError(f"point has shape {point.shape}, want ({ds.d},)")
    codes = match_codes(ds.X, resolve_rules(rules, ds), point)[0]
    members = np.flatnonzero(in_cohort(codes, (1 << ds.d) - 1))
    if len(members) == 0:
        return RealismVerdict(point=point, realistic=False, witness=None)
    return RealismVerdict(point=point, realistic=True, witness=int(members[0]))


def realism_flags(points: np.ndarray, ref_X: np.ndarray, resolved) -> np.ndarray:
    """Vectorized all-predictor witness check of many points against ref_X."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(points)
    flags = np.empty(m, dtype=bool)
    for s in range(0, m, POINT_BLOCK):
        blk = points[s : s + POINT_BLOCK]
        ok = np.ones((len(blk), ref_X.shape[0]), dtype=bool)
        for j, rule in enumerate(resolved):
            ok &= _column_close(rule, ref_X[None, :, j], blk[:, j][:, None])
        flags[s : s + len(blk)] = ok.any(axis=1)
    return flags


def _min_witness_scale(points: np.ndarray, ref_X: np.ndarray, resolved) -> np.ndarray:
    """Smallest threshold multiplier at which each point gains a witness.

    Rules are taken at unit scale; identity columns (and zero thresholds)
    must match exactly at any scale. Returns +inf where no multiplier helps.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = len(points)
    out = np.empty(m)
    for s in range(0, m, POINT_BLOCK):
        blk = points[s : s + POINT_BLOCK]
        need = np.zeros((len(blk), ref_X.shape[0]))
        for j, rule in enumerate(resolved):
            col = ref_X[None, :, j]
            center = blk[:, j][:, None]
            exact = isinstance(rule, Identity) or (
                isinstance(rule, AbsoluteThreshold) and rule.delta == 0.0
            )
            if exact:
                need[col != center] = np.inf
                continue
            gap = np.abs(col - center)
            if isinstance(rule, AbsoluteThreshold):
                ratio = gap * (1.0 / rule.delta)
            elif isinstance(rule, RelativeThreshold):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = gap / (rule.delta * np.abs(center))
                # 0/0 means an exact match of a zero level: scale 0 suffices
                ratio = np.nan_to_num(ratio, nan=0.0, posinf=np.inf)
            else:
                raise ValueError(f"unresolved rule {rule!r}")
            np.maximum(need, ratio, out=need)
        out[s : s + len(blk)] = need.min(axis=1)
    return out


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
    scan per run), so rates are non-decreasing in the threshold by
    construction. Thresholds are resolved against the full dataset; holdout
    witnesses come from the train split only. Witnesses for the marginal
    curve come from the full dataset, or from a per-run train split (at the
    first holdout fraction) when marginal_reference="train".
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if marginal_reference not in ("full", "train"):
        raise ValueError(f"unknown marginal reference {marginal_reference!r}")
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
        min_scale = _min_witness_scale(pts, witness_X, resolved)
        marginal += (min_scale[None, :] <= scale_arr[:, None]).mean(axis=1)
    marginal /= runs

    holdout = np.zeros((len(scales), len(fractions)))
    for fi, frac in enumerate(fractions):
        for r in range(runs):
            train, test = split_holdout(ds, frac, _derive_seed(seed, 2, fi, r))
            min_scale = _min_witness_scale(test.X, train.X, resolved)
            holdout[:, fi] += (min_scale[None, :] <= scale_arr[:, None]).mean(axis=1)
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
    resolved = resolve_rules(rules, ds)
    masks = np.arange(1 << d, dtype=np.int64)

    # per-baseline differences and realism of every hybrid, (baselines, 2^d):
    # one baseline point for bs/bs2, every observed row for abs/abs2
    if method in ("bs", "bs2"):
        flags = realism_flags(game.hybrid_points(masks), ds.X, resolved)[None, :]
        diffs = game.value_table()[None, :]
    else:
        n = ds.n
        flags = np.empty((n, 1 << d), dtype=bool)
        diffs = np.empty((n, 1 << d))
        block = max(1, (1 << 18) // n)
        for s in range(0, 1 << d, block):
            blk = masks[s : s + block]
            pts = game.hybrid_points(blk).reshape(-1, d)
            ok = realism_flags(pts, ds.X, resolved).reshape(len(blk), n)
            delta = predict(model, pts).reshape(len(blk), n) - game.y_base
            if method == "abs2":
                delta = delta * delta
            flags[:, s : s + len(blk)] = ok.T
            diffs[:, s : s + len(blk)] = delta.T

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
