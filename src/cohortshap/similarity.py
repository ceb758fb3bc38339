"""Per-feature similarity to a target subject and the cohorts it induces.

A similarity matrix marks, for one target, which subjects count as close on
each predictor. Each subject's match pattern is the subset integer of the
predictors it matches on, and the cohort of a feature subset u is the set of
subjects whose pattern contains u. The aggregated count/sum tables over all
2^d subsets are produced by a pattern histogram plus a superset-sum
transform instead of re-scanning rows per subset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bits
from .dataset import Dataset, quantile


# Cohort tables of many targets are built in chunks of at most this many
# bytes of values and at most MAX_CHUNK_TARGETS targets.
CHUNK_BYTES = 1 << 25
MAX_CHUNK_TARGETS = 256


class SimilarityError(ValueError):
    """Raised for invalid similarity rules or rule/column mismatches."""


@dataclass(frozen=True)
class Identity:
    def scaled(self, factor: float) -> "Identity":
        return self


@dataclass(frozen=True)
class AbsoluteThreshold:
    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise SimilarityError(f"negative threshold {self.delta}")

    def scaled(self, factor: float) -> "AbsoluteThreshold":
        return AbsoluteThreshold(self.delta * factor)


@dataclass(frozen=True)
class RangeFraction:
    """Absolute threshold of frac * (quantile(hi_q) - quantile(lo_q))."""

    frac: float
    lo_q: float = 0.0
    hi_q: float = 1.0

    def __post_init__(self):
        if self.frac < 0:
            raise SimilarityError(f"negative range fraction {self.frac}")
        if not 0.0 <= self.lo_q < self.hi_q <= 1.0:
            raise SimilarityError(f"bad quantile pair ({self.lo_q}, {self.hi_q})")

    def scaled(self, factor: float) -> "RangeFraction":
        return RangeFraction(self.frac * factor, self.lo_q, self.hi_q)


@dataclass(frozen=True)
class RelativeThreshold:
    """|x_ij - x_tj| <= delta * |x_tj|; not symmetric in i and t."""

    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise SimilarityError(f"negative threshold {self.delta}")

    def scaled(self, factor: float) -> "RelativeThreshold":
        return RelativeThreshold(self.delta * factor)


SimilarityRule = Identity | AbsoluteThreshold | RangeFraction | RelativeThreshold


def scale_rules(rules, factor: float):
    """Multiply every threshold by ``factor``; identity columns are unchanged."""
    return [r.scaled(factor) for r in rules]


def resolve_rules(rules, ds: Dataset) -> list[SimilarityRule]:
    """Validate rules against the dataset and pin quantile ranges to thresholds.

    Returns one of Identity / AbsoluteThreshold / RelativeThreshold per
    column; RangeFraction is materialized against this dataset's quantiles.
    """
    rules = list(rules)
    if len(rules) != ds.d:
        raise SimilarityError(f"{len(rules)} rules for {ds.d} columns")
    resolved: list[SimilarityRule] = []
    for j, rule in enumerate(rules):
        kind = ds.kind(j)
        if kind == "categorical" and not isinstance(rule, Identity):
            raise SimilarityError(
                f"column {ds.names[j]!r} is categorical and needs identity similarity"
            )
        if isinstance(rule, RelativeThreshold) and kind != "numeric":
            raise SimilarityError(
                f"relative threshold on non-numeric column {ds.names[j]!r}"
            )
        if isinstance(rule, RangeFraction):
            width = quantile(ds, j, rule.hi_q) - quantile(ds, j, rule.lo_q)
            resolved.append(AbsoluteThreshold(rule.frac * width))
        else:
            resolved.append(rule)
    return resolved


def _column_close(rule: SimilarityRule, column: np.ndarray, center) -> np.ndarray:
    """Boolean closeness of ``column`` entries to target value(s) ``center``.

    ``center`` may be a scalar (one target) or a column vector of targets,
    in which case the result broadcasts to (targets, subjects).
    """
    if isinstance(rule, Identity):
        return column == center
    if isinstance(rule, AbsoluteThreshold):
        return np.abs(column - center) <= rule.delta
    if isinstance(rule, RelativeThreshold):
        return np.abs(column - center) <= rule.delta * np.abs(center)
    raise SimilarityError(f"unresolved rule {rule!r}; call resolve_rules first")


class SimilarityMatrix:
    """n x d similarity indicators of every subject to one target."""

    def __init__(self, target: int, dense: np.ndarray):
        if dense.ndim != 2:
            raise SimilarityError("similarity matrix must be 2-D")
        self.target = target
        self.dense = np.ascontiguousarray(dense, dtype=bool)

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    @property
    def d(self) -> int:
        return self.dense.shape[1]

    def patterns(self) -> np.ndarray:
        """Per-subject subset integer of the features it matches the target on."""
        weights = (1 << np.arange(self.d, dtype=np.int64))
        return self.dense @ weights

    def cohort(self, u) -> np.ndarray:
        """Boolean membership of the cohort C_{t,u}: subjects similar to the
        target on every feature in u (everyone for the empty set)."""
        return in_cohort(self.patterns(), subset_int(u, self.d))


def similarity_row(rules, ds: Dataset, t: int) -> SimilarityMatrix:
    """Similarity of every subject to subject t under resolved rules."""
    if not 0 <= t < ds.n:
        raise SimilarityError(f"target {t} outside 0..{ds.n - 1}")
    rules = resolve_rules(rules, ds)
    cols = [
        _column_close(rule, ds.X[:, j], ds.X[t, j]) for j, rule in enumerate(rules)
    ]
    Z = SimilarityMatrix(t, np.stack(cols, axis=1))
    if not Z.dense[t].all():
        raise SimilarityError("target row must be all-similar to itself")
    return Z


def in_cohort(codes: np.ndarray, u) -> np.ndarray:
    """Subjects whose match pattern (see SimilarityMatrix.patterns) contains
    the subset integer u, i.e. the members of cohort u."""
    return (codes & u) == u


def subset_int(u, d: int) -> int:
    """Normalize a feature subset (int bitmask or iterable of indices)."""
    if isinstance(u, (int, np.integer)):
        mask = int(u)
        if not 0 <= mask < (1 << d):
            raise SimilarityError(f"subset mask {mask} outside the d={d} lattice")
        return mask
    mask = 0
    for j in u:
        if not 0 <= j < d:
            raise SimilarityError(f"feature index {j} outside 0..{d - 1}")
        mask |= 1 << j
    return mask


def cohort_tables(Z: SimilarityMatrix, y: np.ndarray):
    """Counts and prediction sums of every cohort C_{t,u}, u over the 2^d lattice.

    Histogram the per-subject match patterns, then superset-sum: a subject
    contributes to cohort u exactly when its pattern contains u. Returns
    (counts, sums) arrays of length 2^d.
    """
    d = Z.d
    codes = Z.patterns()
    counts = np.bincount(codes, minlength=1 << d).astype(np.int64)
    sums = np.bincount(codes, weights=y, minlength=1 << d)
    bits.superset_sum_inplace(counts, d)
    bits.superset_sum_inplace(sums, d)
    return counts, sums


def cohort_means_table(Z: SimilarityMatrix, y: np.ndarray) -> np.ndarray:
    """All 2^d cohort means for one target; entry 0 is the grand mean."""
    counts, sums = cohort_tables(Z, y)
    return sums / counts


def cohort_table_chunks(ds: Dataset, resolved, targets: np.ndarray, squared: bool):
    """Cohort value tables for many targets, yielded a chunk at a time.

    Yields (chunk_offset, tables) with tables of shape (B, 2^d); row b holds
    the cohort values (grand-mean deviations, optionally squared) of target
    targets[chunk_offset + b]. One pattern histogram per target replaces the
    per-subset rescan; the superset sum turns it into all 2^d cohorts.
    A chunk's table stays within CHUNK_BYTES (one target at least), so memory
    is bounded for any number of targets.
    """
    y = ds.y
    d = ds.d
    size = 1 << d
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // (8 * size)))
    targets = np.asarray(targets, dtype=np.intp)
    for s in range(0, len(targets), step):
        chunk = targets[s : s + step]
        codes = np.zeros((len(chunk), ds.n), dtype=np.int64)
        for j, rule in enumerate(resolved):
            close = _column_close(rule, ds.X[None, :, j], ds.X[chunk, j][:, None])
            codes += close.astype(np.int64) << j
        flat = (codes + (np.arange(len(chunk), dtype=np.int64)[:, None] << d)).ravel()
        counts = np.bincount(flat, minlength=len(chunk) * size).reshape(
            len(chunk), size
        )
        dev = np.bincount(
            flat,
            weights=np.broadcast_to(y, codes.shape).ravel(),
            minlength=len(chunk) * size,
        ).reshape(len(chunk), size)
        bits.superset_sum_inplace(counts, d)
        bits.superset_sum_inplace(dev, d)
        dev /= counts
        del counts
        dev -= dev[:, :1].copy()
        if squared:
            dev *= dev
        dev[:, 0] = 0.0
        yield s, dev
