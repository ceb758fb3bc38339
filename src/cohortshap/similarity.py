"""Per-feature similarity to a target subject and the cohorts it induces.

A subject's match pattern to a target is the subset integer of the
predictors it is close on; the cohort of a feature subset u holds the
subjects whose pattern contains u, and its value is their mean prediction
minus the grand mean. :func:`match_codes` builds the patterns,
:func:`cohort_value_tables` all 2^d values by a pattern histogram plus a
superset-sum transform, and :func:`cohort_values` only the subsets asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bits
from .dataset import Dataset, quantile


# Cohort tables and match codes of many targets are built in chunks of at
# most CHUNK_BYTES and MAX_CHUNK_TARGETS targets; cohort_values tests
# membership within about MASK_BLOCK_BYTES of temporaries per block.
CHUNK_BYTES = 1 << 25
MAX_CHUNK_TARGETS = 256
MASK_BLOCK_BYTES = 1 << 20


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


def match_codes(X: np.ndarray, resolved, points: np.ndarray) -> np.ndarray:
    """(points, subjects) int64 match patterns: bit j of entry (p, i) is set
    when subject row i of ``X`` is close to point p on predictor j."""
    points = np.atleast_2d(points)
    codes = np.zeros((len(points), len(X)), dtype=np.int64)
    for j, rule in enumerate(resolved):
        close = _column_close(rule, X[None, :, j], points[:, j][:, None])
        codes |= close.astype(np.int64) << j
    return codes


def cohort_value_tables(codes: np.ndarray, y: np.ndarray, d: int, squared: bool):
    """All 2^d cohort values, optionally squared, from the match ``codes`` of
    one target (subjects,) or of many (targets, subjects): shape (2^d,) or
    (targets, 2^d). A pattern histogram is superset-summed, since a subject
    is in cohort u exactly when its pattern contains u."""
    shape = codes.shape[:-1] + (1 << d,)
    if codes.ndim > 1:
        codes = codes + (np.arange(len(codes), dtype=np.int64)[:, None] << d)
        y = np.broadcast_to(y, codes.shape)
    flat = codes.ravel()
    cells = math.prod(shape)
    counts = np.bincount(flat, minlength=cells).reshape(shape)
    dev = np.bincount(flat, weights=y.ravel(), minlength=cells).reshape(shape)
    bits.superset_sum_inplace(counts, d)
    bits.superset_sum_inplace(dev, d)
    dev /= counts
    dev -= dev[..., :1].copy()  # numpy would copy an overlapping operand whole
    if squared:
        dev *= dev
    dev[..., 0] = 0.0
    return dev


def cohort_values(codes: np.ndarray, y: np.ndarray, masks, squared: bool):
    """The columns ``masks`` of :func:`cohort_value_tables` without its 2^d
    table: (targets, len(masks)), membership tested a block of subsets at a
    time; the grand mean is ``y.mean()``."""
    masks = np.asarray(masks, dtype=np.int64)
    rows, n = codes.shape
    out = np.empty((rows, len(masks)))
    step = max(1, MASK_BLOCK_BYTES // (8 * rows * n))
    for s in range(0, len(masks), step):
        block = masks[s : s + step]
        members = in_cohort(codes[:, None, :], block[:, None]).astype(float)
        out[:, s : s + len(block)] = (members @ y) / members.sum(axis=2)
    out -= y.mean()
    if squared:
        out *= out
    out[:, masks == 0] = 0.0
    return out


def cohort_table_chunks(ds: Dataset, resolved, targets: np.ndarray, squared: bool):
    """Cohort value tables for many targets, yielded a chunk at a time.

    Yields (chunk_offset, tables) with tables of shape (B, 2^d); row b holds
    the :func:`cohort_value_tables` row of target targets[chunk_offset + b].
    A chunk's table stays within CHUNK_BYTES (one target at least), so memory
    is bounded for any number of targets.
    """
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // (8 << ds.d)))
    targets = np.asarray(targets, dtype=np.intp)
    for s in range(0, len(targets), step):
        codes = match_codes(ds.X, resolved, ds.X[targets[s : s + step]])
        yield s, cohort_value_tables(codes, ds.y, ds.d, squared)
