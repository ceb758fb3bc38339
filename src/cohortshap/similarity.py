"""Per-feature similarity to a target subject and the cohorts it induces.

A subject's match pattern to a target is the subset integer of the
predictors it is close on; the cohort of a feature subset u holds the
subjects whose pattern contains u, and its value is their mean prediction
minus the grand mean. :func:`match_codes` builds the patterns,
:func:`cohort_value_tables` all 2^d values by a pattern histogram plus a
superset-sum transform, and :func:`cohort_values` only the subsets asked for.
Each resolved rule type owns its closeness test (``close``) and the largest
gap it accepts (``radius``); no other module knows the rule types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import bits
from .dataset import Dataset, quantile


# Cohort tables and match codes of many targets are built in chunks of at
# most CHUNK_BYTES and MAX_CHUNK_TARGETS targets (see match_code_chunks);
# match_codes, cohort_values and the realism scan keep their temporaries
# within about MASK_BLOCK_BYTES per block.
CHUNK_BYTES = 1 << 25
MAX_CHUNK_TARGETS = 256
MASK_BLOCK_BYTES = 1 << 20


class SimilarityError(ValueError):
    """Raised for invalid similarity rules or rule/column mismatches."""


@dataclass(frozen=True)
class Identity:
    """Close exactly when equal; the only rule a categorical column takes."""

    kinds: ClassVar[tuple[str, ...]] = ("numeric", "binary", "categorical")

    def scaled(self, factor: float) -> "Identity":
        return self

    def close(self, column, center):
        return column == center

    def radius(self, center):
        return 0.0


@dataclass(frozen=True)
class AbsoluteThreshold:
    """|x_ij - x_tj| <= delta."""

    delta: float
    kinds: ClassVar[tuple[str, ...]] = ("numeric", "binary")

    def __post_init__(self):
        if self.delta < 0:
            raise SimilarityError(f"negative threshold {self.delta}")

    def scaled(self, factor: float) -> "AbsoluteThreshold":
        return AbsoluteThreshold(self.delta * factor)

    def close(self, column, center):
        return np.abs(column - center) <= self.delta

    def radius(self, center):
        return self.delta


@dataclass(frozen=True)
class RangeFraction:
    """Absolute threshold of frac * (quantile(hi_q) - quantile(lo_q)); it has
    no closeness until :func:`resolve_rules` pins it to a dataset."""

    frac: float
    lo_q: float = 0.0
    hi_q: float = 1.0
    kinds: ClassVar[tuple[str, ...]] = ("numeric",)

    def __post_init__(self):
        if self.frac < 0:
            raise SimilarityError(f"negative range fraction {self.frac}")
        if not 0.0 <= self.lo_q < self.hi_q <= 1.0:
            raise SimilarityError(f"bad quantile pair ({self.lo_q}, {self.hi_q})")

    def scaled(self, factor: float) -> "RangeFraction":
        return RangeFraction(self.frac * factor, self.lo_q, self.hi_q)

    def close(self, column, center):
        raise SimilarityError(f"unresolved rule {self!r}; call resolve_rules first")

    def radius(self, center):
        return self.close(None, center)


@dataclass(frozen=True)
class RelativeThreshold:
    """|x_ij - x_tj| <= delta * |x_tj|; not symmetric in i and t."""

    delta: float
    kinds: ClassVar[tuple[str, ...]] = ("numeric",)

    def __post_init__(self):
        if self.delta < 0:
            raise SimilarityError(f"negative threshold {self.delta}")

    def scaled(self, factor: float) -> "RelativeThreshold":
        return RelativeThreshold(self.delta * factor)

    def close(self, column, center):
        return np.abs(column - center) <= self.delta * np.abs(center)

    def radius(self, center):
        return self.delta * np.abs(center)


SimilarityRule = Identity | AbsoluteThreshold | RangeFraction | RelativeThreshold


def scale_rules(rules, factor: float):
    """Multiply every threshold by ``factor``; identity columns are unchanged."""
    return [r.scaled(factor) for r in rules]


def check_rules(rules, schema) -> None:
    """One rule per column of ``schema``, each of a type the column's kind takes."""
    rules = list(rules)
    if len(rules) != len(schema):
        raise SimilarityError(f"{len(rules)} rules for {len(schema)} columns")
    for rule, col in zip(rules, schema):
        if col.kind not in rule.kinds:
            raise SimilarityError(
                f"{col.kind} column {col.name!r} is non-numeric: {rule!r} needs "
                f"a {' or '.join(rule.kinds)} column"
            )


def resolve_rules(rules, ds: Dataset) -> list[SimilarityRule]:
    """Validate rules against the dataset and pin quantile ranges to thresholds.

    Returns one of Identity / AbsoluteThreshold / RelativeThreshold per
    column; RangeFraction is materialized against this dataset's quantiles.
    Each resolved rule's ``close(column, center)`` is the closeness test and
    ``radius(center)`` the largest gap it accepts.
    """
    rules = list(rules)
    check_rules(rules, ds.schema)
    resolved: list[SimilarityRule] = []
    for j, rule in enumerate(rules):
        if isinstance(rule, RangeFraction):
            width = quantile(ds, j, rule.hi_q) - quantile(ds, j, rule.lo_q)
            resolved.append(AbsoluteThreshold(rule.frac * width))
        else:
            resolved.append(rule)
    return resolved


def similarity_row(rules, ds: Dataset, t: int) -> np.ndarray:
    """Read-only (n,) int64 match codes of every subject to subject t (see
    :func:`match_codes`), under ``rules`` resolved against ``ds``."""
    if not 0 <= t < ds.n:
        raise SimilarityError(f"target {t} outside 0..{ds.n - 1}")
    codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X[t])[0]
    if not in_cohort(codes[t], (1 << ds.d) - 1):
        raise SimilarityError("target row must be all-similar to itself")
    codes.flags.writeable = False
    return codes


def target_codes(ds: Dataset, resolved, targets):
    """Yield (t, codes) for each of ``targets`` in order: the
    :func:`similarity_row` codes of t under already ``resolved`` rules,
    copied out of :func:`match_code_chunks`' reused buffer."""
    targets = np.asarray(targets, dtype=np.intp)
    for s, chunk in match_code_chunks(ds, resolved, targets, 0):
        for t, codes in zip(targets[s : s + len(chunk)], chunk):
            if not in_cohort(codes[t], (1 << ds.d) - 1):
                raise SimilarityError("target row must be all-similar to itself")
            yield int(t), codes.copy()


def in_cohort(codes: np.ndarray, u) -> np.ndarray:
    """Subjects whose match pattern (a :func:`match_codes` entry) contains
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


def match_codes(X: np.ndarray, resolved, points: np.ndarray, out=None) -> np.ndarray:
    """(points, subjects) int64 match patterns: bit j of entry (p, i) is set
    when subject row i of ``X`` is close to point p on predictor j.

    The codes are filled in blocks of points of about MASK_BLOCK_BYTES, so
    each per-column temporary (the rule's gap, its test, the shifted bits)
    stays within that budget whatever the number of points. ``out``, an
    int64 array of the result's shape, receives the codes instead of a new
    array, so a caller looping over chunks can reuse one."""
    points = np.atleast_2d(points)
    codes = np.empty((len(points), len(X)), dtype=np.int64) if out is None else out
    codes.fill(0)
    step = max(1, MASK_BLOCK_BYTES // (8 * len(X)))
    for s in range(0, len(points), step):
        block = codes[s : s + step]
        for j, rule in enumerate(resolved):
            close = rule.close(X[None, :, j], points[s : s + step, j][:, None])
            block |= close.astype(np.int64) << j
    return codes


def cohort_value_tables(codes: np.ndarray, y: np.ndarray, d: int, squared: bool):
    """All 2^d cohort values, optionally squared, from the match ``codes`` of
    one target (subjects,) or of many (targets, subjects): shape (2^d,) or,
    lattice-major, (2^d, targets), whose column b is the table of target b
    (see :mod:`bits`). A pattern histogram is superset-summed, since a
    subject is in cohort u exactly when its pattern contains u."""
    shape = (1 << d, *codes.shape[:-1])
    cells = math.prod(shape)
    if codes.ndim > 1:
        # Bin index code * B + b, built subject-major so consecutive entries
        # land in nearby bins; each bin still sums its subjects in order.
        codes = np.multiply(codes.T, shape[1], order="C")
        codes += np.arange(shape[1], dtype=np.int64)
    flat = codes.ravel()
    # A count never exceeds n, and the int32 superset sum is the faster one.
    # The int32 table is allocated before bincount's int64 one: the other
    # order raised the peak RSS of `local` then `global` in one process on a
    # 160x14 table by about 10% although the peak of live arrays fell, so
    # the allocator's placement of later tables made the difference.
    counts = np.empty(shape, dtype=np.int32)
    counts[...] = np.bincount(flat, minlength=cells).reshape(shape)
    # The repeated y of many targets lives only through this call.
    dev = np.bincount(
        flat, weights=y if codes.ndim == 1 else np.repeat(y, shape[1]), minlength=cells
    ).reshape(shape)
    bits.superset_sum_inplace(counts, d)
    bits.superset_sum_inplace(dev, d)
    dev /= counts
    dev -= dev[0].copy()  # numpy would copy the broadcast, overlapping row whole
    if squared:
        dev *= dev
    dev[0] = 0.0
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


def match_code_chunks(ds: Dataset, resolved, targets, row_bytes: int):
    """Match codes of many targets against every subject, a chunk at a time.

    Yields (chunk_offset, codes): row b of ``codes`` holds the
    :func:`match_codes` row of target targets[chunk_offset + b]. A chunk
    holds at most MAX_CHUNK_TARGETS targets, and its codes and the
    ``row_bytes`` per target a caller builds from them each stay within
    CHUNK_BYTES (one target at least). Every chunk is written into one
    buffer, valid until the next chunk: a multi-MB array allocated afresh
    per chunk was served from new, page-faulting memory each time.
    """
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // max(8 * ds.n, row_bytes)))
    targets = np.asarray(targets, dtype=np.intp)
    codes = np.empty((min(step, len(targets)), ds.n), dtype=np.int64)
    for s in range(0, len(targets), step):
        chunk = targets[s : s + step]
        yield s, match_codes(ds.X, resolved, ds.X[chunk], out=codes[: len(chunk)])


def cohort_table_chunks(ds: Dataset, resolved, targets: np.ndarray, squared: bool):
    """Cohort value tables for many targets, yielded a chunk at a time.

    Yields (chunk_offset, tables) with lattice-major tables of shape
    (2^d, B); column b holds the :func:`cohort_value_tables` table of target
    targets[chunk_offset + b].
    Chunks follow :func:`match_code_chunks`, so a chunk's tables and codes
    stay within CHUNK_BYTES and memory is bounded for any number of targets.
    """
    for s, codes in match_code_chunks(ds, resolved, targets, 8 << ds.d):
        yield s, cohort_value_tables(codes, ds.y, ds.d, squared)
