"""Per-feature similarity to a target subject and the cohorts it induces.

A subject's match pattern to a target is the subset integer of the
predictors it is close on; the cohort of a feature subset u holds the
subjects whose pattern contains u, and its value is their mean prediction
minus the grand mean. :func:`match_codes` builds the patterns, in the
narrowest signed integer type that holds d bits (:func:`code_dtype`), with
one broadcast test per rule type over all the columns of that type;
:func:`cohort_value_tables` builds all 2^d values by a pattern histogram
plus a superset-sum transform, its cohort sizes in the narrowest type that
holds n (:func:`count_dtype`), and :func:`cohort_values` only the subsets
asked for: it packs each target's per-feature subject sets into 64-bit
words and builds a cohort as the AND of a few table lookups, one per slice
of the subset's bits. :func:`match_code_chunks` and
:func:`cohort_table_chunks` walk many targets a bounded chunk at a time;
a table chunk is charged everything it holds while it is built and
contracted, not its float tables alone.
Each resolved rule type owns its closeness test (``close_stack`` over a
stack of its columns, ``close`` over one) and the largest gap it accepts
(``radius``); no other module knows the rule types.
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


class _Rule:
    """Every rule type tests a stack of columns under rules of that type at
    once: ``close_stack(rules, columns, centers, out, gap)`` compares
    ``columns`` (k, ..., n) with ``centers`` (k, m, 1), row r of each under
    rules[r], writing to the bool ``out`` when given and using ``gap``, a
    float buffer of the result's shape, as scratch (:func:`match_codes`).
    The test of one rule, ``close(column, center)``, is its type's
    ``close_stack`` on one column."""

    def close(self, column, center):
        return self.close_stack((self,), column, center)


def _per_rule(values, ndim: int) -> np.ndarray:
    """One value per stacked rule, shaped to broadcast along the leading
    (rule) axis of an ndim-dimensional test; a 0-d value for ndim 0."""
    return np.reshape(values, (len(values),)[:ndim] + (1,) * (ndim - 1))


@dataclass(frozen=True)
class Identity(_Rule):
    """Close exactly when equal; the only rule a categorical column takes."""

    kinds: ClassVar[tuple[str, ...]] = ("numeric", "binary", "categorical")

    def scaled(self, factor: float) -> "Identity":
        return self

    @staticmethod
    def close_stack(rules, columns, centers, out=None, gap=None):
        return np.equal(columns, centers, out=out)

    def radius(self, center):
        return 0.0


@dataclass(frozen=True)
class AbsoluteThreshold(_Rule):
    """|x_ij - x_tj| <= delta."""

    delta: float
    kinds: ClassVar[tuple[str, ...]] = ("numeric", "binary")

    def __post_init__(self):
        if not self.delta >= 0:
            raise SimilarityError(f"threshold must be >= 0, got {self.delta}")

    def scaled(self, factor: float) -> "AbsoluteThreshold":
        return AbsoluteThreshold(self.delta * factor)

    @staticmethod
    def close_stack(rules, columns, centers, out=None, gap=None):
        gap = np.abs(np.subtract(columns, centers, out=gap), out=gap)
        delta = _per_rule([r.delta for r in rules], np.ndim(gap))
        return np.less_equal(gap, delta, out=out)

    def radius(self, center):
        return self.delta


@dataclass(frozen=True)
class RangeFraction(_Rule):
    """Absolute threshold of frac * (quantile(hi_q) - quantile(lo_q)); it has
    no closeness until :func:`resolve_rules` pins it to a dataset."""

    frac: float
    lo_q: float = 0.0
    hi_q: float = 1.0
    kinds: ClassVar[tuple[str, ...]] = ("numeric",)

    def __post_init__(self):
        if not self.frac >= 0:
            raise SimilarityError(f"range fraction must be >= 0, got {self.frac}")
        if not 0.0 <= self.lo_q < self.hi_q <= 1.0:
            raise SimilarityError(f"bad quantile pair ({self.lo_q}, {self.hi_q})")

    def scaled(self, factor: float) -> "RangeFraction":
        return RangeFraction(self.frac * factor, self.lo_q, self.hi_q)

    @staticmethod
    def close_stack(rules, columns, centers, out=None, gap=None):
        raise SimilarityError(
            f"unresolved rule {rules[0]!r}; call resolve_rules first"
        )

    def radius(self, center):
        return self.close(None, center)


@dataclass(frozen=True)
class RelativeThreshold(_Rule):
    """|x_ij - x_tj| <= delta * |x_tj|; not symmetric in i and t."""

    delta: float
    kinds: ClassVar[tuple[str, ...]] = ("numeric",)

    def __post_init__(self):
        if not self.delta >= 0:
            raise SimilarityError(f"threshold must be >= 0, got {self.delta}")

    def scaled(self, factor: float) -> "RelativeThreshold":
        return RelativeThreshold(self.delta * factor)

    @staticmethod
    def close_stack(rules, columns, centers, out=None, gap=None):
        gap = np.abs(np.subtract(columns, centers, out=gap), out=gap)
        delta = _per_rule([r.delta for r in rules], np.ndim(gap))
        return np.less_equal(gap, delta * np.abs(centers), out=out)

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
    column; RangeFraction is materialized against this dataset's quantiles,
    both ends of its range from one quantile call. Each resolved rule's
    ``close(column, center)`` is the closeness test and ``radius(center)``
    the largest gap it accepts.
    """
    rules = list(rules)
    check_rules(rules, ds.schema)
    resolved: list[SimilarityRule] = []
    for j, rule in enumerate(rules):
        if isinstance(rule, RangeFraction):
            lo, hi = quantile(ds, j, (rule.lo_q, rule.hi_q))
            width = hi - lo
            resolved.append(AbsoluteThreshold(rule.frac * width))
        else:
            resolved.append(rule)
    return resolved


def similarity_row(rules, ds: Dataset, t: int) -> np.ndarray:
    """Read-only (n,) int64 match codes of every subject to subject t (see
    :func:`match_codes`), under ``rules`` resolved against ``ds``."""
    if not 0 <= t < ds.n:
        raise SimilarityError(f"target {t} outside 0..{ds.n - 1}")
    codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X[t])[0].astype(np.int64)
    if not in_cohort(codes[t], (1 << ds.d) - 1):
        raise SimilarityError("target row must be all-similar to itself")
    codes.flags.writeable = False
    return codes


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
    if not np.iterable(u):
        raise SimilarityError(f"subset mask {u} is not an integer")
    mask = 0
    for j in u:
        if not 0 <= j < d:
            raise SimilarityError(f"feature index {j} outside 0..{d - 1}")
        mask |= 1 << j
    return mask


def code_dtype(d: int) -> np.dtype:
    """The integer type of d-bit match codes: int8 for d <= 7, int16 for
    d <= 15, int32 for d <= 31, else int64. Signed, with the sign bit never
    set, so a code ANDed with an int64 mask stays int64 (a uint64 one would
    promote to float64)."""
    for t in (np.int8, np.int16, np.int32):
        if d < 8 * np.dtype(t).itemsize:
            return np.dtype(t)
    return np.dtype(np.int64)


def count_dtype(n: int) -> np.dtype:
    """The integer type of cohort sizes over n subjects: uint8 for n < 2^8,
    int16 for n < 2^15, else int32. No cohort holds more than n subjects,
    so no superset sum of the counts overflows."""
    if n < 1 << 8:
        return np.dtype(np.uint8)
    return np.dtype(np.int16 if n < 1 << 15 else np.int32)


def match_codes(X: np.ndarray, resolved, points: np.ndarray, out=None) -> np.ndarray:
    """(points, subjects) match patterns of type ``code_dtype(d)``: bit j of
    entry (p, i) is set when subject row i of ``X`` is close to point p on
    predictor j.

    The columns are grouped by rule type, and for each block of points each
    group makes one test of its stacked columns (k, 1, n) against the
    points' centres (k, block, 1). Bit j is set by a multiply by 2^j (numpy
    has no vector loop for an int8 shift), and one OR over the stacked
    columns writes the block. A block holds MASK_BLOCK_BYTES // (8 n d)
    points, so its float gaps stay within MASK_BLOCK_BYTES; the buffers are
    allocated once per call. ``out``, an array of the result's shape and
    type, receives the codes instead of a new array, so a caller looping
    over chunks can reuse one."""
    points = np.atleast_2d(points)
    n, d = len(X), len(resolved)
    dtype = code_dtype(d)
    codes = np.empty((len(points), n), dtype=dtype) if out is None else out
    groups: dict[type, list[int]] = {}
    for j, rule in enumerate(resolved):
        groups.setdefault(type(rule), []).append(j)
    order = [j for cols in groups.values() for j in cols]
    columns = X.T[order][:, None, :]
    weights = (np.int64(1) << np.array(order)).astype(dtype)[:, None, None]
    step = max(1, MASK_BLOCK_BYTES // (8 * n * d))
    width = min(step, len(points))
    k = max(len(cols) for cols in groups.values())
    gap = np.empty((k, width, n))
    close = np.empty((k, width, n), dtype=bool)
    bits = np.empty((d, width, n), dtype=dtype)
    for s in range(0, len(points), step):
        centers = points[s : s + step, order].T[:, :, None]
        m = centers.shape[1]
        lo = 0
        for kind, cols in groups.items():
            hi = lo + len(cols)
            kind.close_stack(
                [resolved[j] for j in cols],
                columns[lo:hi],
                centers[lo:hi],
                out=close[: hi - lo, :m],
                gap=gap[: hi - lo, :m],
            )
            np.multiply(close[: hi - lo, :m], weights[lo:hi], out=bits[lo:hi, :m])
            lo = hi
        np.bitwise_or.reduce(bits[:, :m], axis=0, out=codes[s : s + m])
    return codes


def cohort_value_tables(codes: np.ndarray, y: np.ndarray, d: int, squared: bool):
    """All 2^d cohort values, optionally squared, from the match ``codes`` of
    one target (subjects,) or of many (targets, subjects): shape (2^d,) or,
    lattice-major, (2^d, targets), whose column b is the table of target b
    (see :mod:`bits`). A pattern histogram is superset-summed, since a
    subject is in cohort u exactly when its pattern contains u."""
    shape = (1 << d, *codes.shape[:-1])
    cells, n = math.prod(shape), codes.shape[-1]
    if codes.ndim > 1:
        # Bin index code * B + b, built subject-major so consecutive entries
        # land in nearby bins; each bin still sums its subjects in order. It
        # is widened here, once: the product overflows a narrow code.
        codes = np.multiply(codes.T, shape[1], dtype=np.int64, order="C")
        codes += np.arange(shape[1], dtype=np.int64)
    flat = codes.ravel()
    # A count never exceeds n, so the counts are kept, and superset-summed,
    # in count_dtype(n): half of bincount's int64 output or less, and that
    # output lives only for the copy. The count table is allocated before
    # bincount's one: the other order raised the peak RSS of `local` then
    # `global` in one process on a 160x14 table by about 10% although the
    # peak of live arrays fell, so the allocator's placement of later tables
    # made the difference.
    counts = np.empty(shape, dtype=count_dtype(n))
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
    table: (targets, len(masks)) cohort values of the target rows of match
    ``codes``; the grand mean is ``y.mean()``, and a cohort of all n subjects
    scores exactly 0, as on the dense path.

    Each row's d subject sets ("close on j") are packed into ceil(n/64)
    words, and a mask's cohort is the AND of one lookup per slice of its
    bits, from tables of every AND within a slice; its size is a popcount
    and its sum the float64 product of its unpacked members with y. Masks
    go a block of MASK_BLOCK_BYTES // (8 n) at a time whatever the number
    of rows, so a row's values do not depend on the rows beside it. Rows go
    in blocks whose tables and cohorts stay within about MASK_BLOCK_BYTES,
    and their float members in smaller blocks within the same budget.
    """
    masks = np.asarray(masks, dtype=np.int64)
    codes = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder("<"))
    rows, n = codes.shape
    d = max(1, int(np.bitwise_or.reduce(masks, initial=0)).bit_length())
    words = -(-n // 64)
    width = _slice_width(d, len(masks), words)
    cuts = range(0, d, width)
    step = max(1, MASK_BLOCK_BYTES // (8 * n))
    block_len = max(1, min(step, len(masks)))
    member_rows = max(1, MASK_BLOCK_BYTES // (8 * n * block_len))
    table_rows = max(
        member_rows,
        MASK_BLOCK_BYTES // (8 * words * max(block_len, len(cuts) << width)),
    )
    out = np.empty((rows, len(masks)))
    grand = y.mean()
    for r in range(0, rows, table_rows):
        sets = _subject_sets(codes[r : r + table_rows], d)
        tables = [_and_table(sets, lo, min(width, d - lo)) for lo in cuts]
        for s in range(0, len(masks), step):
            block = masks[s : s + step]
            cohort = tables[0][:, block & (tables[0].shape[1] - 1)]
            for lo, table in zip(cuts[1:], tables[1:]):
                cohort &= table[:, block >> lo & (table.shape[1] - 1)]
            sizes = np.bitwise_count(cohort).sum(axis=-1)
            for q in range(0, len(cohort), member_rows):
                members = np.unpackbits(
                    cohort[q : q + member_rows].view(np.uint8),
                    axis=-1,
                    count=n,
                    bitorder="little",
                )
                sums = members.astype(float) @ y
                at = slice(r + q, r + q + len(sums))
                out[at, s : s + len(block)] = sums / sizes[q : q + member_rows]
            # the mean of all subjects is the grand mean itself, so that it
            # scores exactly 0 whatever the product's rounding
            out[r : r + len(cohort), s : s + len(block)][sizes == n] = grand
    out -= grand
    if squared:
        out *= out
    out[:, masks == 0] = 0.0
    return out


def _slice_width(d: int, count: int, words: int) -> int:
    """Bits per mask slice for ``count`` masks over d bits: a slice's table
    of 2^width subject sets costs no more to build than the ``count``
    lookups it serves, and d such tables stay within MASK_BLOCK_BYTES. The
    fewest slices that allows are then made as even as they go."""
    cap = min(count, MASK_BLOCK_BYTES // (8 * words * d))
    width = min(d, max(1, cap.bit_length() - 1))
    slices = -(-d // width)
    return -(-d // slices)


def _subject_sets(codes: np.ndarray, d: int) -> np.ndarray:
    """(rows, d, words) uint64: the subjects close to each target row on each
    feature j < d of little-endian ``codes`` of any width, one bit per
    subject (bit i of byte q for subject 8q + i), ceil(n/64) words per set
    with the bits past n clear."""
    rows, n = codes.shape
    low = codes.view(np.uint8).reshape(rows, n, codes.itemsize)[:, :, : -(-d // 8)]
    # byte q of the codes, subject-minor, unpacks into the rows of 8q..8q+7
    low = np.ascontiguousarray(low.transpose(0, 2, 1))
    flags = np.unpackbits(low, axis=1, bitorder="little")[:, :d]
    packed = np.zeros((rows, d, 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, :, : -(-n // 8)] = np.packbits(flags, axis=-1, bitorder="little")
    return packed.view(np.uint64)


def _and_table(sets: np.ndarray, lo: int, width: int) -> np.ndarray:
    """(rows, 2^width, words): entry v is the AND of the ``sets`` of the
    features lo + k for the bits k of v. Entry 0 has every bit set, the
    bits past n too: a nonzero mask ANDs in at least one set, where they are
    clear, and :func:`cohort_values` sets the value of mask 0 itself."""
    rows, _, words = sets.shape
    table = np.empty((rows, 1 << width, words), dtype=np.uint64)
    table[:, 0] = ~np.uint64(0)
    for k in range(width):
        np.bitwise_and(
            table[:, : 1 << k], sets[:, lo + k, None], out=table[:, 1 << k : 2 << k]
        )
    return table


def match_code_chunks(ds: Dataset, resolved, targets, row_bytes: int):
    """Match codes of many targets against every subject, a chunk at a time.

    Yields (chunk_offset, codes): row b of ``codes`` holds the
    :func:`match_codes` row of target targets[chunk_offset + b], in
    ``code_dtype(d)``. A chunk holds at least one target, at most
    MAX_CHUNK_TARGETS, and as many as fit CHUNK_BYTES when each is charged
    the larger of its codes and ``row_bytes``, what the caller holds per
    target while it works on the chunk (:func:`cohort_table_chunks`
    charges a table's whole working set). Codes are charged 8 bytes each
    whatever their width, the int64 they widen to in the bin index of
    :func:`cohort_value_tables`. Every chunk is written into one narrow
    buffer, valid until the next chunk: a multi-MB array allocated afresh
    per chunk was served from new, page-faulting memory each time.
    """
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // max(8 * ds.n, row_bytes)))
    targets = np.asarray(targets, dtype=np.intp)
    codes = np.empty((min(step, len(targets)), ds.n), dtype=code_dtype(ds.d))
    for s in range(0, len(targets), step):
        chunk = targets[s : s + step]
        yield s, match_codes(ds.X, resolved, ds.X[chunk], out=codes[: len(chunk)])


def cohort_table_chunks(ds: Dataset, resolved, targets: np.ndarray, squared: bool):
    """Cohort value tables for many targets, yielded a chunk at a time.

    Yields (chunk_offset, tables) with lattice-major tables of shape
    (2^d, B); column b holds the :func:`cohort_value_tables` table of target
    targets[chunk_offset + b].

    Chunks follow :func:`match_code_chunks`, and each target is charged its
    whole working set, 16n + 24 * 2^d bytes: its int64 bin index and
    repeated y (8n bytes each), and per cell at most 4 bytes of counts, 8
    of float table, 8 of bincount's int64 output and 4 of the half table
    :func:`shapley._phi_from_tables` subtracts into. So a chunk's build and
    contraction stay within about CHUNK_BYTES, an L3 cache's size, for any
    number of targets. The charge is capped at CHUNK_BYTES // 8, a floor of
    8 targets a chunk wherever their float tables alone fit. Where the cap
    binds a chunk holds more than CHUNK_BYTES, 1.5 times as much at d = 18
    over 160 subjects. The charge never falls below a float table's
    8 * 2^d bytes, so at d = 20 a chunk of 4 targets holds about
    3 * CHUNK_BYTES. Narrow chunks no longer pay for short runs, since the
    lattice passes walk those across their blocks (:func:`bits.pass_ufunc`),
    and the cap is mostly a cost: over 160
    subjects, uncapped chunks of 5 targets ran d = 18 about 9% slower, but
    chunks of 1 ran d = 20 in about half the time and half the peak RSS.
    It stays because chunk widths decide the last bits of the phi rows that
    :func:`shapley._phi_from_tables` contracts, so dropping it would move
    the results of every sweep where it binds, as at d >= 18 over 160
    subjects.
    """
    d, n = ds.d, ds.n
    row_bytes = max(8 << d, min(16 * n + (24 << d), CHUNK_BYTES // 8))
    for s, codes in match_code_chunks(ds, resolved, targets, row_bytes):
        yield s, cohort_value_tables(codes, ds.y, d, squared)
