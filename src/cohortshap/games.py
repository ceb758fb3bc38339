"""Coalition value functions, built by one per-target factory
(:func:`make_game`), and the sweeps over many targets.

A game maps a feature-subset bitmask in [0, 2^d) to a real value with
value(empty) = 0. It is either a 2^d value table or a function of nonempty
masks, called on the masks each request holds; nothing is cached.

A cohort game (cs, cs2) holds the cohort values of one target, squared for
cs2, built from observed predictions by the kernels of :mod:`similarity`: a
2^d table up to EXACT_CAP features, else scored per requested subset.
:func:`cohort_value_chunks` gives the values of many targets at one set of
subsets, a chunk of targets at a time, by the same two kernels: the sweeps
of ``aggregate.local_attributions`` and ``aggregate.global_attribution``
read them without building a game per target, and the var game of
``global`` is their subject mean.

A baseline game (bs, bs2, abs, abs2) queries a model at the hybrids of its
target with the k rows of :func:`baseline_rows`. :func:`baseline_sweep`, a
function of its arguments alone, is the one builder of hybrid points: it
packs the points of many targets into shared model calls, so a command
starts one model process per call, not one per target. Each sweep leads
with the baseline rows, the hybrids of the empty set, so a game evaluated
in two calls sends them twice.
"""

from __future__ import annotations

import numpy as np

from .bits import EXACT_CAP
from .dataset import Dataset, DatasetError
from .models import predict
from .similarity import (
    cohort_table_chunks,
    cohort_value_tables,
    cohort_values,
    match_code_chunks,
    similarity_row,
    subset_int,
)

# Values (points x d) one model call may carry: a call sends at most
# POINT_CHUNK // d hybrid points.
POINT_CHUNK = 1 << 22

COHORT_METHODS = ("cs", "cs2")
MODEL_METHODS = ("bs", "bs2", "abs", "abs2")


class Game:
    """A coalition value function over subsets of 1..d features: the 2^d
    value ``table`` indexed by bitmask, or ``evaluate``, which maps an array
    of nonempty masks to their values. Exactly one of the two is given."""

    def __init__(
        self, d: int, method: str, target: int | None = None, *, table=None, evaluate=None
    ):
        if d < 1:
            raise ValueError("games need at least one feature")
        if (table is None) == (evaluate is None):
            raise ValueError("a game needs exactly one of table and evaluate")
        self.d = d
        self.method = method
        self.target = target
        self._table = table
        self._evaluate = evaluate

    @property
    def full_mask(self) -> int:
        return (1 << self.d) - 1

    def value(self, u) -> float:
        return float(self.values([subset_int(u, self.d)])[0])

    def values(self, masks) -> np.ndarray:
        masks = np.asarray(masks)
        if masks.dtype.kind not in "biu":
            for u in masks.flat:  # a float is never truncated to a mask
                subset_int(u, self.d)
        masks = masks.astype(np.int64, copy=False)
        # a mask outside [0, 2^d) has a bit at d or above: subset_int rejects it
        if np.bitwise_or.reduce(masks, axis=None) >> self.d:
            subset_int(int(masks[masks >> self.d != 0][0]), self.d)
        if self._table is not None:
            return self._table[masks]
        out = np.zeros(masks.shape)
        nonempty = masks != 0
        if nonempty.any():  # a request of empty sets alone calls no model
            out[nonempty] = self._evaluate(masks[nonempty])
        return out

    def value_table(self) -> np.ndarray:
        """Values of every subset, indexed by bitmask. Requires d <= EXACT_CAP."""
        if self._table is not None:
            return self._table
        if self.d > EXACT_CAP:
            raise ValueError(f"d={self.d} is too large for a full 2^d value table")
        return self.values(np.arange(1 << self.d))

    @property
    def total(self) -> float:
        return self.value(self.full_mask)


def TableGame(table, method: str, target: int | None = None) -> Game:
    """The game of an explicit 2^d value array, d >= 1, copied as floats;
    its entry 0 is set to 0."""
    table = np.array(table, dtype=float)
    d = int(table.size).bit_length() - 1
    if 1 << d != table.size:
        raise ValueError(f"table size {table.size} is not a power of two")
    table[0] = 0.0
    return Game(d, method, target, table=table)


def cohort_value_chunks(ds: Dataset, resolved, targets, masks, squared: bool):
    """The cohort values (squared with ``squared``) of ``targets`` at the
    empty set and the sorted nonempty ``masks``, every one when None, under
    ``resolved`` rules, a chunk of targets at a time.

    Yields (chunk_offset, values): column b of the (1 + len(masks), B)
    ``values`` belongs to target targets[chunk_offset + b], and its row 0 is
    the empty set's 0, row 1 + i the value at masks[i] (at mask i + 1 for
    None). Up to EXACT_CAP features the values come from the tables of
    :func:`similarity.cohort_table_chunks`: when ``masks`` are every
    nonempty set they are those lattice-major tables, else rows gathered
    from them. Above it :func:`similarity.cohort_values` scores the masks on
    the chunks of :func:`similarity.match_code_chunks`, sized for the
    values.
    """
    if ds.d <= EXACT_CAP:
        every = masks is None or len(masks) == (1 << ds.d) - 1
        rows = None if every else np.concatenate(([0], masks))
        for s, tables in cohort_table_chunks(ds, resolved, targets, squared):
            yield s, tables if rows is None else tables[rows]
        return
    for s, codes in match_code_chunks(ds, resolved, targets, 8 * len(masks)):
        values = cohort_values(codes, ds.y, masks, squared)
        yield s, np.concatenate((np.zeros((len(codes), 1)), values), axis=1).T


def _cohort_game(ds: Dataset, method: str, target: int, codes: np.ndarray) -> Game:
    """The cohort game of ``method`` for the one target whose match ``codes``
    are given: its cohort values, squared for cs2, as the 2^d table up to
    EXACT_CAP features, else scored per request."""
    if ds.predictions is None:
        raise DatasetError(f"the {method} game needs predictions attached")
    squared, y = method != "cs", ds.y
    if ds.d <= EXACT_CAP:
        table = cohort_value_tables(codes, y, ds.d, squared)
        return Game(ds.d, method, target, table=table)

    def evaluate(masks):
        return cohort_values(codes[None], y, masks, squared)[0]

    return Game(ds.d, method, target, evaluate=evaluate)


def make_cs_game(ds: Dataset, codes: np.ndarray, t: int) -> Game:
    """The cs game of target t from its match ``codes`` (see
    :func:`similarity.similarity_row`). It stays only for the benchmark's
    explain path; every other caller uses :func:`make_game`."""
    return _cohort_game(ds, "cs", t, codes)


def baseline_rows(method: str, ds: Dataset, model, baseline) -> np.ndarray:
    """The (k, d) baseline rows of a baseline-style ``method``: every
    observed row for abs/abs2, else the one ``baseline``, "mean" for the
    column means or d numbers. A baseline need not be an observed row (the
    mean of a binary column lands strictly between its levels)."""
    if method not in MODEL_METHODS:
        raise DatasetError(f"method {method!r} has no per-target game")
    if model is None:
        raise DatasetError(f"method {method!r} needs a model")
    if method.startswith("abs"):
        return ds.X
    if isinstance(baseline, str) and baseline == "mean":
        arr = ds.X.mean(axis=0)
    else:
        arr = np.asarray(baseline, dtype=float)
    if arr.shape != (ds.d,):
        raise DatasetError(f"baseline has shape {arr.shape}, want ({ds.d},)")
    return arr[None, :]


def _checked_targets(ds: Dataset, targets) -> list[int]:
    """``targets`` as ints, each checked to be a row of ``ds``."""
    targets = [int(t) for t in targets]
    for t in targets:
        if not 0 <= t < ds.n:
            raise DatasetError(f"target {t} outside 0..{ds.n - 1}")
    return targets


def _hybrid_block(X, masks, baselines: np.ndarray, start: int, stop: int):
    """Points ``start:stop`` of a sweep's hybrid stream: the empty set's k
    hybrids (the baseline rows), then for each target row of ``X`` and each
    of ``masks`` its k hybrids, the target on the mask's features and
    baseline row b elsewhere. Whole masks are built, each target's at once,
    and sliced to the block."""
    k, d = baselines.shape
    first = start // k
    row = np.arange(first, -(-stop // k)) - 1  # -1 is the empty set
    # the empty set's row rides with the first target's; it takes no feature
    target, at = np.divmod(np.maximum(row, 0), len(masks) or 1)
    u = np.zeros(len(row), dtype=np.int64)
    u[row >= 0] = masks[at[row >= 0]]
    take = (u[:, None] >> np.arange(d) & 1).astype(bool)
    ts, cuts = np.unique(target, return_index=True)
    parts = [
        np.where(take[a:b, None, :], X[t], baselines)
        for t, a, b in zip(ts, cuts, [*cuts[1:], len(row)])
    ]
    points = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return points.reshape(-1, d)[start - first * k : stop - first * k]


def baseline_sweep(model, baselines, method: str, X, masks, per_baseline: bool = False):
    """The values of the nonempty ``masks`` (every one when None) in the
    ``method`` games of every target row of ``X``, under ``model`` and the
    (k, d) ``baselines``.
    Yields one (len(masks),) array per row of X, in order, or with
    ``per_baseline`` its (len(masks), k) per-baseline differences.

    The sweep leads with the empty set, whose hybrids are the baseline rows,
    so the model at them rides the first call. The hybrid points of
    consecutive targets are packed into model calls of at most POINT_CHUNK
    values, POINT_CHUNK // d points, so a target's points may straddle two
    calls. Each call's points are built when it is made, so one call's
    points are held, not every target's. A difference is the model at a
    hybrid minus the model at its baseline row, squared for bs2 and abs2,
    and a value is the mean of a mask's k differences. A target's values
    are yielded once its last point is predicted.
    """
    if not len(X):
        return
    k, d = baselines.shape
    masks = np.asarray(np.arange(1, 1 << d) if masks is None else masks, dtype=np.int64)
    total, size = k * (1 + len(X) * len(masks)), max(1, POINT_CHUNK // d)
    blocks = (
        _hybrid_block(X, masks, baselines, s, min(s + size, total))
        for s in range(0, total, size)
    )
    preds = np.empty(0)

    def rows(n: int) -> np.ndarray:
        """Up to n next whole rows of k predictions, calling the model while
        less than one row is held."""
        nonlocal preds
        while len(preds) < k:
            preds = np.concatenate([preds, predict(model, next(blocks))])
        n = min(n, len(preds) // k)
        out, preds = preds[: n * k].reshape(n, k), preds[n * k :]
        return out

    f_b = rows(1)[0].copy()
    for _ in range(len(X)):
        out = np.empty((len(masks), k) if per_baseline else len(masks))
        done = 0
        while done < len(masks):
            diff = rows(len(masks) - done) - f_b
            if method.endswith("2"):
                diff *= diff
            out[done : done + len(diff)] = diff if per_baseline else diff.mean(axis=1)
            done += len(diff)
        yield out


def make_game(
    method: str, ds: Dataset, t: int, rules=None, model=None, baseline="mean"
) -> Game:
    """The game of a per-target method for target t.

    Cohort methods (cs, cs2) need similarity ``rules``: up to EXACT_CAP
    features the game is the target's 2^d cohort value table, above it the
    cohorts of each call's masks are scored. Baseline-style methods (bs,
    bs2, abs, abs2) need a ``model``, and bs/bs2 a ``baseline`` ("mean" or d
    numbers); their game calls :func:`baseline_sweep` on each request's
    nonempty masks, one model call or more per request.
    """
    (t,) = _checked_targets(ds, [t])
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        return _cohort_game(ds, method, t, similarity_row(rules, ds, t))
    baselines, x_t = baseline_rows(method, ds, model, baseline), ds.X[t].copy()

    def evaluate(masks):
        return next(baseline_sweep(model, baselines, method, x_t[None], masks))

    return Game(ds.d, method, t, evaluate=evaluate)
