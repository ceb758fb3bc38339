"""The cs game of one target, the benchmark's explain path, and the
baseline sweep over many targets.

A game maps a feature-subset bitmask in [0, 2^d) to a real value, 0 at the
empty set. :func:`make_cs_game` builds the cohort game of one target from
its match codes: a 2^d table up to EXACT_CAP features, else a function of
nonempty masks, called on the masks each request holds; nothing is cached.
It serves the benchmark's explain path alone: every per-target result of
the package comes from :func:`aggregate.local_attributions`.

A baseline method (bs, bs2, abs, abs2) queries a model at the hybrids of a
target with the k rows of :func:`baseline_rows`. :func:`baseline_sweep`, a
function of its arguments alone, is the one builder of hybrid points: it
packs the points of many targets into shared model calls, so a command
starts one model process per call, not one per target. Each sweep leads
with the baseline rows, the hybrids of the empty set.
"""

from __future__ import annotations

import numpy as np

from .bits import EXACT_CAP
from .dataset import Dataset, DatasetError
from .models import predict
from .similarity import cohort_value_tables, cohort_values

# Values (points x d) one model call may carry: a call sends at most
# POINT_CHUNK // d hybrid points.
POINT_CHUNK = 1 << 22

COHORT_METHODS = ("cs", "cs2")
MODEL_METHODS = ("bs", "bs2", "abs", "abs2")


class Game:
    """The cs game of one target (see :func:`make_cs_game`): its 2^d value
    ``table`` indexed by bitmask, or ``evaluate``, which maps an array of
    nonempty masks to their values. Exactly one of the two is given."""

    def __init__(
        self, d: int, method: str, target: int | None = None, *, table=None, evaluate=None
    ):
        self.d = d
        self.method = method
        self.target = target
        self._table = table
        self._evaluate = evaluate

    def values(self, masks: np.ndarray) -> np.ndarray:
        """The values at the int64 ``masks``; the empty set scores 0 and is
        not evaluated."""
        if self._table is not None:
            return self._table[masks]
        out = np.zeros(masks.shape)
        nonempty = masks != 0
        out[nonempty] = self._evaluate(masks[nonempty])
        return out

    def value_table(self) -> np.ndarray | None:
        """The 2^d values indexed by bitmask, read in place; None above
        EXACT_CAP features, where the game is scored per request."""
        return self._table


def make_cs_game(ds: Dataset, codes: np.ndarray, t: int) -> Game:
    """The cs game of target t from its match ``codes`` (see
    :func:`similarity.similarity_row`): its 2^d cohort value table up to
    EXACT_CAP features, else its cohorts scored per request. It is the
    benchmark's explain path; every other per-target result comes from
    :func:`aggregate.local_attributions`."""
    y = ds.y
    if ds.d <= EXACT_CAP:
        return Game(ds.d, "cs", t, table=cohort_value_tables(codes, y, ds.d, False))

    def evaluate(masks):
        return cohort_values(codes[None], y, masks, False)[0]

    return Game(ds.d, "cs", t, evaluate=evaluate)


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

