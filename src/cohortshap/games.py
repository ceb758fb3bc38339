"""Coalition value functions, built by one per-target factory
(:func:`make_game`), and the cohort sweep.

Cohort games (cs, cs2, var) average the cohort values of one target or of
every subject, built from observed predictions by the kernels of
:mod:`similarity`: a 2^d table up to EXACT_CAP features, else scored per
requested subset. :func:`cohort_value_sweep` is the one pass over the
cohort tables of many targets: it builds the var game's subject-mean table
and the exact Shapley rows of many cs or cs2 games. One baseline game
(bs, bs2, abs, abs2) queries a model at the hybrids of the target with k
baseline rows: the configured baseline for bs/bs2, every observed row for
abs/abs2. The baseline rows are the hybrids of the empty set, so they ride
the game's first model call instead of a call of their own. Every game maps
a feature-subset bitmask to a real value with value(empty) = 0, caches what
it has evaluated, and batches model calls.
"""

from __future__ import annotations

import numpy as np

from .bits import EXACT_CAP
from .dataset import Dataset, DatasetError
from .models import predict
from .shapley import _phi_from_tables
from .similarity import (
    cohort_table_chunks,
    cohort_value_tables,
    cohort_values,
    match_code_chunks,
    resolve_rules,
    similarity_row,
    subset_int,
)

# Batched model evaluations are chunked to roughly this many points.
POINT_CHUNK = 1 << 22

COHORT_METHODS = ("cs", "cs2")
MODEL_METHODS = ("bs", "bs2", "abs", "abs2")


class Game:
    """A coalition value function over subsets of 1..d features."""

    def __init__(self, d: int, method: str, target: int | None = None):
        if d < 1:
            raise ValueError("games need at least one feature")
        self.d = d
        self.method = method
        self.target = target
        # memo of evaluated subsets: sorted masks and their values
        self._keys = np.zeros(1, dtype=np.int64)
        self._vals = np.zeros(1)
        self._table: np.ndarray | None = None

    # subclasses implement batch evaluation of integer subset masks
    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def full_mask(self) -> int:
        return (1 << self.d) - 1

    def value(self, u) -> float:
        return float(self.values([subset_int(u, self.d)])[0])

    def values(self, masks) -> np.ndarray:
        masks = np.asarray(masks, dtype=np.int64)
        if self._table is not None:
            return self._table[masks]
        wanted, inverse = np.unique(masks, return_inverse=True)
        at = np.searchsorted(self._keys, wanted)
        known = self._keys[np.minimum(at, len(self._keys) - 1)] == wanted
        if not known.all():
            missing = wanted[~known]
            got = np.asarray(self._evaluate_many(missing), dtype=float)
            self._keys = np.insert(self._keys, at[~known], missing)
            self._vals = np.insert(self._vals, at[~known], got)
            at = np.searchsorted(self._keys, wanted)
        return self._vals[at][inverse].reshape(masks.shape)

    def value_table(self) -> np.ndarray:
        """Values of every subset, indexed by bitmask. Requires d <= EXACT_CAP."""
        if self._table is None:
            if self.d > EXACT_CAP:
                raise ValueError(
                    f"d={self.d} is too large for a full 2^d value table"
                )
            self._table = self.values(np.arange(1 << self.d))
        return self._table

    @property
    def total(self) -> float:
        return self.value(self.full_mask)


class TableGame(Game):
    """Game backed by an explicit 2^d value array (entry 0 must be 0)."""

    def __init__(self, table: np.ndarray, method: str, target: int | None = None):
        table = np.array(table, dtype=float)
        d = int(table.size).bit_length() - 1
        if 1 << d != table.size:
            raise ValueError(f"table size {table.size} is not a power of two")
        super().__init__(d, method, target)
        table[0] = 0.0
        self._table = table


class _LazyCohortGame(Game):
    """A cohort game above EXACT_CAP: each requested subset is scored
    against the match codes of the game's targets, a block at a time."""

    def __init__(self, ds: Dataset, method: str, target, codes, resolved):
        super().__init__(ds.d, method, target)
        self.ds = ds
        self._codes = codes
        self._resolved = resolved

    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        if self._codes is not None:
            chunks = [(0, self._codes[None])]
        else:
            chunks = match_code_chunks(self.ds, self._resolved, range(self.ds.n), 0)
        total = np.zeros(len(masks))
        targets = 0
        for _, codes in chunks:
            total += cohort_values(codes, self.ds.y, masks, self.method != "cs").sum(0)
            targets += len(codes)
        return total / targets


def cohort_value_sweep(
    ds: Dataset,
    resolved,
    targets=None,
    squared: bool = False,
    rows: bool = True,
    mean: bool = False,
):
    """One pass over the cohort tables of ``targets`` (every subject when
    None) under ``resolved`` rules: (mean table, phi rows, totals).

    With ``mean``, each chunk's tables are summed into one 2^d table, chunk
    after chunk in target order, which is divided by the target count at
    the end. With ``rows``, each chunk is also contracted into the targets'
    exact Shapley rows and their totals. What is not asked for is None.
    Memory stays bounded by the chunk, not by targets x 2^d.
    """
    if ds.d > EXACT_CAP:
        raise DatasetError(f"d={ds.d} too large for the dense cohort sweep")
    targets = np.arange(ds.n) if targets is None else np.asarray(targets, np.intp)
    table = np.zeros(1 << ds.d) if mean else None
    phi = np.empty((len(targets), ds.d)) if rows else None
    totals = np.empty(len(targets)) if rows else None
    for s, tables in cohort_table_chunks(ds, resolved, targets, squared):
        if mean:
            table += tables.sum(axis=0)
        if rows:
            phi[s : s + len(tables)] = _phi_from_tables(tables, ds.d)
            totals[s : s + len(tables)] = tables[:, -1]
    if mean:
        table /= len(targets)
    return table, phi, totals


def _cohort_game(ds: Dataset, method: str, target=None, codes=None, resolved=None):
    """The cohort game of ``method``: the cohort values (squared for cs2 and
    var) of the one target whose match ``codes`` are given, or their average
    over every subject under ``resolved`` rules."""
    if ds.predictions is None:
        raise DatasetError(f"the {method} game needs predictions attached")
    squared = method != "cs"
    if ds.d > EXACT_CAP:
        return _LazyCohortGame(ds, method, target, codes, resolved)
    if codes is not None:
        table = cohort_value_tables(codes, ds.y, ds.d, squared)
    else:
        table, _, _ = cohort_value_sweep(
            ds, resolved, squared=squared, rows=False, mean=True
        )
    return TableGame(table, method, target)


def make_cs_game(ds: Dataset, codes: np.ndarray, t: int) -> Game:
    """The cs game of target t from its match ``codes`` (see
    :func:`similarity.similarity_row`). It stays only for the benchmark's
    explain path; every other caller uses :func:`make_game`."""
    return _cohort_game(ds, "cs", t, codes)


def _baseline_array(baseline, ds: Dataset) -> np.ndarray:
    """The baseline point: "mean" for the column means, or d numbers; it
    need not be an observed row (the mean of a binary column lands strictly
    between its levels)."""
    if isinstance(baseline, str) and baseline == "mean":
        arr = ds.X.mean(axis=0)
    else:
        arr = np.asarray(baseline, dtype=float)
    if arr.shape != (ds.d,):
        raise DatasetError(f"baseline has shape {arr.shape}, want ({ds.d},)")
    return arr


class _BaselineGame(Game):
    """The model at the hybrid taking the target on u and a baseline row
    elsewhere, minus the model at that row (squared for bs2 and abs2),
    averaged over the k rows of ``baselines``."""

    def __init__(self, ds: Dataset, method: str, t: int, baselines, model):
        super().__init__(ds.d, method, t)
        self.squared = method.endswith("2")
        self.model = model
        self.x_t = ds.X[t].copy()
        self.baselines = baselines
        self.f_b: np.ndarray | None = None  # model at the baselines, once called

    def _diff_chunks(self, masks):
        """Per-baseline differences of ``masks``, one chunk of about
        POINT_CHUNK hybrid points, hence one model call, at a time. Until
        ``f_b`` is known, the first chunk leads with the empty set, whose
        hybrids are the baseline rows."""
        masks = np.asarray(masks, dtype=np.int64)
        lead = self.f_b is None
        if lead:
            masks = np.concatenate([np.zeros(1, dtype=np.int64), masks])
        k = len(self.baselines)
        chunk = max(1, POINT_CHUNK // (k * self.d))
        for s in range(0, len(masks), chunk):
            block = masks[s : s + chunk]
            take = (block[:, None] >> np.arange(self.d) & 1).astype(bool)
            pts = np.where(take[:, None, :], self.x_t, self.baselines)
            diff = predict(self.model, pts.reshape(-1, self.d)).reshape(len(block), k)
            if lead:
                self.f_b, diff, lead = diff[0].copy(), diff[1:], False
            diff -= self.f_b
            yield diff * diff if self.squared else diff

    def baseline_diffs(self, masks) -> np.ndarray:
        """(len(masks), k) per-baseline differences of nonempty ``masks``."""
        return np.concatenate(list(self._diff_chunks(masks)))

    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        return np.concatenate([diff.mean(axis=1) for diff in self._diff_chunks(masks)])


def make_game(
    method: str, ds: Dataset, t: int, rules=None, model=None, baseline="mean"
) -> Game:
    """The game of a per-target method for target t.

    Cohort methods (cs, cs2) need similarity ``rules``; baseline-style
    methods (bs, bs2, abs, abs2) need a ``model``, and bs/bs2 a ``baseline``
    ("mean" or d numbers).
    """
    if not 0 <= t < ds.n:
        raise DatasetError(f"target {t} outside 0..{ds.n - 1}")
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        return _cohort_game(ds, method, t, similarity_row(rules, ds, t))
    if method in MODEL_METHODS:
        if model is None:
            raise DatasetError(f"method {method!r} needs a model")
        if method.startswith("abs"):
            baselines = ds.X
        else:
            baselines = _baseline_array(baseline, ds)[None, :]
        return _BaselineGame(ds, method, t, baselines, model)
    raise DatasetError(f"method {method!r} has no per-target game")


def make_var_game(ds: Dataset, rules) -> Game:
    """Explained-variance values: the subject average of squared cohort values."""
    return _cohort_game(ds, "var", resolved=resolve_rules(rules, ds))
