"""The seven coalition value functions.

Cohort games (cs, cs2, var) average the cohort values of one target or of
every subject, built from observed predictions by the kernels of
:mod:`similarity`: a 2^d table up to EXACT_CAP features, else scored per
requested subset. Baseline-style games (bs, bs2, abs, abs2) query a model at
hybrid points. Every game maps a feature-subset bitmask to a real value with
value(empty) = 0, caches what it has evaluated, and batches model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError
from .models import ModelAdapter, predict
from .similarity import (
    CHUNK_BYTES,
    MAX_CHUNK_TARGETS,
    SimilarityMatrix,
    cohort_table_chunks,
    cohort_value_tables,
    cohort_values,
    match_codes,
    resolve_rules,
    subset_int,
)

# The largest d whose 2^d lattice tables are built: value tables, exact
# Shapley and the realism split. Above it cohort games score subsets lazily.
EXACT_CAP = 20

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
        self._memo: dict[int, float] = {0: 0.0}
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
        missing = [int(m) for m in np.unique(masks) if int(m) not in self._memo]
        if missing:
            got = self._evaluate_many(np.array(missing, dtype=np.int64))
            self._memo.update(zip(missing, map(float, got)))
        return np.array([self._memo[int(m)] for m in masks])

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

    def _code_blocks(self):
        if self._codes is not None:
            yield self._codes[None]
            return
        X = self.ds.X
        step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // (8 * self.ds.n)))
        for s in range(0, len(X), step):
            yield match_codes(X, self._resolved, X[s : s + step])

    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        total = np.zeros(len(masks))
        targets = 0
        for codes in self._code_blocks():
            total += cohort_values(codes, self.ds.y, masks, self.method != "cs").sum(0)
            targets += len(codes)
        return total / targets


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
        table = np.zeros(1 << ds.d)
        for _, tables in cohort_table_chunks(ds, resolved, np.arange(ds.n), squared):
            table += tables.sum(axis=0)
        table /= ds.n
    return TableGame(table, method, target)


def make_cs_game(ds: Dataset, Z: SimilarityMatrix, t: int) -> Game:
    """Cohort refinement values: mean prediction of C_{t,u} minus the grand mean."""
    return _cohort_game(ds, "cs", t, Z.patterns())


def make_cs2_game(ds: Dataset, Z: SimilarityMatrix, t: int) -> Game:
    """Squared cohort refinement values, the per-subject share of variance."""
    return _cohort_game(ds, "cs2", t, Z.patterns())


@dataclass(frozen=True)
class BaselinePoint:
    """A d-vector of baseline predictor levels; need not be an observed row
    (the mean of a binary column lands strictly between its levels)."""

    values: tuple[float, ...]

    @classmethod
    def mean_of(cls, ds: Dataset) -> "BaselinePoint":
        return cls(tuple(float(v) for v in ds.X.mean(axis=0)))

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _baseline_array(baseline, ds: Dataset) -> np.ndarray:
    if isinstance(baseline, BaselinePoint):
        arr = baseline.array()
    elif isinstance(baseline, str) and baseline == "mean":
        arr = BaselinePoint.mean_of(ds).array()
    else:
        arr = np.asarray(baseline, dtype=float)
    if arr.shape != (ds.d,):
        raise DatasetError(f"baseline has shape {arr.shape}, want ({ds.d},)")
    return arr


def _take_matrix(masks: np.ndarray, d: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(d, dtype=np.int64)[None, :] & 1).astype(bool)


class _BaselineGame(Game):
    def __init__(self, ds, t, baseline, model, squared):
        super().__init__(ds.d, "bs2" if squared else "bs", t)
        self.squared = squared
        self.model = model
        self.x_t = ds.X[t].copy()
        self.x_b = _baseline_array(baseline, ds)
        self.f_b = float(predict(model, self.x_b[None, :])[0])

    def hybrid_points(self, masks: np.ndarray) -> np.ndarray:
        take = _take_matrix(np.asarray(masks, dtype=np.int64), self.d)
        return np.where(take, self.x_t[None, :], self.x_b[None, :])

    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        diff = predict(self.model, self.hybrid_points(masks)) - self.f_b
        return diff * diff if self.squared else diff


def make_bs_game(ds: Dataset, t: int, baseline, model: ModelAdapter) -> Game:
    """Baseline values: model output at the target/baseline hybrid minus the
    baseline prediction; one model call per coalition."""
    return _BaselineGame(ds, t, baseline, model, squared=False)


def make_bs2_game(ds: Dataset, t: int, baseline, model: ModelAdapter) -> Game:
    """Squared per-coalition baseline differences."""
    return _BaselineGame(ds, t, baseline, model, squared=True)


class _AllBaselineGame(Game):
    def __init__(self, ds, t, model, squared):
        super().__init__(ds.d, "abs2" if squared else "abs", t)
        self.squared = squared
        self.model = model
        self.X = ds.X
        self.x_t = ds.X[t].copy()
        self.y_base = predict(model, ds.X)

    def hybrid_points(self, masks: np.ndarray) -> np.ndarray:
        """Hybrids of the target with every row as baseline: (len(masks), n, d)."""
        take = _take_matrix(np.asarray(masks, dtype=np.int64), self.d)
        return np.where(take[:, None, :], self.x_t[None, None, :], self.X[None, :, :])

    def _evaluate_many(self, masks: np.ndarray) -> np.ndarray:
        n = self.X.shape[0]
        chunk = max(1, POINT_CHUNK // (n * self.d))
        out = np.empty(len(masks))
        for s in range(0, len(masks), chunk):
            block = masks[s : s + chunk]
            pts = self.hybrid_points(block).reshape(-1, self.d)
            diff = predict(self.model, pts).reshape(len(block), n) - self.y_base
            if self.squared:
                diff = diff * diff
            out[s : s + len(block)] = diff.mean(axis=1)
        return out


def make_abs_game(ds: Dataset, t: int, model: ModelAdapter) -> Game:
    """Baseline values averaged over every observed row as the baseline."""
    return _AllBaselineGame(ds, t, model, squared=False)


def make_abs2_game(ds: Dataset, t: int, model: ModelAdapter) -> Game:
    """Mean squared per-baseline differences over every observed row."""
    return _AllBaselineGame(ds, t, model, squared=True)


def make_game(
    method: str, ds: Dataset, t: int, rules=None, model=None, baseline="mean"
) -> Game:
    """The game of a per-target method for target t.

    Cohort methods (cs, cs2) need similarity ``rules``; baseline-style
    methods (bs, bs2, abs, abs2) need a ``model``, and bs/bs2 a ``baseline``.
    """
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        if not 0 <= t < ds.n:
            raise DatasetError(f"target {t} outside 0..{ds.n - 1}")
        codes = match_codes(ds.X, resolve_rules(rules, ds), ds.X[t])[0]
        return _cohort_game(ds, method, t, codes)
    if method in MODEL_METHODS:
        if model is None:
            raise DatasetError(f"method {method!r} needs a model")
        squared = method.endswith("2")
        if method.startswith("abs"):
            return _AllBaselineGame(ds, t, model, squared)
        return _BaselineGame(ds, t, baseline, model, squared)
    raise DatasetError(f"method {method!r} has no per-target game")


def make_var_game(ds: Dataset, rules) -> Game:
    """Explained-variance values: the subject average of squared cohort values."""
    return _cohort_game(ds, "var", resolved=resolve_rules(rules, ds))
