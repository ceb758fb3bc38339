"""Shapley engines: exact lattice evaluation and permutation Monte Carlo.

The exact engine materializes the 2^d coalition values once and contracts
them against combinatorial weights; the Monte Carlo engine averages marginal
increments over sampled feature orders with counter-based per-permutation
seeds, so results do not depend on how the work is distributed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import halves, subset_sizes
from .games import EXACT_CAP, Game


@dataclass(frozen=True)
class Attribution:
    """Per-feature Shapley values summing to the grand-coalition value."""

    phi: np.ndarray
    total: float
    method: str
    target: int | None = None
    stderr: np.ndarray | None = None
    permutations_used: int | None = None

    @property
    def d(self) -> int:
        return len(self.phi)


def shapley_weight_table(d: int) -> np.ndarray:
    """Weights w[s] = 1 / (d * C(d-1, s)) applied to a size-s conditioning set.

    Binomials come from exact integer arithmetic, so no intermediate
    overflow occurs for any supported d.
    """
    if not 1 <= d <= EXACT_CAP:
        raise ValueError(f"d={d} outside 1..{EXACT_CAP}")
    return np.array([1.0 / (d * math.comb(d - 1, s)) for s in range(d)])


def _phi_from_tables(tables: np.ndarray, d: int) -> np.ndarray:
    """Exact Shapley from coalition-value tables.

    ``tables`` has subset-indexed values on the last axis (one row per game);
    returns matching rows of d Shapley values. Feature j's value contracts
    the increments v(u + j) - v(u) against the weights of the sets u.
    """
    tables = np.ascontiguousarray(np.atleast_2d(tables))
    if tables.shape[-1] != 1 << d:
        raise ValueError("value table length does not match d")
    w = shapley_weight_table(d)
    sizes = subset_sizes(d)
    lead = tables.shape[:-1]
    phi = np.empty(lead + (d,))
    for j in range(d):
        lo, hi = halves(tables, d, j)
        weights = w[halves(sizes, d, j)[0]].reshape(-1)
        phi[..., j] = (hi - lo).reshape(lead + (-1,)) @ weights
    return phi


def shapley_exact(game: Game) -> Attribution:
    """Evaluate every coalition once and apply the exact allocation formula."""
    if game.d > EXACT_CAP:
        raise ValueError(
            f"d={game.d} exceeds the exact cap {EXACT_CAP}; "
            "use shapley_permutation instead"
        )
    values = game.value_table()
    total = float(values[-1] - values[0])
    if not math.isfinite(total):
        raise ValueError("game total is not finite")
    phi = _phi_from_tables(values, game.d)[0]
    return Attribution(phi=phi, total=total, method=game.method, target=game.target)


def _permutations(d: int, m: int, seed: int) -> np.ndarray:
    perms = np.empty((m, d), dtype=np.int64)
    for k in range(m):
        perms[k] = np.random.default_rng([seed, k]).permutation(d)
    return perms


def shapley_permutation(game: Game, m: int, seed: int) -> Attribution:
    """Monte Carlo Shapley from m sampled feature orders.

    Permutation k is drawn from a generator seeded by (seed, k), so the
    estimate is reproducible and independent of any worker partitioning.
    Standard errors are per-feature sample deviations of the increments.
    """
    if m < 2:
        raise ValueError("need at least two permutations for a standard error")
    d = game.d
    perms = _permutations(d, m, seed)
    prefixes = np.bitwise_or.accumulate(
        np.int64(1) << perms, axis=1
    )  # (m, d) growing coalitions
    masks = np.concatenate([np.zeros((m, 1), dtype=np.int64), prefixes], axis=1)
    flat_values = game.values(masks.reshape(-1)).reshape(m, d + 1)
    increments = np.diff(flat_values, axis=1)
    samples = np.empty((m, d))
    np.put_along_axis(samples, perms, increments, axis=1)
    phi = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(m)
    total = float(game.value(game.full_mask) - game.value(0))
    return Attribution(
        phi=phi,
        total=total,
        method=game.method,
        target=game.target,
        stderr=stderr,
        permutations_used=m,
    )


def shapley_engine(
    game: Game, engine: str = "exact", permutations: int = 1000, seed: int = 0
) -> Attribution:
    """Shapley values of ``game`` by the named engine, "exact" or "mc"."""
    if engine == "exact":
        return shapley_exact(game)
    if engine == "mc":
        return shapley_permutation(game, permutations, seed)
    raise ValueError(f"unknown engine {engine!r}")
