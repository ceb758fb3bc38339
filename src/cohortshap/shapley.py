"""Shapley engines: exact lattice evaluation and permutation Monte Carlo.

The exact engine materializes the 2^d coalition values once and contracts
them against combinatorial weights. The Monte Carlo engine averages marginal
increments over sampled feature orders, all drawn from one counter-based
Philox stream keyed by the seed: order k is row k of that stream, so the
first k orders are the same whatever the total count, and results do not
depend on how the work is distributed.
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
    """m uniform orders of range(d) as an (m, d) int64 array.

    Row k ranks the k-th block of d uniforms from one Philox stream keyed
    by ``seed``, so it depends only on (seed, k). A stable sort fixes the
    order of the (measure-zero) ties.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    keys = rng.random((m, d))
    return np.argsort(keys, axis=1, kind="stable").astype(np.int64, copy=False)


def shapley_permutation(game: Game, m: int, seed: int) -> Attribution:
    """Monte Carlo Shapley from m sampled feature orders.

    The orders are the first m rows of ``_permutations``' one stream keyed
    by ``seed``: order k depends only on (seed, k), so the estimate is
    reproducible and the orders of a smaller m are a prefix of those of a
    larger one. All (d + 1) * m coalitions go to ``game.values`` in one
    call; the total is read from those rows, which all start at the empty
    set and end at the full one. Standard errors are per-feature sample
    deviations of the increments.
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
    total = float(flat_values[0, -1] - flat_values[0, 0])
    if not (math.isfinite(total) and np.isfinite(phi).all()):
        raise ValueError("game total is not finite")
    return Attribution(
        phi=phi,
        total=total,
        method=game.method,
        target=game.target,
        stderr=_stderr(samples),
        permutations_used=m,
    )


def _stderr(samples: np.ndarray) -> np.ndarray:
    """Per-feature standard error of the mean of the (m, d) increments.

    Squares of increments near the float limit overflow although their
    deviation does not; such a feature's deviation is taken on its samples
    scaled by their largest magnitude."""
    m = len(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(m)
        bad = ~np.isfinite(stderr)
        if bad.any():
            scale = np.abs(samples[:, bad]).max(axis=0)
            deviation = (samples[:, bad] / scale).std(axis=0, ddof=1)
            stderr[bad] = deviation / math.sqrt(m) * scale
    if not np.isfinite(stderr).all():
        raise ValueError("Monte Carlo standard error is not finite")
    return stderr


def shapley_engine(
    game: Game, engine: str = "exact", permutations: int = 1000, seed: int = 0
) -> Attribution:
    """Shapley values of ``game`` by the named engine, "exact" or "mc"."""
    if engine == "exact":
        return shapley_exact(game)
    if engine == "mc":
        return shapley_permutation(game, permutations, seed)
    raise ValueError(f"unknown engine {engine!r}")
