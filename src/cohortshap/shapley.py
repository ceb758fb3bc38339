"""Shapley engines: exact lattice evaluation and permutation Monte Carlo.

The exact engine materializes the 2^d coalition values once and contracts
them against combinatorial weights. The Monte Carlo engine averages marginal
increments over sampled feature orders in antithetic pairs: order 2i ranks
block i of one counter-based Philox stream keyed by the seed, and order
2i + 1 is order 2i reversed. Order k thus depends only on (seed, k), so the
first k orders are the same whatever the total count, and results do not
depend on how the work is distributed. A reversed pair averages to the exact
Shapley value on any game of main effects and pairwise interactions, so
standard errors are taken over the pair means (see :func:`_stderr`).
:func:`shapley_from_orders` is the one estimator, on the increments that
each feature's arrivals add to one game or to a block of games.
:func:`shapley_permutation` takes one game's values along the orders and
scatters their increments to the arriving features with one flat-index
assignment (:func:`arrival_slots`). The sweep of
``aggregate.local_attributions`` gives a block of targets' value columns at
a time to :func:`gather_increments`, which gathers the whole block's
increments at the rows where each feature joins each order
(:func:`arrival_rows`, found once per draw). A block's increments are laid
out one order a row, so the estimator's sums run along rows of every
feature of every game in the block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bits import EXACT_CAP, halves, pass_ufunc, subset_sizes

if TYPE_CHECKING:
    from .games import Game


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


@functools.cache
def _halves_weights(d: int) -> np.ndarray:
    """The weights of the sets u without feature j, in the order of the low
    half of :func:`bits.halves` whatever j is: those sets have the popcounts
    of the (d-1)-bit lattice there (see :mod:`bits`). Built once per d and
    read-only, since every contraction shares it."""
    weights = shapley_weight_table(d)[subset_sizes(d - 1)]
    weights.flags.writeable = False
    return weights


def _phi_from_tables(tables: np.ndarray, d: int) -> np.ndarray:
    """Exact Shapley from coalition-value tables.

    ``tables`` is one lattice table (2^d,) or the lattice-major tables
    (2^d, B) of B games; returns their (B, d) rows of Shapley values, B = 1
    for one table. Feature j's value contracts the increments
    v(u + j) - v(u) against the weights of the sets u without j: one GEMV
    of the weights with the (2^(d-1), B) increments, which every feature
    writes into the same half-table buffer, allocated once per call, with
    :func:`bits.pass_ufunc`. One weight vector, :func:`_halves_weights`,
    serves every feature.
    """
    tables = np.ascontiguousarray(tables)
    if tables.shape[0] != 1 << d:
        raise ValueError("value table length does not match d")
    tables = tables.reshape(1 << d, -1)
    weights = _halves_weights(d)
    phi = np.empty((tables.shape[1], d))
    increments = np.empty((1 << (d - 1), tables.shape[1]))
    for j in range(d):
        lo, hi = halves(tables, d, j)
        pass_ufunc(np.subtract, hi, lo, increments.reshape(lo.shape))
        phi[:, j] = weights @ increments
    return phi


def _check_exact_cap(d: int) -> None:
    if d > EXACT_CAP:
        raise ValueError(
            f"d={d} exceeds the exact cap {EXACT_CAP}; use shapley_permutation instead"
        )


def shapley_exact(game: Game) -> Attribution:
    """Evaluate every coalition once and apply the exact allocation formula.
    A game whose total or Shapley values overflow raises ValueError."""
    _check_exact_cap(game.d)
    values = game.value_table()
    # an overflow shows as a non-finite total or phi, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(values[-1] - values[0])
        phi = _phi_from_tables(values, game.d)[0]
    if not (math.isfinite(total) and np.isfinite(phi).all()):
        raise ValueError("game total is not finite")
    return Attribution(phi=phi, total=total, method=game.method, target=game.target)


def _permutations(d: int, m: int, seed: int) -> np.ndarray:
    """m orders of range(d) in antithetic pairs, as an (m, d) int64 array.

    Row 2i ranks the i-th block of d uniforms from one Philox stream keyed
    by ``seed``, so it is a uniform order; row 2i + 1 is row 2i reversed.
    Row k depends only on (seed, k), and an odd m ends on an unpaired row.
    A stable sort fixes the order of the (measure-zero) ties.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    keys = rng.random((-(-m // 2), d))
    ranked = np.argsort(keys, axis=1, kind="stable")
    perms = np.empty((2 * len(ranked), d), dtype=np.int64)
    perms[0::2] = ranked
    perms[1::2] = ranked[:, ::-1]
    return perms[:m]


def permutation_masks(d: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The first m orders of ``_permutations``' stream keyed by ``seed``,
    each even one followed by its reverse, and the (m, d + 1) coalitions
    along each: the empty set, then one more feature at a time up to the
    full set."""
    if m < 2:
        raise ValueError("need at least two permutations for a standard error")
    perms = _permutations(d, m, seed)
    prefixes = np.bitwise_or.accumulate(np.int64(1) << perms, axis=1)
    masks = np.concatenate([np.zeros((m, 1), dtype=np.int64), prefixes], axis=1)
    return perms, masks


def shapley_permutation(game: Game, m: int, seed: int) -> Attribution:
    """Monte Carlo Shapley from m sampled feature orders.

    The orders and their coalitions come from :func:`permutation_masks`:
    order 2i is drawn and order 2i + 1 is its reverse, and order k depends
    only on (seed, k), so the estimate is reproducible and the orders of a
    smaller m are a prefix of those of a larger one. All (d + 1) * m
    coalitions go to ``game.values`` in one call. One subtract takes the
    increments along each order, one flat-index assignment scatters them to
    the features that arrive with them, and :func:`shapley_from_orders`
    turns them into the estimate; the total is read from the first order,
    which starts at the empty set and ends at the full one.
    """
    perms, masks = permutation_masks(game.d, m, seed)
    values = game.values(masks.reshape(-1)).reshape(masks.shape)
    samples = np.empty((*perms.shape, 1))
    # an overflow shows as a non-finite total or phi, refused by the estimator
    with np.errstate(over="ignore", invalid="ignore"):
        increments = values[:, 1:] - values[:, :-1]
        totals = values[0, -1:] - values[0, :1]
    samples.reshape(-1)[arrival_slots(perms)] = increments.reshape(-1)
    return shapley_from_orders(samples, totals, game.method, [game.target])[0]


def arrival_slots(perms: np.ndarray) -> np.ndarray:
    """The flat index i * d + perms[i, k] of the k-th arrival of order i
    among the (m, d) per-feature increments of the (m, d) orders ``perms``."""
    m, d = perms.shape
    return (perms + d * np.arange(m)[:, None]).reshape(-1)


def arrival_rows(perms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (2, m, d) rows, in a table of coalition values, of the
    coalitions just before and just after feature j joins order i of the
    (m, d) orders ``perms``, placed by :func:`arrival_slots`; ``rows``
    (m, d + 1) holds the table rows of the coalitions along each order."""
    slots = arrival_slots(perms)
    arrived = np.empty((2, *perms.shape), dtype=np.intp)
    arrived[0].reshape(-1)[slots] = rows[:, :-1].reshape(-1)
    arrived[1].reshape(-1)[slots] = rows[:, 1:].reshape(-1)
    return arrived


def gather_increments(arrived: np.ndarray, values: np.ndarray):
    """The (m, d, B) increments that each feature's arrivals add to B
    games, and their (B,) totals, from the (R, B) table ``values`` of the
    games' coalition values, one column a game, whose first row is the
    empty set and last row the full one, and the :func:`arrival_rows`
    ``arrived`` into it. Two gathers and a subtract take the whole block,
    and a game's total is its last value less its first."""
    # an overflow shows as a non-finite total or phi, refused by the estimator
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.take(values, arrived[1].reshape(-1), axis=0)
        samples -= np.take(values, arrived[0].reshape(-1), axis=0)
        return samples.reshape(*arrived.shape[1:], -1), values[-1] - values[0]


def shapley_from_orders(
    samples: np.ndarray, totals: np.ndarray, method: str, targets
) -> list[Attribution]:
    """The Monte Carlo estimates of B games from the (m, d, B) increments
    ``samples`` that the arrivals of each feature add along m orders in
    reversed pairs (:func:`permutation_masks`), with the games' (B,)
    ``totals`` and their B ``targets``.

    Feature j's estimate is the mean of its increments, and standard errors
    come from :func:`_stderr`, over the pair means. A non-finite total,
    estimate or standard error raises ValueError.
    """
    m = len(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.mean by hand, bit for bit: on a few orders its Python wrapper
        # costs a measurable share of an estimate
        phi = samples.sum(axis=0) / m
        if not (np.isfinite(totals).all() and np.isfinite(phi).all()):
            raise ValueError("game total is not finite")
        stderr = _stderr(samples)
    return [
        Attribution(phi=row, total=total, method=method, target=t, stderr=error,
                    permutations_used=m)
        for row, total, t, error in zip(
            np.ascontiguousarray(phi.T), totals.tolist(), targets,
            np.ascontiguousarray(stderr.T),
        )
    ]


def _stderr(samples: np.ndarray) -> np.ndarray:
    """Per-feature standard errors (d, B) of the means of the (m, d, B)
    increments of B games along m orders in reversed pairs (orders 2i and
    2i + 1), under the caller's ``np.errstate``; ValueError if one is not
    finite.

    The two orders of a pair are not independent, so with p = m // 2 >= 2
    pairs the variance of the sum is 4p times the sample variance of the
    pair means, plus, for odd m, the sample variance of all m increments
    for the unpaired last order; the standard error is its root over m.
    For even m that is the pair means' deviation over sqrt(p). With m of 2
    or 3 there is one pair, which has no deviation, and the per-order
    deviation over sqrt(m) stands in.

    Squares of increments near the float limit overflow although their
    deviation does not; such a feature's error is taken, game by game, on
    its samples scaled by their largest magnitude, which the error scales
    with."""
    stderr = _raw_stderr(samples)
    if np.isfinite(stderr).all():
        return stderr
    bad = ~np.isfinite(stderr)
    for b in np.flatnonzero(bad.any(axis=0)):
        columns = samples[:, bad[:, b], b]
        scale = np.abs(columns).max(axis=0)
        stderr[bad[:, b], b] = _raw_stderr(columns / scale) * scale
    if not np.isfinite(stderr).all():
        raise ValueError("Monte Carlo standard error is not finite")
    return stderr


def _raw_stderr(samples: np.ndarray) -> np.ndarray:
    """:func:`_stderr` without its guard against overflow, over the orders
    of ``samples``, its first axis."""
    m = len(samples)
    p = m // 2
    if p < 2:
        return samples.std(axis=0, ddof=1) / math.sqrt(m)
    pairs = 0.5 * samples[0 : 2 * p : 2]
    pairs += 0.5 * samples[1 : 2 * p : 2]
    var = _squared_deviations(pairs) * (4 * p / (p - 1))
    if m % 2:
        var += _squared_deviations(samples) / (m - 1)
    return np.sqrt(var) / m


def _squared_deviations(x: np.ndarray) -> np.ndarray:
    """Sums along the first axis of the squared deviations of ``x`` from
    their means, without np.var's Python wrapper, a measurable share of the
    standard error of a few orders."""
    deviations = x - x.sum(axis=0) / len(x)
    deviations *= deviations
    return deviations.sum(axis=0)


def shapley_engine(
    game: Game, engine: str = "exact", permutations: int = 1000, seed: int = 0
) -> Attribution:
    """Shapley values of ``game`` by the named engine, "exact" or "mc"."""
    if engine == "exact":
        return shapley_exact(game)
    if engine == "mc":
        return shapley_permutation(game, permutations, seed)
    raise ValueError(f"unknown engine {engine!r}")


def engine_masks(
    d: int, engine: str = "exact", permutations: int = 1000, seed: int = 0
) -> np.ndarray:
    """The sorted nonempty coalitions that :func:`shapley_engine` reads from a
    d-feature game under the same arguments: every one for "exact", those
    along the sampled orders for "mc"."""
    if engine == "exact":
        _check_exact_cap(d)
        return np.arange(1, 1 << d, dtype=np.int64)
    if engine == "mc":
        # every order starts at the empty set, the smallest mask
        return distinct_masks(permutation_masks(d, permutations, seed)[1])[0][1:]
    raise ValueError(f"unknown engine {engine!r}")


def distinct_masks(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of ``masks`` and, for each entry in ravel
    order, its index among them. A plain np.unique would import numpy.ma,
    which no command needs otherwise."""
    flat = masks.reshape(-1)
    ordered = np.sort(flat)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return distinct, np.searchsorted(distinct, flat)
