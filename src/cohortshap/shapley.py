"""Shapley engines, exact and permutation Monte Carlo, with one choice of
masks (:func:`_mask_choice`) and one contraction (:func:`_contract`). The
single-game API hands the contraction one game's values as one column, and
the sweeps of :mod:`aggregate` a chunk of targets' columns at a time.

The exact engine contracts all 2^d coalition values against combinatorial
weights (:func:`_phi_from_tables`). The Monte Carlo engine averages marginal
increments over sampled feature orders in antithetic pairs: order 2i ranks
block i of one counter-based Philox stream keyed by the seed, and order
2i + 1 is order 2i reversed. Order k thus depends only on (seed, k), so the
first k orders are the same whatever the total count, and results do not
depend on how the work is distributed. A reversed pair averages to the exact
Shapley value on any game of main effects and pairwise interactions, so
standard errors are taken over the pair means (see :func:`_stderr`). A draw's empty set and distinct
coalitions are each read once, and the last draw is kept (:func:`_draw`).
:func:`gather_increments` takes a block of games' increments at the rows
where each feature joins each order (:func:`arrival_rows`), one order a
row, and :func:`shapley_from_orders`, the one estimator, sums them along
rows of every feature of every game in the block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bits import EXACT_CAP, halves, pass_ufunc, subset_sizes
from .similarity import MASK_BLOCK_BYTES

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
            f'd={d} exceeds the exact cap {EXACT_CAP}; use engine="mc" '
            "(shapley_permutation for one game)"
        )


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


def arrival_rows(perms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (2, m, d) rows, in a table of coalition values, of the
    coalitions just before ([0, i, j]) and just after ([1, i, j]) feature j
    joins order i of the (m, d) orders ``perms``; ``rows`` (m, d + 1) holds
    the table rows of the coalitions along each order."""
    m, d = perms.shape
    # the k-th arrival of order i goes to flat index i * d + perms[i, k]
    slots = (perms + d * np.arange(m)[:, None]).reshape(-1)
    arrived = np.empty((2, m, d), dtype=np.intp)
    arrived[0].reshape(-1)[slots] = rows[:, :-1].reshape(-1)
    arrived[1].reshape(-1)[slots] = rows[:, 1:].reshape(-1)
    return arrived


@functools.lru_cache(maxsize=1)
def _draw(d: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct nonempty coalitions along the m orders of
    :func:`permutation_masks` keyed by ``seed``, and the :func:`arrival_rows`
    of those orders in a table of the empty set and those coalitions. A
    loop of single games draws the same orders for every game, so the last
    draw is kept; its arrays are read-only, since every caller shares them."""
    perms, orders = permutation_masks(d, m, seed)
    distinct, inverse = np.unique(orders.reshape(-1), return_inverse=True)
    arrived = arrival_rows(perms, inverse.reshape(orders.shape))
    distinct.flags.writeable = arrived.flags.writeable = False
    # every order starts at the empty set, the smallest mask
    return distinct[1:], arrived


def _mask_choice(d: int, engine: str, permutations: int, seed: int):
    """The sorted nonempty masks at which a game, or a sweep of games, is
    read under ``engine``, and the draw that contracts their values: None
    and None for "exact", which reads every set; for "mc" the masks of
    :func:`_draw`, and (arrived, block), its arrival rows and the games a
    block of increments holds, about MASK_BLOCK_BYTES of them."""
    if engine == "exact":
        _check_exact_cap(d)
        return None, None
    if engine != "mc":
        raise ValueError(f"unknown engine {engine!r}")
    masks, arrived = _draw(d, permutations, seed)
    # numpy sums one column (d = 1) pairwise and several in order, so a
    # one-feature block holds one game, whose estimate then does not depend
    # on the games beside it
    block = max(1, MASK_BLOCK_BYTES // (8 * arrived[0].size)) if d > 1 else 1
    return masks, (arrived, block)


def _exact_phi(tables: np.ndarray, d: int) -> np.ndarray:
    """The (B, d) exact Shapley rows of the lattice-major (2^d, B) ``tables``
    by one :func:`_phi_from_tables` call; ValueError where a total, a
    table's last row, or a row is not finite."""
    phi = _phi_from_tables(tables, d)
    if not (np.isfinite(tables[-1]).all() and np.isfinite(phi).all()):
        raise ValueError("game total is not finite")
    return phi


def _contract(chunk: np.ndarray, d: int, draw, method: str, targets) -> list[Attribution]:
    """The attributions of the games of ``targets``, one a column of
    ``chunk``, their values at the empty set and the masks of
    :func:`_mask_choice`, whose ``draw`` they follow. This is the one
    contraction: every Shapley value of the package comes from it.

    Exact, the chunk is the games' tables, contracted whole by
    :func:`_exact_phi`, and their last row holds the totals. Under mc it goes
    a block of columns at a time to :func:`gather_increments` and then to
    :func:`shapley_from_orders`, one estimate a block.
    """
    if draw is None:
        phi = _exact_phi(chunk, d)
        return [
            Attribution(phi=row, total=float(total), method=method, target=t)
            for t, row, total in zip(targets, phi, chunk[-1])
        ]
    arrived, block = draw
    attributions = []
    for b in range(0, chunk.shape[1], block):
        # a contiguous copy of the block first: the gathers along the orders
        # are random
        values = np.ascontiguousarray(chunk[:, b : b + block])
        samples, totals = gather_increments(arrived, values)
        attributions += shapley_from_orders(samples, totals, method, targets[b : b + block])
    return attributions


def shapley_engine(
    game: Game, engine: str = "exact", permutations: int = 1000, seed: int = 0
) -> Attribution:
    """Shapley values of ``game`` by the named engine, "exact" or "mc": the
    game's values at the empty set and the masks of :func:`_mask_choice`,
    each asked once, contracted by :func:`_contract` as one column, the way
    a sweep contracts a chunk of targets. Exact reads the game's 2^d table;
    mc reads the distinct coalitions of the draw. A game whose total or
    Shapley values overflow raises ValueError."""
    masks, draw = _mask_choice(game.d, engine, permutations, seed)
    if masks is None:
        values = game.value_table()
    else:
        values = game.values(np.concatenate(([0], masks)))
    # an overflow shows as a non-finite total or phi, refused by the
    # contraction
    with np.errstate(over="ignore", invalid="ignore"):
        return _contract(values[:, None], game.d, draw, game.method, [game.target])[0]


def shapley_exact(game: Game) -> Attribution:
    """Every coalition evaluated once and the exact allocation formula
    applied: :func:`shapley_engine` under "exact"."""
    return shapley_engine(game, "exact")


def shapley_permutation(game: Game, m: int, seed: int) -> Attribution:
    """Monte Carlo Shapley from m sampled feature orders:
    :func:`shapley_engine` under "mc". Order 2i is drawn and order 2i + 1
    is its reverse (:func:`permutation_masks`), and order k depends only on
    (seed, k), so the estimate is reproducible and the orders of a smaller
    m are a prefix of those of a larger one."""
    return shapley_engine(game, "mc", m, seed)


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
