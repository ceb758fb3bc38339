"""Global sensitivity: variance Shapley, its per-subject disaggregation, and
panels of per-subject attributions ordered by prediction.

Every result is an :class:`Attribution`. :func:`global_attribution` takes
both sides of the squared-cohort identity from one pass of
:func:`games.cohort_value_sweep` over every subject's squared cohort table:
the variance Shapley of the mean table (the direct route) and the
per-subject squared cohort rows whose mean is the disaggregated route.
:func:`local_attributions` is the one per-target builder: local runs and
panels of every method and engine go through it, and :func:`make_panel`
orders its rows into a panel. It is one loop over value chunks, a chunk of
targets at a time, whether they come from the cohort tables or kernel or
from the baseline sweep's model calls: an exact chunk is contracted whole
into its targets' rows, and under Monte Carlo one draw of orders serves
every target, with one estimate for each block of a chunk's targets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError
from .games import (
    COHORT_METHODS,
    TableGame,
    _checked_targets,
    baseline_rows,
    baseline_sweep,
    cohort_value_chunks,
    cohort_value_sweep,
    make_var_game,
)
from .shapley import (
    Attribution,
    _phi_from_tables,
    arrival_rows,
    distinct_masks,
    engine_masks,
    gather_increments,
    permutation_masks,
    shapley_engine,
    shapley_from_orders,
)
from .similarity import MASK_BLOCK_BYTES, resolve_rules


@dataclass(frozen=True)
class Panel:
    """Per-subject attribution bars with the prediction-sorted ordering."""

    ordering: np.ndarray
    bars: np.ndarray
    overlay: np.ndarray
    method: str
    feature_names: tuple[str, ...]


def variance_shapley(
    ds: Dataset,
    rules,
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
) -> Attribution:
    """Shapley split of the variance explained by refining on each feature:
    the attribution of the var game, with the Monte Carlo standard errors
    and permutation count under ``engine`` "mc"."""
    return shapley_engine(make_var_game(ds, rules), engine, permutations, seed)


def aggregate_squared_cs(ds: Dataset, rules) -> Attribution:
    """The subject mean of every subject's squared cohort Shapley row, and of
    their totals; by additivity this reproduces the variance Shapley feature
    by feature."""
    _, phi, totals = cohort_value_sweep(ds, resolve_rules(rules, ds), squared=True)
    return Attribution(phi.mean(axis=0), float(totals.mean()), "cs2-aggregate")


def global_attribution(
    ds: Dataset,
    rules,
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
    per_subject: bool = False,
) -> tuple[Attribution, np.ndarray | None]:
    """The variance Shapley and, with ``per_subject``, the (n, d) squared
    cohort Shapley rows of every subject, from one sweep of the squared
    cohort tables.

    The attribution is :func:`variance_shapley` by ``engine`` on the mean
    table, and the rows' mean is :func:`aggregate_squared_cs`, each bit for
    bit. Without ``per_subject`` the rows are None.
    """
    if not per_subject:
        return variance_shapley(ds, rules, engine, permutations, seed), None
    table, phi, _ = cohort_value_sweep(
        ds, resolve_rules(rules, ds), squared=True, rows=True, mean=True
    )
    return shapley_engine(TableGame(table, "var"), engine, permutations, seed), phi


def local_attributions(
    ds: Dataset,
    method: str,
    targets=None,
    rules=None,
    model=None,
    baseline="mean",
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
) -> list[Attribution]:
    """Attributions of one per-target method for every target (all subjects
    when ``targets`` is None), in target order.

    Every target is checked first, and cohort rules are resolved once. Every
    method and engine is then one loop over value chunks, and no game is
    built. The masks are every nonempty set (exact) or the distinct
    coalitions of one draw of orders (mc). A chunk holds the values of its
    targets at the empty set and the masks, one column per target, from
    :func:`games.cohort_value_chunks` for cs and cs2, or one target wide
    from :func:`games.baseline_sweep`, whose model calls the targets share,
    for bs, bs2, abs and abs2. An exact chunk is the (2^d, B) tables of its
    targets: one :func:`shapley._phi_from_tables` call contracts them, and
    their last row holds the totals, and a chunk whose totals or values
    overflow raises ValueError. Under mc the chunk goes a block of columns
    at a time to :func:`shapley.gather_increments` and then to
    :func:`shapley.shapley_from_orders`, one estimate a block, as
    :func:`shapley.shapley_permutation` gives it one game's increments. A
    block's increments, d per order and target, take at most about
    MASK_BLOCK_BYTES, and the chunk rows where the draw's features join its
    orders (:func:`shapley.arrival_rows`) are found once per call.
    """
    targets = range(ds.n) if targets is None else _checked_targets(ds, targets)
    if engine not in ("exact", "mc"):
        raise ValueError(f"unknown engine {engine!r}")
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        resolved = resolve_rules(rules, ds)
    else:
        baselines = baseline_rows(method, ds, model, baseline)
    if engine == "exact":
        masks = engine_masks(ds.d)
    else:
        perms, orders = permutation_masks(ds.d, permutations, seed)
        distinct, inverse = distinct_masks(orders)
        # every order starts at the empty set, the smallest mask
        masks = distinct[1:]
        arrived = arrival_rows(perms, inverse.reshape(orders.shape))
        # numpy sums one column (d = 1) pairwise and several in order, so
        # a one-feature block holds one target, as one game's estimate does
        block = max(1, MASK_BLOCK_BYTES // (8 * perms.size)) if ds.d > 1 else 1
    if method in COHORT_METHODS:
        chunks = cohort_value_chunks(ds, resolved, targets, masks, method == "cs2")
    else:
        sweep = baseline_sweep(model, baselines, method, ds.X[targets], masks)
        chunks = ((s, np.concatenate(([0.0], v))[:, None]) for s, v in enumerate(sweep))
    attributions = []
    # an overflow shows as a non-finite total or phi, refused below and by
    # the estimator
    with np.errstate(over="ignore", invalid="ignore"):
        for s, chunk in chunks:
            chunk_targets = targets[s : s + chunk.shape[1]]
            if engine == "mc":
                for b in range(0, chunk.shape[1], block):
                    # a contiguous copy of the block first: the gathers
                    # along the orders are random
                    values = np.ascontiguousarray(chunk[:, b : b + block])
                    samples, totals = gather_increments(arrived, values)
                    attributions += shapley_from_orders(
                        samples, totals, method, chunk_targets[b : b + block]
                    )
                continue
            phi = _phi_from_tables(chunk, ds.d)
            if not (np.isfinite(chunk[-1]).all() and np.isfinite(phi).all()):
                raise ValueError("game total is not finite")
            attributions += [
                Attribution(phi=row, total=float(total), method=method, target=t)
                for t, row, total in zip(chunk_targets, phi, chunk[-1])
            ]
    return attributions


def make_panel(ds: Dataset, method: str, attributions) -> Panel:
    """Order one attribution per subject (in subject order) by prediction.

    The overlay is each subject's prediction minus the grand mean, the
    quantity the cohort rows decompose when the full cohort is a singleton.
    """
    y = ds.y
    return Panel(
        ordering=np.argsort(y, kind="stable"),
        bars=np.array([att.phi for att in attributions]),
        overlay=y - y.mean(),
        method=method,
        feature_names=tuple(ds.names),
    )


def write_rows(fh, columns, newline: str) -> None:
    """Write one CSV line per entry of the equal-length 1-D ``columns``,
    each line one template of cells: a %r for a column of numbers, a %s for
    a column of text (an object array of their ``repr``). The ``repr`` of
    an int or a float holds no comma, quote or newline, so no cell needs
    the quoting of :mod:`csv`."""
    template = ",".join(["%s" if c.dtype == object else "%r" for c in columns]) + newline
    rows = zip(*(c.tolist() for c in columns), strict=True)
    fh.writelines(map(template.__mod__, rows))


def write_panel_csv(panel: Panel, path) -> None:
    """The panel as CSV, one line per subject in prediction order: rank,
    subject, its bars and its overlay. Bars already formatted, as an object
    array of their ``repr``, are written as they are. The header goes
    through :func:`csv.writer`, which quotes names that need it."""
    order = panel.ordering
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "subject", *panel.feature_names, "overlay"])
        columns = [np.arange(len(order)), order, *panel.bars[order].T, panel.overlay[order]]
        write_rows(fh, columns, writer.dialect.lineterminator)
