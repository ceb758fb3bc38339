"""Global sensitivity: variance Shapley, its per-subject disaggregation, and
panels of per-subject attributions ordered by prediction.

Every result is an :class:`Attribution`. The cohort tables of many targets
come from one pass of :func:`games.cohort_value_sweep`:
:func:`global_attribution` takes both sides of the squared-cohort identity
from one such sweep, the variance Shapley of the mean squared table (the
direct route) and the per-subject squared cohort rows whose mean is the
disaggregated route. :func:`local_attributions` is the one per-target
builder: local runs and panels of every method and engine go through it,
and :func:`make_panel` orders its rows into a panel. Its Monte Carlo branch
is one sweep too: one draw of orders serves every target, whose values at
the orders' distinct coalitions come a chunk of targets at a time.
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
    baseline_games,
    baseline_rows,
    baseline_sweep,
    cohort_value_chunks,
    cohort_value_sweep,
    make_var_game,
)
from .shapley import (
    Attribution,
    distinct_masks,
    engine_masks,
    permutation_masks,
    shapley_engine,
    shapley_exact,
    shapley_from_orders,
)
from .similarity import resolve_rules


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

    Every target is checked first, and cohort rules are resolved once.
    Exact cohort methods go through the chunked cohort sweep, and exact
    baseline methods (bs, bs2, abs, abs2) through games whose memos one
    baseline sweep fills, in model calls the targets share. Monte Carlo is
    one sweep as well: the orders are drawn once, every target's values at
    their distinct coalitions come a chunk of targets at a time (from
    :func:`games.cohort_value_chunks` or :func:`games.baseline_sweep`), and
    :func:`shapley.shapley_from_orders` turns each target's values into its
    estimate, as :func:`shapley.shapley_permutation` does for one game.
    """
    targets = range(ds.n) if targets is None else _checked_targets(ds, targets)
    if engine not in ("exact", "mc"):
        raise ValueError(f"unknown engine {engine!r}")
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        resolved = resolve_rules(rules, ds)
        if engine == "exact":
            _, phi, totals = cohort_value_sweep(ds, resolved, targets, method == "cs2")
            if not np.isfinite(totals).all():
                raise ValueError("game total is not finite")
            return [
                Attribution(phi=row, total=float(total), method=method, target=t)
                for t, row, total in zip(targets, phi, totals)
            ]
    elif engine == "exact":
        masks = engine_masks(ds.d)
        games = baseline_games(method, ds, targets, model, baseline, masks)
        return [shapley_exact(game) for game in games]
    perms, masks = permutation_masks(ds.d, permutations, seed)
    distinct, inverse = distinct_masks(masks)
    # every order starts at the empty set, the smallest mask, of value 0
    nonempty = distinct[1:]
    if method in COHORT_METHODS:
        squared = method == "cs2"
        chunks = cohort_value_chunks(ds, resolved, targets, nonempty, squared)
    else:
        baselines = baseline_rows(method, ds, model, baseline)
        sweep = baseline_sweep(model, baselines, method, ds.X[targets], nonempty)
        chunks = ((s, values[None]) for s, values in enumerate(sweep))
    attributions = []
    for s, chunk in chunks:
        for t, values in zip(targets[s : s + len(chunk)], chunk):
            values = np.concatenate(([0.0], values))[inverse].reshape(masks.shape)
            attributions.append(shapley_from_orders(perms, values, method, t))
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


def write_panel_csv(panel: Panel, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "subject", *panel.feature_names, "overlay"])
        for rank, subject in enumerate(panel.ordering):
            writer.writerow(
                [
                    rank,
                    int(subject),
                    *(repr(float(v)) for v in panel.bars[subject]),
                    repr(float(panel.overlay[subject])),
                ]
            )
