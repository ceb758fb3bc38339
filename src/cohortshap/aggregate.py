"""Global sensitivity: variance Shapley, its per-subject disaggregation, and
panel exports of per-subject attributions ordered by prediction.

The all-targets cohort sweep is the hot path: per chunk of targets it builds
match-pattern histograms against every subject, superset-sums them into
cohort count/sum tables and contracts the value tables straight into Shapley
vectors, so no subset is ever rescanned row by row and no table outlives its
chunk. :func:`local_attributions` is the one per-target builder: local runs
and panels of every method and engine go through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DatasetError
from .games import COHORT_METHODS, EXACT_CAP, make_game, make_var_game
from .shapley import Attribution, _phi_from_tables, shapley_engine
from .similarity import cohort_table_chunks, resolve_rules


@dataclass(frozen=True)
class GlobalAttribution:
    """Shapley split of the explained variance over features, optionally with
    the per-subject squared-cohort rows it averages."""

    phi_var: np.ndarray
    total_variance: float
    method: str
    per_subject: np.ndarray | None = None


@dataclass(frozen=True)
class Panel:
    """Per-subject attribution bars with the prediction-sorted ordering."""

    ordering: np.ndarray
    bars: np.ndarray
    overlay: np.ndarray
    method: str
    feature_names: tuple[str, ...]


def cs_attribution_sweep(ds: Dataset, rules, targets=None, squared: bool = False):
    """Exact cohort-Shapley rows for many targets: (phi matrix, totals).

    Each chunk of cohort tables is contracted as it is built, so memory
    stays bounded by the chunk, not by targets x 2^d.
    """
    if ds.d > EXACT_CAP:
        raise DatasetError(f"d={ds.d} too large for the dense cohort sweep")
    resolved = resolve_rules(rules, ds)
    targets = np.arange(ds.n) if targets is None else np.asarray(targets, np.intp)
    phi = np.empty((len(targets), ds.d))
    totals = np.empty(len(targets))
    for s, tables in cohort_table_chunks(ds, resolved, targets, squared):
        phi[s : s + len(tables)] = _phi_from_tables(tables, ds.d)
        totals[s : s + len(tables)] = tables[:, -1]
    return phi, totals


def variance_shapley(
    ds: Dataset,
    rules,
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
) -> GlobalAttribution:
    """Shapley split of the variance explained by refining on each feature."""
    att = shapley_engine(make_var_game(ds, rules), engine, permutations, seed)
    return GlobalAttribution(phi_var=att.phi, total_variance=att.total, method="var")


def aggregate_squared_cs(ds: Dataset, rules) -> GlobalAttribution:
    """Average the squared cohort rows of every subject; by additivity this
    reproduces the variance Shapley feature by feature."""
    phi, totals = cs_attribution_sweep(ds, rules, squared=True)
    return GlobalAttribution(
        phi_var=phi.mean(axis=0),
        total_variance=float(totals.mean()),
        method="cs2-aggregate",
        per_subject=phi,
    )


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

    Exact cohort methods go through the chunked sweep; every other method
    and engine evaluates one game per target.
    """
    targets = range(ds.n) if targets is None else [int(t) for t in targets]
    for t in targets:
        if not 0 <= t < ds.n:
            raise DatasetError(f"target {t} outside 0..{ds.n - 1}")
    if method in COHORT_METHODS and engine == "exact":
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        phi, totals = cs_attribution_sweep(ds, rules, targets, method == "cs2")
        if not np.isfinite(totals).all():
            raise ValueError("game total is not finite")
        return [
            Attribution(phi=row, total=float(total), method=method, target=t)
            for t, row, total in zip(targets, phi, totals)
        ]
    return [
        shapley_engine(
            make_game(method, ds, t, rules, model, baseline), engine, permutations, seed
        )
        for t in targets
    ]


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


def export_panel(
    ds: Dataset,
    rules=None,
    method: str = "cs",
    model=None,
    baseline="mean",
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
) -> Panel:
    """Per-subject attributions for one method, ordered by prediction."""
    atts = local_attributions(
        ds, method, None, rules, model, baseline, engine, permutations, seed
    )
    return make_panel(ds, method, atts)


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
