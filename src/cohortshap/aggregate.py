"""Global sensitivity: variance Shapley, its per-subject disaggregation, and
panels of per-subject attributions ordered by prediction.

Every result is an :class:`Attribution`, and every one comes from one loop
over value chunks, a chunk of targets at a time. :func:`local_attributions`
is the one per-target builder: local runs and panels of every method and
engine go through it, and :func:`make_panel` orders its rows into a panel.
Its chunks come from ``similarity.cohort_table_chunks``, the one source of
cohort value chunks, or from the baseline sweep's model calls.
:func:`global_attribution` reads the squared cohort values of every subject
from the same source: it sums each chunk into the subject mean, the var
game, whose attribution is the variance Shapley, and with ``per_subject``
contracts each chunk into the squared cohort rows whose mean is the
disaggregated route. Both read their masks from ``shapley._mask_choice``
and contract by ``shapley._contract``, the one contraction, which the
benchmark's single-game explain path reads too: an exact chunk is
contracted whole into its targets' rows, and under Monte Carlo one draw of
orders serves every target, with one estimate for each block of a chunk's
targets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bits import EXACT_CAP
from .dataset import Dataset, DatasetError, _checked_targets
from .games import COHORT_METHODS, baseline_rows, baseline_sweep
from .shapley import Attribution, _contract, _exact_phi, _mask_choice
from .similarity import cohort_table_chunks, resolve_rules


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
    the attribution of the var game, the subject mean of the squared cohort
    values, with the Monte Carlo standard errors and permutation count under
    ``engine`` "mc". It is :func:`global_attribution` without the rows."""
    return global_attribution(ds, rules, engine, permutations, seed)[0]


def aggregate_squared_cs(ds: Dataset, rules) -> Attribution:
    """The subject mean of every subject's exact squared cohort Shapley row
    (:func:`local_attributions` of cs2), and of their totals; by additivity
    this reproduces the variance Shapley feature by feature."""
    attributions = local_attributions(ds, "cs2", rules=rules)
    phi = np.array([att.phi for att in attributions])
    totals = np.array([att.total for att in attributions])
    return Attribution(phi.mean(axis=0), float(totals.mean()), "cs2-aggregate")


def global_attribution(
    ds: Dataset,
    rules,
    engine: str = "exact",
    permutations: int = 1000,
    seed: int = 0,
    per_subject: bool = False,
) -> tuple[Attribution, np.ndarray | None]:
    """The variance Shapley and, with ``per_subject``, the (n, d) exact
    squared cohort Shapley rows of every subject, from one sweep of the
    squared cohort values of every subject.

    The masks and the contraction are those of :mod:`shapley`, as in
    :func:`local_attributions`. Each chunk of
    :func:`similarity.cohort_table_chunks` is summed along its subjects into
    one mean column, chunk after chunk in subject order, which is divided by
    n and contracted by ``engine`` as the var game, with ``target`` None.
    With ``per_subject`` the sweep reads every set (masks None), and each
    chunk is also contracted into its subjects' exact rows, whose mean is
    :func:`aggregate_squared_cs` bit for bit; under mc the draw's rows are
    then gathered from the mean column. Without ``per_subject`` the rows are
    None. Memory stays bounded by the chunk, not by n x 2^d.
    """
    if per_subject and ds.d > EXACT_CAP:
        raise DatasetError(
            f"d={ds.d}: per-subject rows need all 2^d cohort values, "
            f"capped at d={EXACT_CAP}"
        )
    masks, draw = _mask_choice(ds.d, engine, permutations, seed)
    # per-subject rows need every set, which None reads
    swept = None if per_subject else masks
    rows = np.empty((ds.n, ds.d)) if per_subject else None
    mean = np.zeros(1 << ds.d if swept is None else 1 + len(swept))
    chunks = cohort_table_chunks(ds, resolve_rules(rules, ds), range(ds.n), swept, True)
    # an overflow shows as a non-finite total or phi, refused by the
    # contraction
    with np.errstate(over="ignore", invalid="ignore"):
        for s, chunk in chunks:
            mean += chunk.sum(axis=1)
            if per_subject:
                rows[s : s + chunk.shape[1]] = _exact_phi(chunk, ds.d)
    mean /= ds.n
    if swept is not masks:
        mean = mean[np.concatenate(([0], masks))]
    (direct,) = _contract([(0, mean[:, None])], ds.d, draw, "var", [None])
    return direct, rows


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

    Every target and the engine are checked first, and cohort rules are
    resolved once. Every method and engine is then one loop over value
    chunks, and no game is built. The masks are every nonempty set (exact)
    or the distinct coalitions of one draw of orders (mc), chosen once per
    call by :func:`shapley._mask_choice`. A chunk holds the values of its
    targets at the empty set and the masks, one column per target, from
    :func:`similarity.cohort_table_chunks` for cs and cs2, or one target
    wide from :func:`games.baseline_sweep`, whose model calls the targets
    share, for bs, bs2, abs and abs2. :func:`shapley._contract` reads the
    chunks and turns each into its targets' attributions, and a chunk whose
    exact totals or values overflow raises ValueError.
    """
    targets = range(ds.n) if targets is None else _checked_targets(ds, targets)
    masks, draw = _mask_choice(ds.d, engine, permutations, seed)
    if method in COHORT_METHODS:
        if rules is None:
            raise DatasetError("cohort methods need similarity rules")
        resolved = resolve_rules(rules, ds)
        chunks = cohort_table_chunks(ds, resolved, targets, masks, method == "cs2")
    else:
        baselines = baseline_rows(method, ds, model, baseline)
        sweep = baseline_sweep(model, baselines, method, ds.X[targets], masks)
        chunks = ((s, np.concatenate(([0.0], v))[:, None]) for s, v in enumerate(sweep))
    return _contract(chunks, ds.d, draw, method, targets)


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
    a column of text (an object array of strings, such as numbers' ``repr``).
    No cell may need the quoting of :mod:`csv`: the ``repr`` of an int or a
    float holds no comma, quote or newline."""
    template = ",".join(["%s" if c.dtype == object else "%r" for c in columns]) + newline
    rows = zip(*(c.tolist() for c in columns), strict=True)
    fh.writelines(map(template.__mod__, rows))


def write_table(path, header, columns, newline: str = "\r\n") -> None:
    """Write a CSV file: the ``header`` names through :func:`csv.writer`,
    which quotes a name that needs it, then one line per entry of
    ``columns`` by :func:`write_rows`; every line ends in ``newline``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=newline).writerow(header)
        write_rows(fh, columns, newline)


def write_panel_csv(panel: Panel, path) -> None:
    """The panel as CSV, one line per subject in prediction order: rank,
    subject, its bars and its overlay. Bars already formatted, as an object
    array of their ``repr``, are written as they are."""
    order = panel.ordering
    columns = [np.arange(len(order)), order, *panel.bars[order].T, panel.overlay[order]]
    write_table(path, ["rank", "subject", *panel.feature_names, "overlay"], columns)
