"""Typed tabular data: loading, quantiles and holdout splits.

Values are held in a dense float matrix; categorical and non-numeric binary
columns are interned to integer codes at load time, and ``labels`` records
the text each code stands for. :func:`_checked_targets` is the one check
that a target names a row, for ``local_attributions``, the realism splits
and the benchmark's single-game explain path (``similarity_row``) alike.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field, replace

import numpy as np

KINDS = ("numeric", "categorical", "binary")


class DatasetError(ValueError):
    """Raised for malformed input files or inconsistent dataset operations."""


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DatasetError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class Dataset:
    """Immutable table of n subjects by d predictors, plus predictions y."""

    schema: tuple[ColumnSchema, ...]
    X: np.ndarray  # (n, d) float64; categorical cells hold integer codes
    predictions: np.ndarray | None = None
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise DatasetError("need at least one row and one column")
        if self.X.shape[1] != len(self.schema):
            raise DatasetError("schema length does not match matrix width")
        if self.predictions is not None and len(self.predictions) != self.n:
            raise DatasetError(
                f"predictions length {len(self.predictions)} != n = {self.n}"
            )
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise DatasetError("duplicate column names")
        if not np.isfinite(self.X).all():
            raise DatasetError("non-finite value in predictor matrix")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.schema]

    @property
    def y(self) -> np.ndarray:
        if self.predictions is None:
            raise DatasetError("no predictions attached")
        return self.predictions

    def kind(self, j: int) -> str:
        return self.schema[j].kind

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = np.asarray(indices, dtype=np.intp)
        preds = None if self.predictions is None else self.predictions[indices]
        return replace(self, X=self.X[indices].copy(), predictions=preds)


def attach_predictions(ds: Dataset, y) -> Dataset:
    y = np.asarray(y, dtype=float)
    if y.shape != (ds.n,):
        raise DatasetError(f"predictions length {y.shape} incompatible with n={ds.n}")
    if not np.isfinite(y).all():
        raise DatasetError("non-finite prediction value")
    return replace(ds, predictions=y)


def _checked_targets(ds: Dataset, targets) -> list[int]:
    """``targets`` as ints, each checked to be an integer, not a bool, a
    float or a text, and a row of ``ds``."""
    checked = []
    for t in targets:
        try:
            if isinstance(t, bool):  # operator.index takes a bool as 0 or 1
                raise TypeError
            t = operator.index(t)
        except TypeError:
            raise DatasetError(f"target {t!r} is not an integer") from None
        if not 0 <= t < ds.n:
            raise DatasetError(f"target {t} outside 0..{ds.n - 1}")
        checked.append(t)
    return checked


def _parse_numeric(text: str, where: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DatasetError(f"unparseable numeric cell {text!r} at {where}") from None
    if not np.isfinite(v):
        raise DatasetError(f"non-finite value {text!r} at {where}")
    return v


def _parse_floats(cells: list[str], where) -> np.ndarray:
    """The floats of the texts ``cells``: one ``float`` pass, checked for
    finiteness once. Texts that fail are parsed again one by one, so the
    error names the first bad text and ``where(i)``, the place of cells[i]."""
    try:
        values = np.array([float(t) for t in cells])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array([_parse_numeric(t, where(i)) for i, t in enumerate(cells)])
    return values


def _in_column(col: str):
    """The place of cell i of column ``col``: its row, counted from 1."""
    return lambda i: f"row {i + 1}, column {col!r}"


def _read_numbers(path) -> np.ndarray:
    """The finite numbers of a text file of one number a line, blank lines
    skipped; an error names the first bad line and the file."""
    with open(path, encoding="utf-8") as fh:
        kept = [(n, t.strip()) for n, t in enumerate(fh, start=1) if t.strip()]
    texts = [t for _, t in kept]
    return _parse_floats(texts, lambda i: f"line {kept[i][0]} of {path}")


def _check_present(cells: list[str], col: str) -> None:
    for r, text in enumerate(cells, start=1):
        if text.strip() == "":
            raise DatasetError(f"missing value at row {r}, column {col!r}")


def _parse_column(cells: list[str], col: ColumnSchema):
    """Parse one column of cell texts to floats plus an optional label table.

    A missing value is reported before any other fault of its column. No
    blank cell survives ``float``, so only a column that fails to parse is
    searched for one.
    """
    if col.kind == "numeric":
        try:
            return _parse_floats(cells, _in_column(col.name)), None
        except DatasetError:
            _check_present(cells, col.name)
            raise
    # categorical / binary: keep numeric codes if every cell parses, else
    # intern the raw strings in order of first appearance
    try:
        values = [float(t) for t in cells]
        levels = None
    except ValueError:
        _check_present(cells, col.name)
        interner: dict[str, int] = {}
        for t in cells:
            t = t.strip()
            if t not in interner:
                interner[t] = len(interner)
        values = [float(interner[t.strip()]) for t in cells]
        levels = tuple(sorted(interner, key=interner.get))
    if col.kind == "binary" and len(set(values)) > 2:
        raise DatasetError(f"binary column {col.name!r} has more than two levels")
    return values, levels


def load_csv(path, schema, prediction_column: str | None = None) -> Dataset:
    """Load an RFC-4180 CSV with a header row against an explicit schema.

    Columns not named in the schema (other than ``prediction_column``) are
    ignored. Missing values and unparseable cells are rejected with their
    location.
    """
    schema = tuple(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        records = []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DatasetError(
                    f"{path}: row {r} has {len(record)} fields, expected {len(header)}"
                )
            records.append(record)
    if not records:
        raise DatasetError(f"{path}: no rows")

    positions = []
    for c in schema:
        if c.name not in header:
            raise DatasetError(f"{path}: missing column {c.name!r}")
        positions.append(header.index(c.name))

    columns = []
    labels = {}
    for j, (c, p) in enumerate(zip(schema, positions)):
        values, levels = _parse_column([rec[p] for rec in records], c)
        columns.append(values)
        if levels is not None:
            labels[j] = levels

    ds = Dataset(schema=schema, X=np.array(columns, dtype=float).T.copy(), labels=labels)
    if prediction_column is not None:
        if prediction_column not in header:
            raise DatasetError(f"{path}: missing column {prediction_column!r}")
        p = header.index(prediction_column)
        cells = [rec[p] for rec in records]
        preds = _parse_floats(cells, _in_column(prediction_column))
        ds = attach_predictions(ds, preds)
    return ds


def quantile(ds: Dataset, column: int, p):
    """Order-statistic quantile with linear interpolation. ``p`` is one
    probability, or a sequence of them for a tuple of quantiles from one
    pass over the column, each equal to its own one-probability call."""
    if ds.kind(column) != "numeric":
        raise DatasetError(
            f"quantile needs a numeric column, got {ds.kind(column)!r}"
        )
    probs = np.asarray(p, dtype=float)
    for q in probs.ravel():
        if not 0.0 <= q <= 1.0:
            raise DatasetError(f"quantile probability {q} outside [0, 1]")
    values = np.quantile(ds.X[:, column], probs, method="linear")
    return float(values) if values.ndim == 0 else tuple(map(float, values))


def split_holdout(ds: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint uniform random (train, test) partition, test size = round(fraction*n)."""
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"holdout fraction {fraction} outside (0, 1)")
    n_test = int(round(fraction * ds.n))
    if n_test < 1:
        raise DatasetError(f"fraction {fraction} keeps no test rows for n={ds.n}")
    if n_test >= ds.n:
        raise DatasetError(f"fraction {fraction} keeps no training rows for n={ds.n}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return ds.subset(train), ds.subset(test)


def schema_from_json(obj) -> tuple[ColumnSchema, ...]:
    """Accept either {"name": "kind", ...} (ordered) or [{"name":..., "kind":...}]."""
    if isinstance(obj, dict):
        return tuple(ColumnSchema(name, kind) for name, kind in obj.items())
    return tuple(ColumnSchema(item["name"], item["kind"]) for item in obj)
