"""Typed tabular data: loading, quantiles and holdout splits.

Values are held in a dense float matrix; categorical and non-numeric binary
columns are interned to integer codes at load time and the original labels
are kept so a dataset can be re-serialized losslessly.
"""

from __future__ import annotations

import csv
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
    prediction_name: str = "prediction"

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

    def cell_text(self, i: int, j: int) -> str:
        """Original textual value of a cell (labels for interned columns)."""
        v = self.X[i, j]
        if j in self.labels:
            return self.labels[j][int(v)]
        if float(v).is_integer():
            return str(int(v))
        return repr(float(v))


def attach_predictions(ds: Dataset, y, name: str = "prediction") -> Dataset:
    y = np.asarray(y, dtype=float)
    if y.shape != (ds.n,):
        raise DatasetError(f"predictions length {y.shape} incompatible with n={ds.n}")
    if not np.isfinite(y).all():
        raise DatasetError("non-finite prediction value")
    return replace(ds, predictions=y, prediction_name=name)


def _parse_numeric(text: str, row: int, col: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DatasetError(
            f"unparseable numeric cell {text!r} at row {row}, column {col!r}"
        ) from None
    if not np.isfinite(v):
        raise DatasetError(f"non-finite value {text!r} at row {row}, column {col!r}")
    return v


def _parse_floats(cells: list[str], col: str) -> np.ndarray:
    """The floats of a numeric column: one ``float`` pass, checked for
    finiteness once. A column that fails is parsed again cell by cell, so
    the error names its first bad cell and that cell's row."""
    try:
        values = np.array([float(t) for t in cells])
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        rows = enumerate(cells, start=1)
        values = np.array([_parse_numeric(t, r, col) for r, t in rows])
    return values


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
            return _parse_floats(cells, col.name), None
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
        preds = _parse_floats([rec[p] for rec in records], prediction_column)
        ds = attach_predictions(ds, preds, name=prediction_column)
    return ds


def write_csv(ds: Dataset, path) -> None:
    """Serialize back to CSV; interned columns are written with their labels."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ds.names
        if ds.predictions is not None:
            header = header + [ds.prediction_name]
        writer.writerow(header)
        for i in range(ds.n):
            row = [ds.cell_text(i, j) for j in range(ds.d)]
            if ds.predictions is not None:
                row.append(repr(float(ds.predictions[i])))
            writer.writerow(row)


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
