"""Workload inputs: data tables, predictions and the models behind them.

Everything the benchmark feeds the program is generated here, independently
of the package's own tests and example configs, so edits to those cannot
change what is measured. Inputs reach the CLI only as CSV and JSON files.

The tables are frozen, as a real dataset would be: they come from
``TABLE_SEED``, and the run seed only shuffles their rows (see
``row_order``). Cohort sizes, and with them Monte Carlo variances, then stay
the same from seed to seed, so run-to-run spread measures the program rather
than the luck of one draw of 1045 rows.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

MODEL_SCRIPT = Path(__file__).resolve().parent / "model.py"
TABLE_SEED = 191100467

TITANIC_COLUMNS = {
    "pclass": "categorical",
    "sex": "binary",
    "age": "numeric",
    "sibsp": "categorical",
    "parch": "categorical",
    "fare": "numeric",
}


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-eta))


def fit_logistic(X, labels, iterations=50):
    """Maximum-likelihood logistic regression by Newton steps (intercept last)."""
    Xa = np.column_stack([X, np.ones(len(X))])
    beta = np.zeros(Xa.shape[1])
    for _ in range(iterations):
        p = _sigmoid(Xa @ beta)
        w = np.maximum(p * (1.0 - p), 1e-10)
        step = np.linalg.solve(Xa.T @ (Xa * w[:, None]), Xa.T @ (labels - p))
        beta += step
        if np.max(np.abs(step)) < 1e-10:
            break
    return beta[:-1], float(beta[-1])


def titanic_table(n: int = 1045):
    """Titanic-shaped surrogate: four discrete predictors, two continuous,
    predictions from a logistic model fitted to simulated survival labels."""
    rng = np.random.default_rng([TABLE_SEED, 1])
    pclass = rng.choice([1.0, 2.0, 3.0], size=n, p=[0.25, 0.25, 0.5])
    sex = rng.choice([0.0, 1.0], size=n, p=[0.64, 0.36])
    age = np.clip(rng.normal(30, 13, size=n), 0.2, 80).round(1)
    sibsp = rng.choice(np.arange(6.0), size=n, p=[0.68, 0.22, 0.05, 0.02, 0.02, 0.01])
    parch = rng.choice(np.arange(6.0), size=n, p=[0.76, 0.12, 0.08, 0.02, 0.01, 0.01])
    fare = np.round(np.exp(rng.normal(2.9, 0.9, size=n)) * (4 - pclass), 4)
    X = np.column_stack([pclass, sex, age, sibsp, parch, fare])
    eta = -1.2 + 1.9 * sex - 0.9 * (pclass - 2) - 0.02 * (age - 30) + 0.004 * fare
    labels = (rng.random(n) < _sigmoid(eta)).astype(float)
    coef, intercept = fit_logistic(X, labels)
    model = {"kind": "logistic", "coefficients": list(map(float, coef)),
             "intercept": intercept}
    return X, _sigmoid(X @ coef + intercept), model


def gaussian_table(n: int, d: int):
    """Correlated-Gaussian numeric table with linear-model predictions."""
    rng = np.random.default_rng([TABLE_SEED, 2, d])
    X = 0.6 * rng.normal(size=(n, 1)) + rng.normal(size=(n, d))
    coef = rng.normal(size=d)
    intercept = float(rng.normal())
    model = {"kind": "linear", "coefficients": list(map(float, coef)),
             "intercept": intercept}
    return X, X @ coef + intercept, model


def row_order(seed: int, n: int) -> np.ndarray:
    """The run's row order: row i of the written table is subject order[i]."""
    return np.random.default_rng([seed, 3]).permutation(n)


def write_table(path: Path, names, X, y) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*names, "pred"])
        for row, pred in zip(X, y):
            writer.writerow([*(repr(float(v)) for v in row), repr(float(pred))])


def external_model(model: dict) -> dict:
    """The same model served by a child process per prediction call."""
    return {
        "kind": "external",
        "command": [
            sys.executable,
            str(MODEL_SCRIPT),
            model["kind"],
            repr(model["intercept"]),
            *map(repr, model["coefficients"]),
        ],
    }


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def prediction_sd(y) -> float:
    y = np.asarray(y, dtype=float)
    return math.sqrt(float(np.mean((y - y.mean()) ** 2)))
