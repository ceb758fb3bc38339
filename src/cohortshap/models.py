"""Prediction model adapters and a reference logistic-regression fitter.

The external-command protocol is line-oriented and order-preserving: the
query points go to the child's standard input as CSV rows of d decimal
fields (shortest round-trip ``repr``), EOF closes the stream, and the child
answers with one decimal per line, a trailing newline allowed. Each call
starts one child. The baseline methods send the hybrid points of all of a
command's targets through one :func:`games.baseline_sweep`, in calls of at
most ``games.POINT_CHUNK`` values, so a command starts one child per such
call, not one per target, and a sweep's first call leads with its k
baseline rows. The child runs in a session of its own; a call that
runs past EXTERNAL_TIMEOUT_S kills that session's process group, so a
wrapper command takes the model it started down with it. A nonzero exit
status, a short reply, a garbled one (a blank line or more than one token
on a line), a non-finite value or a timeout is a model failure.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

# Seconds one external call may take. A baseline sweep sends at most
# games.POINT_CHUNK (4M) values, POINT_CHUNK // d points, per call. With the
# CSV formatting, a plain-Python linear child takes 1 to 2.3 us per value
# on an AMD EPYC core (14 us per point at d = 14), so a full call takes
# about 4 to 10 s.
EXTERNAL_TIMEOUT_S = 600

# Rows formatted per block, which bounds the intermediate strings.
ROW_BLOCK = 1 << 14


class ModelError(RuntimeError):
    """Prediction backend failed or produced unusable output."""


class ConvergenceError(ModelError):
    """Iterative fit did not converge within the iteration cap."""


class PerfectSeparationError(ModelError):
    """Logistic likelihood is unbounded; coefficients diverge."""


@dataclass(frozen=True)
class LinearModel:
    coefficients: tuple[float, ...]
    intercept: float = 0.0


@dataclass(frozen=True)
class LogisticModel:
    coefficients: tuple[float, ...]
    intercept: float = 0.0


@dataclass(frozen=True)
class ExternalCommand:
    command: tuple[str, ...]


ModelAdapter = LinearModel | LogisticModel | ExternalCommand


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _csv_text(points: np.ndarray) -> str:
    """CSV text of ``points``, equal to joining ``repr(float(v))`` per value.

    Each block of ROW_BLOCK rows formats each of its distinct values once
    per column and joins the tokens. Values compare by bit pattern, so -0.0
    and 0.0 (and NaN payloads) keep their own ``repr``.
    """
    bits = np.ascontiguousarray(points, dtype=float).view(np.int64)
    parts = []
    for s in range(0, len(bits), ROW_BLOCK):
        cols = []
        for col in bits[s : s + ROW_BLOCK].T:
            vals, code = np.unique(col, return_inverse=True)
            tokens = np.array([repr(v) for v in vals.view(float).tolist()], dtype=object)
            cols.append(tokens[code].tolist())
        parts.append("\n".join(map(",".join, zip(*cols))) + "\n")
    return "".join(parts)


def _run_external(model: ExternalCommand, points: np.ndarray) -> np.ndarray:
    text = _csv_text(points)
    proc = subprocess.Popen(
        list(model.command),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(text, timeout=EXTERNAL_TIMEOUT_S)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ModelError(
                f"external model timed out after {EXTERNAL_TIMEOUT_S} s"
            ) from None
        raise
    if proc.returncode != 0:
        raise ModelError(
            f"external model exited {proc.returncode}: {err.strip()[:200]}"
        )
    # one prediction per line: a blank line or a second token fails float()
    try:
        preds = np.array([float(line) for line in out.splitlines()])
    except ValueError as exc:
        raise ModelError(f"garbled external model output: {exc}") from None
    if len(preds) != len(points):
        raise ModelError(
            f"external model returned {len(preds)} predictions for {len(points)} points"
        )
    return preds


def predict(model: ModelAdapter, points) -> np.ndarray:
    """One prediction per row of ``points``; order-preserving."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(model, (LinearModel, LogisticModel)):
        coef = np.asarray(model.coefficients, dtype=float)
        if points.shape[1] != len(coef):
            raise ModelError(
                f"points have {points.shape[1]} columns, model expects {len(coef)}"
            )
        # an overflow shows as a non-finite prediction, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            eta = points @ coef + model.intercept
        preds = _sigmoid(eta) if isinstance(model, LogisticModel) else eta
    else:
        preds = _run_external(model, points)
    if not np.isfinite(preds).all():
        raise ModelError("model produced a non-finite prediction")
    return preds


def fit_logistic(
    ds: Dataset,
    labels,
    iterations: int = 100,
    tolerance: float = 1e-8,
) -> LogisticModel:
    """Maximum-likelihood logistic regression via iteratively reweighted
    least squares on the dataset's value matrix (categorical codes included).
    """
    y = np.asarray(labels, dtype=float)
    if y.shape != (ds.n,):
        raise ModelError(f"labels length {y.shape} incompatible with n={ds.n}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ModelError("labels must be 0/1")
    if y.min() == y.max():
        raise ModelError("labels are constant; intercept diverges")

    Xa = np.column_stack([ds.X, np.ones(ds.n)])
    beta = np.zeros(ds.d + 1)
    for _ in range(iterations):
        eta = Xa @ beta
        p = _sigmoid(eta)
        w = p * (1.0 - p)
        misclassified = (p >= 0.5) != (y == 1.0)
        if w.max() < 1e-10 and not misclassified.any():
            raise PerfectSeparationError(
                "data are perfectly separated; coefficients diverge"
            )
        w = np.maximum(w, 1e-10)
        hess = Xa.T @ (Xa * w[:, None])
        grad = Xa.T @ (y - p)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
        if np.max(np.abs(step)) < tolerance:
            return LogisticModel(tuple(beta[:-1]), float(beta[-1]))
    raise ConvergenceError(f"IRLS did not converge in {iterations} iterations")
