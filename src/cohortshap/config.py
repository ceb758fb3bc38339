"""Run configuration: one JSON file, flag overrides win.

Validation happens before any data is loaded or any model process is
spawned, so a bad config never reaches computation. An integer past the
float range is refused as the file is read. The audit block's keys and
defaults are one table, :data:`AUDIT_DEFAULTS`. Inline cube values and the
cube probabilities are checked by the cube's own code, :class:`CubeFunction`
and :func:`coordinate_probs`.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field

from .cube import CubeFunction, coordinate_probs
from .dataset import DatasetError, schema_from_json
from .games import COHORT_METHODS, EXACT_CAP, MODEL_METHODS
from .models import ExternalCommand, LinearModel, LogisticModel
from .similarity import (
    AbsoluteThreshold,
    Identity,
    RangeFraction,
    RelativeThreshold,
    SimilarityError,
    check_rules,
)

METHODS = (*COHORT_METHODS, *MODEL_METHODS, "var")

# Coalitions are int64 bitmasks, one bit per column.
MAX_COLUMNS = 63


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _spec_error(what: str, obj, exc: Exception) -> ConfigError:
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigError(f"bad {what} spec {obj!r}: {reason}")


def _check_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_numbers(name: str, value) -> None:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < math.inf
        for v in value
    ):
        raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")


def _parse_int(literal: str) -> int:
    """A JSON integer literal; ConfigError past the float range, since every
    config number is used as a float, or past ``int``'s digit limit."""
    try:
        value = int(literal)
    except ValueError:
        value = math.inf
    if abs(value) > sys.float_info.max:
        raise ConfigError(f"integer {literal[:20]}... lies past the float range")
    return value


def _target_index(t) -> int:
    if isinstance(t, str):
        return int(t)
    if isinstance(t, bool):
        raise TypeError("a target index is not a boolean")
    return operator.index(t)  # rejects 1.5 instead of truncating it


# The keys each kind of similarity and model spec takes.
RULE_KEYS = {
    "identity": {"kind"},
    "abs": {"kind", "delta"},
    "range_fraction": {"kind", "frac", "lo_q", "hi_q"},
    "relative": {"kind", "delta"},
}
MODEL_KEYS = {
    "predictions": {"kind", "path"},
    "linear": {"kind", "coefficients", "intercept"},
    "logistic": {"kind", "coefficients", "intercept"},
    "external": {"kind", "command"},
}
# The audit block's keys and their defaults, shared by every run and not to
# be mutated. A cube_probs of None is d fair coins.
AUDIT_DEFAULTS = {
    "similarity": {},
    "scales": [round(0.05 * k, 10) for k in range(1, 21)],
    "fractions": [0.1, 0.2, 0.3],
    "runs": 100,
    "marginal_samples": None,
    "marginal_reference": "full",
    "per_subject": False,
    "cube_probs": None,
}


def _check_keys(what: str, obj: dict, known) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _spec_kind(what: str, obj: dict, keys: dict) -> str:
    """The kind of the ``what`` spec ``obj``, which takes only its kind's keys."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    _check_keys(f"{kind} {what} spec", obj, keys[kind])
    return kind


def rule_from_json(obj):
    if obj is None:
        return Identity()
    if not isinstance(obj, dict):
        raise ConfigError(f"similarity spec {obj!r} is not an object")
    kind = _spec_kind("similarity", obj, RULE_KEYS)
    if kind == "identity":
        return Identity()
    try:
        threshold = float(obj["frac" if kind == "range_fraction" else "delta"])
        if not math.isfinite(threshold):
            raise ValueError(f"the threshold must be finite, got {threshold!r}")
        if kind == "abs":
            return AbsoluteThreshold(threshold)
        if kind == "relative":
            return RelativeThreshold(threshold)
        return RangeFraction(
            threshold, float(obj.get("lo_q", 0.0)), float(obj.get("hi_q", 1.0))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("similarity", obj, exc) from None


def rules_from_json(spec, schema, what: str) -> list:
    """One rule per column: its own spec, else "default", else identity."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be an object of per-column specs")
    _check_keys(what, spec, ["default", *(col.name for col in schema)])
    default = spec.get("default")
    return [rule_from_json(spec.get(col.name, default)) for col in schema]


def model_from_json(obj):
    """Builtin model specs; returns None for the predictions-file spec."""
    if not isinstance(obj, dict):
        raise ConfigError(f"model spec {obj!r} is not an object")
    kind = _spec_kind("model", obj, MODEL_KEYS)
    if kind == "predictions":
        if not isinstance(obj.get("path"), str):
            raise ConfigError("predictions model needs a file path")
        return None
    if kind == "external":
        if not (isinstance(obj.get("command"), list) and obj["command"]):
            raise ConfigError("external command must be a non-empty argv list")
        return ExternalCommand(tuple(str(a) for a in obj["command"]))
    try:
        coefficients = tuple(float(c) for c in obj["coefficients"])
        intercept = float(obj.get("intercept", 0.0))
        if not all(map(math.isfinite, (*coefficients, intercept))):
            raise ValueError("coefficients and intercept must be finite")
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("model", obj, exc) from None
    model = LinearModel if kind == "linear" else LogisticModel
    return model(coefficients, intercept)


@dataclass
class RunConfig:
    data: str | None = None
    schema: object = None  # raw JSON form; parsed on demand
    prediction_column: str | None = None
    similarity: dict = field(default_factory=dict)
    method: str = "cs"
    targets: object = "all"
    engine: str = "exact"
    permutations: int = 1000
    seed: int = 0
    model: dict | None = None
    baseline: object = "mean"
    audit: dict = field(default_factory=dict)
    cube_values: object = None
    out: str = "out"

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        raw = {}
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file {path!r} does not exist")
            with open(path, encoding="utf-8") as fh:
                try:
                    raw = json.load(fh, parse_int=_parse_int)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path!r} is not a JSON object")
        _check_keys("config", raw, cls.__dataclass_fields__)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**raw)

    def parsed_schema(self):
        if self.schema is None:
            raise ConfigError("no schema configured")
        try:
            schema = schema_from_json(self.schema)
        except (KeyError, TypeError, AttributeError, DatasetError) as exc:
            raise _spec_error("schema", self.schema, exc) from None
        names = [col.name for col in schema]
        if not all(isinstance(name, str) for name in names):
            raise ConfigError(f"schema column names must be strings, got {names}")
        if not names or len(set(names)) < len(names):
            raise ConfigError(f"schema must name distinct columns, at least one: {names}")
        return schema

    def parsed_targets(self) -> object:
        if self.targets == "all":
            return "all"
        targets = self.targets
        if isinstance(targets, str):
            targets = [t for t in targets.split(",") if t.strip()]
        try:
            parsed = [_target_index(t) for t in targets]
        except (TypeError, ValueError):
            raise ConfigError(f"bad target list {self.targets!r}") from None
        if not parsed:
            raise ConfigError(f"target list {self.targets!r} names no subject")
        return parsed

    def rules_for(self, schema) -> list:
        return rules_from_json(self.similarity, schema, "similarity")

    def audit_rules_for(self, schema) -> list:
        """The realism curve's rules: audit similarity specs over the run's."""
        spec = {**self.similarity, **self.audit_settings()["similarity"]}
        return rules_from_json(spec, schema, "audit similarity")

    def parsed_model(self):
        if self.model is None:
            return None
        return model_from_json(self.model)

    def predictions_path(self) -> str | None:
        if self.model is not None and self.model.get("kind") == "predictions":
            return self.model["path"]
        return None

    def audit_settings(self) -> dict:
        """The audit block laid over :data:`AUDIT_DEFAULTS`."""
        return {**AUDIT_DEFAULTS, **self.audit}

    def validate(self, command: str) -> None:
        _check_int("permutations", self.permutations, 0)
        _check_int("seed", self.seed, 0)
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"out must be a directory path, got {self.out!r}")
        if not isinstance(self.audit, dict):
            raise ConfigError(f"audit must be an object, got {self.audit!r}")
        _check_keys("audit", self.audit, AUDIT_DEFAULTS)
        audit = self.audit_settings()
        if not isinstance(audit["similarity"], dict):
            raise ConfigError("audit similarity must be an object of per-column specs")
        for key in ("scales", "fractions"):
            _check_numbers(f"audit {key}", audit[key])
            if not audit[key]:
                raise ConfigError(f"audit {key} must not be empty")
        if not all(s >= 0 for s in audit["scales"]):
            raise ConfigError(f"audit scales must be >= 0, got {audit['scales']!r}")
        if not all(0 < f < 1 for f in audit["fractions"]):
            raise ConfigError(f"audit fractions must lie in (0, 1), got {audit['fractions']!r}")
        if audit["marginal_reference"] not in ("full", "train"):
            raise ConfigError(f"unknown audit marginal_reference {audit['marginal_reference']!r}")
        _check_int("audit runs", audit["runs"], 1)
        if not isinstance(audit["per_subject"], bool):
            raise ConfigError(
                f"audit per_subject must be true or false, got {audit['per_subject']!r}"
            )
        if audit["marginal_samples"] is not None:
            _check_int("audit marginal_samples", audit["marginal_samples"], 1)
        probs = audit["cube_probs"]
        if probs is not None:
            _check_numbers("audit cube_probs", probs)
            if not all(0 <= p <= 1 for p in probs):
                raise ConfigError(f"audit cube_probs must lie in [0, 1], got {probs!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; one of {METHODS}")
        if command == "local" and self.method == "var":
            raise ConfigError("method 'var' is global; use the global command")
        if self.engine not in ("exact", "mc"):
            raise ConfigError(f"unknown engine {self.engine!r}; exact or mc")
        if self.engine == "mc" and self.permutations < 2:
            raise ConfigError("mc engine needs at least 2 permutations")
        if command == "cube":
            if self.cube_values is None:
                raise ConfigError("cube command needs cube_values")
            if not isinstance(self.cube_values, str):  # a file's d is not yet known
                _check_numbers("cube_values", self.cube_values)
                try:
                    coordinate_probs(probs, CubeFunction(self.cube_values).d)
                except ValueError as exc:
                    raise ConfigError(f"bad cube_values or audit cube_probs: {exc}") from None
            return
        if self.data is None:
            raise ConfigError("no data file configured")
        if not isinstance(self.data, str):
            raise ConfigError(f"data must be a CSV file path, got {self.data!r}")
        column = self.prediction_column
        if column is not None and not isinstance(column, str):
            raise ConfigError(f"prediction_column must be a column name, got {column!r}")
        schema = self.parsed_schema()
        d = len(schema)
        if d > MAX_COLUMNS:
            raise ConfigError(f"at most {MAX_COLUMNS} columns supported, got d={d}")
        if self.engine == "exact" and d > EXACT_CAP:
            raise ConfigError(
                f"exact engine capped at d={EXACT_CAP}, got d={d}; use engine=mc"
            )
        if command == "global" and audit["per_subject"] and d > EXACT_CAP:
            raise ConfigError(
                f"audit per_subject needs the dense cohort tables, capped at "
                f"d={EXACT_CAP}; got d={d}"
            )
        if self.baseline != "mean":
            _check_numbers("a baseline other than 'mean'", self.baseline)
            if len(self.baseline) != d:
                raise ConfigError(f"baseline needs {d} numbers, got {self.baseline!r}")
        model = self.parsed_model()  # raises early on a malformed spec
        coefficients = getattr(model, "coefficients", None)
        if coefficients is not None and len(coefficients) != d:
            raise ConfigError(f"model coefficients: need {d}, got {len(coefficients)}")
        if self.method in MODEL_METHODS and model is None:
            raise ConfigError(f"method {self.method!r} needs a predicting model")
        if command == "audit" and model is not None and d > EXACT_CAP:
            raise ConfigError(
                f"d={d} exceeds the exact cap {EXACT_CAP}: the realistic/unrealistic "
                f"split of an audit with a model needs d <= {EXACT_CAP}"
            )
        has_predictions = self.prediction_column is not None or self.model is not None
        if self.method not in MODEL_METHODS and not has_predictions:
            raise ConfigError(
                f"method {self.method!r} needs predictions: a prediction_column, "
                "a predictions file, or a model to evaluate"
            )
        for rules in (self.rules_for(schema), self.audit_rules_for(schema)):
            try:
                check_rules(rules, schema)
            except SimilarityError as exc:
                raise ConfigError(str(exc)) from None
        self.parsed_targets()
