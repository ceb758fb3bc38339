"""Run configuration: one JSON file, flag overrides win.

Validation happens before any data is loaded or any model process is
spawned, so a bad config never reaches computation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .dataset import schema_from_json
from .games import EXACT_CAP, MODEL_METHODS
from .models import ExternalCommand, LinearModel, LogisticModel
from .similarity import (
    AbsoluteThreshold,
    Identity,
    RangeFraction,
    RelativeThreshold,
)

METHODS = ("cs", "cs2", "bs", "bs2", "abs", "abs2", "var")

# Coalitions are int64 bitmasks, one bit per column.
MAX_COLUMNS = 63


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _spec_error(what: str, obj, exc: Exception) -> ConfigError:
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ConfigError(f"bad {what} spec {obj!r}: {reason}")


def rule_from_json(obj):
    if obj is None:
        return Identity()
    if not isinstance(obj, dict):
        raise ConfigError(f"similarity spec {obj!r} is not an object")
    kind = obj.get("kind")
    try:
        if kind == "identity":
            return Identity()
        if kind == "abs":
            return AbsoluteThreshold(float(obj["delta"]))
        if kind == "range_fraction":
            return RangeFraction(
                float(obj["frac"]),
                float(obj.get("lo_q", 0.0)),
                float(obj.get("hi_q", 1.0)),
            )
        if kind == "relative":
            return RelativeThreshold(float(obj["delta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("similarity", obj, exc) from None
    raise ConfigError(f"unknown similarity kind {kind!r}")


def rule_to_json(rule) -> dict:
    if isinstance(rule, Identity):
        return {"kind": "identity"}
    if isinstance(rule, AbsoluteThreshold):
        return {"kind": "abs", "delta": rule.delta}
    if isinstance(rule, RangeFraction):
        return {
            "kind": "range_fraction",
            "frac": rule.frac,
            "lo_q": rule.lo_q,
            "hi_q": rule.hi_q,
        }
    if isinstance(rule, RelativeThreshold):
        return {"kind": "relative", "delta": rule.delta}
    raise ConfigError(f"unserializable rule {rule!r}")


def model_from_json(obj):
    """Builtin model specs; returns None for the predictions-file spec."""
    if not isinstance(obj, dict):
        raise ConfigError(f"model spec {obj!r} is not an object")
    kind = obj.get("kind")
    if kind == "predictions":
        if not isinstance(obj.get("path"), str):
            raise ConfigError("predictions model needs a file path")
        return None
    if kind == "external" and isinstance(obj.get("command"), str):
        raise ConfigError("external command must be an argv list")
    try:
        if kind == "linear":
            return LinearModel(tuple(float(c) for c in obj["coefficients"]),
                               float(obj.get("intercept", 0.0)))
        if kind == "logistic":
            return LogisticModel(tuple(float(c) for c in obj["coefficients"]),
                                 float(obj.get("intercept", 0.0)))
        if kind == "external":
            return ExternalCommand(tuple(str(a) for a in obj["command"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise _spec_error("model", obj, exc) from None
    raise ConfigError(f"unknown model kind {kind!r}")


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
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**raw)

    def parsed_schema(self):
        if self.schema is None:
            raise ConfigError("no schema configured")
        try:
            return schema_from_json(self.schema)
        except (KeyError, TypeError, AttributeError) as exc:
            raise _spec_error("schema", self.schema, exc) from None

    def parsed_targets(self) -> object:
        if self.targets == "all":
            return "all"
        try:
            if isinstance(self.targets, str):
                return [int(t) for t in self.targets.split(",") if t.strip()]
            return [int(t) for t in self.targets]
        except (TypeError, ValueError):
            raise ConfigError(f"bad target list {self.targets!r}") from None

    def rules_for(self, schema) -> list:
        """One rule per column: its own spec, else "default", else identity."""
        if not isinstance(self.similarity, dict):
            raise ConfigError("similarity must be an object of per-column specs")
        default = self.similarity.get("default")
        return [
            rule_from_json(self.similarity.get(col.name, default)) for col in schema
        ]

    def parsed_model(self):
        if self.model is None:
            return None
        return model_from_json(self.model)

    def predictions_path(self) -> str | None:
        if self.model is not None and self.model.get("kind") == "predictions":
            return self.model["path"]
        return None

    def validate(self, command: str) -> None:
        for key in ("permutations", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"{key} must be an integer >= 0, got {value!r}")
        if not isinstance(self.audit, dict):
            raise ConfigError(f"audit must be an object, got {self.audit!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; one of {METHODS}")
        if self.engine not in ("exact", "mc"):
            raise ConfigError(f"unknown engine {self.engine!r}; exact or mc")
        if self.engine == "mc" and self.permutations < 2:
            raise ConfigError("mc engine needs at least 2 permutations")
        if command == "cube":
            if self.cube_values is None:
                raise ConfigError("cube command needs cube_values")
            return
        if self.data is None:
            raise ConfigError("no data file configured")
        if self.schema is None:
            raise ConfigError("no schema configured")
        schema = self.parsed_schema()
        d = len(schema)
        if d > MAX_COLUMNS:
            raise ConfigError(f"at most {MAX_COLUMNS} columns supported, got d={d}")
        if self.engine == "exact" and d > EXACT_CAP:
            raise ConfigError(
                f"exact engine capped at d={EXACT_CAP}, got d={d}; use engine=mc"
            )
        model = self.parsed_model()  # raises early on a malformed spec
        if self.method in MODEL_METHODS and model is None:
            raise ConfigError(f"method {self.method!r} needs a predicting model")
        has_predictions = (
            self.prediction_column is not None
            or self.model is not None
        )
        if self.method in ("cs", "cs2", "var") and not has_predictions:
            raise ConfigError(
                f"method {self.method!r} needs predictions: a prediction_column, "
                "a predictions file, or a model to evaluate"
            )
        self.rules_for(schema)
        self.parsed_targets()
