"""Command-line surface: local, global, audit and cube runs.

Every command reads one JSON config plus flag overrides, validates before
touching data or models, and emits JSON/CSV artifacts with shortest
round-trip decimals so identical runs produce byte-identical files.
Phase timings go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from .aggregate import (
    aggregate_squared_cs,
    local_attributions,
    make_panel,
    variance_shapley,
    write_panel_csv,
)
from .audit import bs_realism_split, realism_curve, write_realism_csv
from .config import ConfigError, RunConfig
from .cube import (
    CubeFunction,
    anchored_cube,
    anova_cube,
    shapley_effects_independent,
    shapley_from_anchored,
)
from .dataset import DatasetError, attach_predictions, load_csv
from .games import EXACT_CAP, MODEL_METHODS, TableGame
from .models import ModelError, predict
from .shapley import Attribution, shapley_exact
from .similarity import SimilarityError


@contextlib.contextmanager
def _phase(name: str):
    start = time.perf_counter()
    yield
    print(f"[timing] {name}: {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _json_ready(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_ready)
        fh.write("\n")


def _named(names, values) -> dict:
    return {name: float(v) for name, v in zip(names, values)}


def _attribution_payload(att: Attribution, names) -> dict:
    payload = {
        "method": att.method,
        "target": att.target,
        "phi": _named(names, att.phi),
        "total": float(att.total),
    }
    if att.stderr is not None:
        payload["stderr"] = _named(names, att.stderr)
    if att.permutations_used is not None:
        payload["permutations"] = att.permutations_used
    return payload


def _load_dataset(cfg: RunConfig):
    schema = cfg.parsed_schema()
    ds = load_csv(cfg.data, schema, prediction_column=cfg.prediction_column)
    model = cfg.parsed_model()
    pred_path = cfg.predictions_path()
    if ds.predictions is None and pred_path is not None:
        with open(pred_path, encoding="utf-8") as fh:
            y = np.array([float(line) for line in fh if line.strip()])
        ds = attach_predictions(ds, y)
    if ds.predictions is None and model is not None:
        ds = attach_predictions(ds, predict(model, ds.X))
    return ds, model


def cmd_local(cfg: RunConfig) -> int:
    cfg.validate("local")
    if cfg.method == "var":
        raise ConfigError("method 'var' is global; use the global command")
    with _phase("load"):
        ds, model = _load_dataset(cfg)
        rules = cfg.rules_for(ds.schema)
    targets = cfg.parsed_targets()
    everyone = targets == "all"
    target_list = list(range(ds.n)) if everyone else targets
    for t in target_list:
        if not 0 <= t < ds.n:
            raise ConfigError(f"target {t} outside 0..{ds.n - 1}")

    with _phase(f"attribution[{cfg.method}] x{len(target_list)}"):
        attributions = local_attributions(
            ds,
            cfg.method,
            target_list,
            rules,
            model,
            cfg.baseline,
            cfg.engine,
            cfg.permutations,
            cfg.seed,
        )

    with _phase("emit"):
        if everyone:
            _write_json(
                os.path.join(cfg.out, f"attributions_{cfg.method}.json"),
                [_attribution_payload(a, ds.names) for a in attributions],
            )
            panel = make_panel(ds, cfg.method, attributions)
            write_panel_csv(panel, os.path.join(cfg.out, f"panel_{cfg.method}.csv"))
        else:
            for att in attributions:
                _write_json(
                    os.path.join(
                        cfg.out, f"attribution_{cfg.method}_t{att.target}.json"
                    ),
                    _attribution_payload(att, ds.names),
                )
    return 0


def cmd_global(cfg: RunConfig) -> int:
    cfg.validate("global")
    with _phase("load"):
        ds, _ = _load_dataset(cfg)
        rules = cfg.rules_for(ds.schema)
    with _phase("variance shapley"):
        direct = variance_shapley(
            ds, rules, engine=cfg.engine, permutations=cfg.permutations, seed=cfg.seed
        )
    payload = {
        "method": "var",
        "phi": _named(ds.names, direct.phi_var),
        "total": float(direct.total_variance),
    }
    if ds.d <= EXACT_CAP:
        with _phase("per-subject disaggregation"):
            agg = aggregate_squared_cs(ds, rules)
        residual = float(np.max(np.abs(direct.phi_var - agg.phi_var)))
        print(
            f"disaggregation residual: {residual!r} "
            f"(budget {1e-9 * max(direct.total_variance, 1e-300)!r})"
        )
        payload["disaggregation_residual"] = residual
        if cfg.audit.get("per_subject", False):
            path = os.path.join(cfg.out, "per_subject_cs2.csv")
            os.makedirs(cfg.out, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(",".join(["subject", *ds.names]) + "\n")
                for t in range(ds.n):
                    row = ",".join(repr(float(v)) for v in agg.per_subject[t])
                    fh.write(f"{t},{row}\n")
    with _phase("emit"):
        _write_json(os.path.join(cfg.out, "global_var.json"), payload)
    return 0


def cmd_audit(cfg: RunConfig) -> int:
    cfg.validate("audit")
    with _phase("load"):
        ds, model = _load_dataset(cfg)
    audit_cfg = cfg.audit
    schema = cfg.parsed_schema()
    base_rules = cfg.rules_for(schema)
    if "similarity" in audit_cfg:
        spec = dict(cfg.similarity)
        spec.update(audit_cfg["similarity"])
        base_rules = RunConfig(similarity=spec).rules_for(schema)
    scales = audit_cfg.get("scales", [round(0.05 * k, 10) for k in range(1, 21)])
    fractions = audit_cfg.get("fractions", [0.1, 0.2, 0.3])
    runs = int(audit_cfg.get("runs", 100))
    with _phase(f"realism curve ({len(scales)} scales x {runs} runs)"):
        report = realism_curve(
            ds,
            base_rules,
            scales,
            fractions,
            runs=runs,
            seed=cfg.seed,
            marginal_samples=audit_cfg.get("marginal_samples"),
            marginal_reference=audit_cfg.get("marginal_reference", "full"),
        )
    os.makedirs(cfg.out, exist_ok=True)
    write_realism_csv(report, os.path.join(cfg.out, "realism.csv"))

    if model is not None:
        method = cfg.method if cfg.method in MODEL_METHODS else "bs"
        targets = cfg.parsed_targets()
        if targets == "all":
            targets = [0]
        rules = cfg.rules_for(schema)
        with _phase(f"realism split x{len(targets)}"):
            for t in targets:
                split = bs_realism_split(
                    ds, t, cfg.baseline, model, rules, method=method
                )
                _write_json(
                    os.path.join(cfg.out, f"split_{method}_t{t}.json"),
                    {
                        "method": split.method,
                        "target": split.target,
                        "phi_realistic": _named(ds.names, split.phi_realistic),
                        "phi_unrealistic": _named(ds.names, split.phi_unrealistic),
                        "phi": _named(ds.names, split.phi),
                    },
                )
    return 0


def cmd_cube(cfg: RunConfig) -> int:
    cfg.validate("cube")
    values = cfg.cube_values
    if isinstance(values, str):
        with open(values, encoding="utf-8") as fh:
            values = [float(line) for line in fh if line.strip()]
    g = CubeFunction(np.asarray(values, dtype=float))
    with _phase("decompositions"):
        dec = anchored_cube(g)
        via_anchored = shapley_from_anchored(dec)
        direct = shapley_exact(TableGame(g.values - g.values[0], "cube"))
        probs = cfg.audit.get("cube_probs", [0.5] * g.d)
        anova = anova_cube(g, np.asarray(probs, dtype=float))
        effects = shapley_effects_independent(anova)
    discrepancy = float(np.max(np.abs(via_anchored.phi - direct.phi)))
    print(f"two-route max discrepancy: {discrepancy!r}")
    names = [f"z{j + 1}" for j in range(g.d)]
    _write_json(
        os.path.join(cfg.out, "cube.json"),
        {
            "d": g.d,
            "anchored_components": [float(v) for v in dec.components],
            "anova_sigma2": [float(v) for v in anova.sigma2],
            "anova_mean": float(anova.mean),
            "phi_anchored": _named(names, via_anchored.phi),
            "phi_exact": _named(names, direct.phi),
            "phi_variance": _named(names, effects.phi),
            "max_discrepancy": discrepancy,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortshap",
        description="Variable importance for black-box predictors on observed data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("local", "per-target attributions (and a panel for --targets all)"),
        ("global", "variance Shapley with per-subject disaggregation"),
        ("audit", "realism calibration and realistic/unrealistic splits"),
        ("cube", "decompositions of an explicit 2^d value table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", help="dataset CSV path")
        p.add_argument("--method", help="cs|cs2|bs|bs2|abs|abs2|var")
        p.add_argument("--engine", help="exact|mc")
        p.add_argument("--permutations", type=int, help="mc permutation count")
        p.add_argument("--seed", type=int, help="mc / audit seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--targets", help="'all' or comma-separated row indices")
    return parser


COMMANDS = {
    "local": cmd_local,
    "global": cmd_global,
    "audit": cmd_audit,
    "cube": cmd_cube,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, key)
        for key in (
            "data",
            "method",
            "engine",
            "permutations",
            "seed",
            "out",
            "targets",
        )
    }
    try:
        cfg = RunConfig.load(args.config, overrides)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, SimilarityError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
