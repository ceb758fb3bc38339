"""Command-line surface: local, global, audit and cube runs.

Every command reads one JSON config plus flag overrides, validates before
touching data or models, and emits JSON/CSV artifacts with shortest
round-trip decimals so identical runs produce byte-identical files.
Every artifact is written in the ``emit`` phase, and phase timings go to
standard error.

The config file is validated whole, whichever command runs, so one file
can serve every command. Besides ``--config`` and ``--out`` a command takes
only the flags it reads (:data:`COMMANDS`): ``local`` takes ``--data
--method --engine --permutations --seed --targets``, ``global`` ``--data
--engine --permutations --seed``, ``audit`` ``--data --method --seed
--targets`` and ``cube`` none; any other flag is a usage error.

Every artifact is written from one %-template per record, a %r for each
number: the template holds the layout and the escaped names, and a record
is one ``%`` of Python floats and ints from ``ndarray.tolist()``. Every
CSV is a header quoted by ``csv.writer`` and then those lines
(``aggregate.write_table``). The bytes are those of ``json.dump(indent=2)``
and of a ``csv.writer`` of ``repr`` cells. Every JSON number is finite:
each command refuses a non-finite result before it writes anything, and
the JSON writer refuses one too. A panel's phi floats are formatted once,
by ``repr``, and that text goes through a %s into both the attribution
list and the panel CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .aggregate import (
    global_attribution,
    local_attributions,
    make_panel,
    write_panel_csv,
    write_table,
)
from .audit import realism_curve, realism_splits, write_realism_csv
from .config import METHODS, ConfigError, RunConfig
from .cube import (
    CubeFunction,
    anchored_cube,
    anova_cube,
    shapley_effects_independent,
    shapley_from_anchored,
)
from .dataset import DatasetError, _read_numbers, attach_predictions, load_csv
from .games import MODEL_METHODS
from .models import ModelError, predict
from .shapley import _exact_phi
from .similarity import SimilarityError


@contextlib.contextmanager
def _phase(name: str):
    start = time.perf_counter()
    yield
    print(f"[timing] {name}: {time.perf_counter() - start:.3f}s", file=sys.stderr)


def _text(text: str) -> str:
    """``text`` as a JSON string in a %-template: escaped as ``json.dumps``
    escapes it (``ensure_ascii``), with each % doubled."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _layout(value, level: int, columns: list) -> str:
    """``value`` laid out as ``json.dump(indent=2)`` writes it at nesting
    ``level``, as a %-template. Strings are written in; each number leaf, a
    column with one entry per record, becomes a %r, as json writes ints and
    floats by ``repr``, and is appended to ``columns``."""
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_text(key)}: {_layout(v, level + 1, columns)}" for key, v in value.items()]
    elif isinstance(value, list):
        brackets = "[]"
        items = [_layout(v, level + 1, columns) for v in value]
    elif isinstance(value, str):
        return _text(value)
    else:
        column = value if isinstance(value, np.ndarray) else np.array([value])
        columns.append(column)
        return "%s" if column.dtype == object else "%r"
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * level}{brackets[1]}"


def _write_json(path, payload, many: bool = False) -> None:
    """Write one record, or with ``many`` a list of records, as
    ``json.dump(..., indent=2)`` and a newline would.

    ``payload`` is the record's layout, each number leaf of which is a
    column: one value, or with ``many`` one value per record. A column of
    text, an object array of the numbers' ``repr``, is written as it is
    through a %s. Every record fills the one template from :func:`_layout`,
    so no encoder runs per value. A non-finite number, which strict JSON
    cannot hold, raises ValueError before the file is opened.
    """
    columns: list = []
    template = _layout(payload, int(many), columns)
    numbers = [column for column in columns if column.dtype != object]
    if numbers and not np.isfinite(np.concatenate(numbers)).all():
        raise ValueError(f"{path}: a number is not finite")
    rows = zip(*(column.tolist() for column in columns), strict=True)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        if many:
            fh.write("[\n  " + template % next(rows))
            fh.writelines(map((",\n  " + template).__mod__, rows))
            fh.write("\n]\n")
        else:
            fh.write(template % next(rows) + "\n")


def _named(names, rows) -> dict:
    """One column per name, from one record's values or a (records, d) table."""
    return dict(zip(names, np.reshape(rows, (-1, len(names))).T))


def _attribution_payload(atts, names, phi=None) -> dict:
    """The attributions ``atts`` of one method and engine as a payload of
    columns, one entry per attribution; ``phi``, their (records, d) phi
    rows as text from :func:`_repr_table`, stands in for their floats."""
    att = atts[0]
    payload = {"method": att.method}
    if att.target is not None:
        payload["target"] = np.array([a.target for a in atts])
    payload["phi"] = _named(names, [a.phi for a in atts] if phi is None else phi)
    payload["total"] = np.array([a.total for a in atts], dtype=float)
    if att.stderr is not None:
        payload["stderr"] = _named(names, [a.stderr for a in atts])
    if att.permutations_used is not None:
        payload["permutations"] = np.array([a.permutations_used for a in atts])
    return payload


def _repr_table(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float of ``values``, as an object array of
    their shape."""
    text = np.empty(values.size, dtype=object)
    text[:] = list(map(repr, values.ravel().tolist()))
    return text.reshape(values.shape)


def _split_payload(split, names) -> dict:
    return {
        "method": split.method,
        "target": split.target,
        "phi_realistic": _named(names, split.phi_realistic),
        "phi_unrealistic": _named(names, split.phi_unrealistic),
        "phi": _named(names, split.phi),
    }


def _write_per_subject_csv(path, names, rows) -> None:
    """The (n, d) per-subject squared cohort rows, one line a subject after
    a header of the subject and the names."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_table(path, ["subject", *names], [np.arange(len(rows)), *rows.T], "\n")


def _load_dataset(cfg: RunConfig):
    schema = cfg.parsed_schema()
    ds = load_csv(cfg.data, schema, prediction_column=cfg.prediction_column)
    model = cfg.parsed_model()
    pred_path = cfg.predictions_path()
    if ds.predictions is None and pred_path is not None:
        ds = attach_predictions(ds, _read_numbers(pred_path))
    if ds.predictions is None and model is not None:
        ds = attach_predictions(ds, predict(model, ds.X))
    return ds, model


def _check_targets(targets, n: int) -> None:
    for t in targets:
        if not 0 <= t < n:
            raise ConfigError(f"target {t} outside 0..{n - 1}")


def cmd_local(cfg: RunConfig) -> int:
    with _phase("load"):
        ds, model = _load_dataset(cfg)
        rules = cfg.rules_for(ds.schema)
    targets = cfg.parsed_targets()
    everyone = targets == "all"
    target_list = list(range(ds.n)) if everyone else targets
    _check_targets(target_list, ds.n)

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
            # each phi float is formatted once, for the list and the panel
            panel = make_panel(ds, cfg.method, attributions)
            panel = dataclasses.replace(panel, bars=_repr_table(panel.bars))
            _write_json(
                os.path.join(cfg.out, f"attributions_{cfg.method}.json"),
                _attribution_payload(attributions, ds.names, panel.bars),
                many=True,
            )
            write_panel_csv(panel, os.path.join(cfg.out, f"panel_{cfg.method}.csv"))
        else:
            for att in attributions:
                _write_json(
                    os.path.join(
                        cfg.out, f"attribution_{cfg.method}_t{att.target}.json"
                    ),
                    _attribution_payload([att], ds.names),
                )
    return 0


def cmd_global(cfg: RunConfig) -> int:
    with _phase("load"):
        ds, _ = _load_dataset(cfg)
        rules = cfg.rules_for(ds.schema)
    # the exact direct route is checked against the disaggregated one; an MC
    # estimate reports its standard errors instead
    per_subject = cfg.audit_settings()["per_subject"]
    rows = cfg.engine == "exact" or per_subject
    with _phase("cohort sweep: variance shapley and per-subject rows"
                if rows else "variance shapley"):
        direct, cs2_rows = global_attribution(
            ds, rules, cfg.engine, cfg.permutations, cfg.seed, per_subject=rows
        )
    payload = _attribution_payload([direct], ds.names)
    if cfg.engine == "exact":
        residual = float(np.max(np.abs(direct.phi - cs2_rows.mean(axis=0))))
        print(
            f"disaggregation residual: {residual!r} "
            f"(budget {1e-9 * max(direct.total, 1e-300)!r})"
        )
        payload["disaggregation_residual"] = residual
    with _phase("emit"):
        if per_subject:
            _write_per_subject_csv(
                os.path.join(cfg.out, "per_subject_cs2.csv"), ds.names, cs2_rows
            )
        _write_json(os.path.join(cfg.out, "global_var.json"), payload)
    return 0


def cmd_audit(cfg: RunConfig) -> int:
    with _phase("load"):
        ds, model = _load_dataset(cfg)
    targets = cfg.parsed_targets()
    targets = [0] if targets == "all" else targets
    _check_targets(targets, ds.n)
    audit = cfg.audit_settings()
    with _phase(f"realism curve ({len(audit['scales'])} scales x {audit['runs']} runs)"):
        report = realism_curve(
            ds, cfg.audit_rules_for(ds.schema), audit["scales"], audit["fractions"],
            runs=audit["runs"], seed=cfg.seed, marginal_samples=audit["marginal_samples"],
            marginal_reference=audit["marginal_reference"],
        )
    splits = []
    if model is not None:
        method = cfg.method if cfg.method in MODEL_METHODS else "bs"
        rules = cfg.rules_for(ds.schema)
        with _phase(f"realism split x{len(targets)}"):
            # every split runs before any artifact is written, so a failed
            # split leaves no partial output
            splits = list(realism_splits(ds, targets, cfg.baseline, model, rules, method))
    with _phase("emit"):
        os.makedirs(cfg.out, exist_ok=True)
        write_realism_csv(report, os.path.join(cfg.out, "realism.csv"))
        for split in splits:
            _write_json(
                os.path.join(cfg.out, f"split_{split.method}_t{split.target}.json"),
                _split_payload(split, ds.names),
            )
    return 0


def cmd_cube(cfg: RunConfig) -> int:
    values = cfg.cube_values
    if isinstance(values, str):
        values = _read_numbers(values)
    g = CubeFunction(np.asarray(values, dtype=float))
    # an overflow shows as a non-finite output, refused below
    with _phase("decompositions"), np.errstate(over="ignore", invalid="ignore"):
        dec = anchored_cube(g)
        via_anchored = shapley_from_anchored(dec)
        direct = _exact_phi(g.values - g.values[0], g.d)[0]
        anova = anova_cube(g, cfg.audit_settings()["cube_probs"])
        effects = shapley_effects_independent(anova)
        discrepancy = float(np.max(np.abs(via_anchored.phi - direct)))
    outputs = (dec.components, anova.sigma2, anova.mean, via_anchored.phi,
               direct, effects.phi, discrepancy)
    if not all(np.isfinite(v).all() for v in outputs):
        raise ValueError("cube decompositions overflow: an output is not finite")
    print(f"two-route max discrepancy: {discrepancy!r}")
    names = [f"z{j + 1}" for j in range(g.d)]
    with _phase("emit"):
        _write_json(
            os.path.join(cfg.out, "cube.json"),
            {
                "d": g.d,
                "anchored_components": list(dec.components),
                "anova_sigma2": list(anova.sigma2),
                "anova_mean": float(anova.mean),
                "phi_anchored": _named(names, via_anchored.phi),
                "phi_exact": _named(names, direct),
                "phi_variance": _named(names, effects.phi),
                "max_discrepancy": discrepancy,
            },
        )
    return 0


# Each flag a command may take, by the RunConfig key it overrides.
FLAGS = {
    "data": {"help": "dataset CSV path"},
    "method": {"help": "|".join(METHODS)},
    "engine": {"help": "exact|mc"},
    "permutations": {"type": int, "help": "mc order count; orders come in pairs, "
                                          "each drawn order followed by its reverse"},
    "seed": {"type": int, "help": "mc / audit seed"},
    "targets": {"help": "'all' or comma-separated row indices"},
}

# Each command: its function, its help text and the keys of the flags it
# reads. Every command also takes --config and --out.
COMMANDS = {
    "local": (cmd_local, "per-target attributions (and a panel for --targets all)",
              ("data", "method", "engine", "permutations", "seed", "targets")),
    "global": (cmd_global, "variance Shapley and its per-subject disaggregation from "
                           "one sweep of the squared cohort tables",
               ("data", "engine", "permutations", "seed")),
    "audit": (cmd_audit, "realism calibration and realistic/unrealistic splits",
              ("data", "method", "seed", "targets")),
    "cube": (cmd_cube, "decompositions of an explicit 2^d value table", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohortshap",
        description="Variable importance for black-box predictors on observed data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for key in keys:
            p.add_argument(f"--{key}", **FLAGS[key])
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    # every parsed flag but the command and the config path overrides its key
    overrides = vars(build_parser().parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = RunConfig.load(path, overrides)
        cfg.validate(command)
        return COMMANDS[command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        DatasetError,
        SimilarityError,
        ModelError,
        ValueError,
        OSError,
        OverflowError,
        MemoryError,
    ) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
