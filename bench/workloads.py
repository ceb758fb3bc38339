"""The three workloads: their inputs, CLI commands and output checks.

Every workload runs the same five commands (panel, global, audit, model
panel, Monte Carlo local) plus a loop of single-target explains, each in the
form its shape allows, so every end-to-end metric exists on every workload:

- titanic: the paper's 1045x6 example. A 64-entry lattice, so the superset
  sum and the contraction are nearly free; time goes to pattern builds, the
  per-target CLI loop, witness scans, model processes and permutations.
  The bypass case for any lattice optimisation.
- wide: a 14-column numeric table. A 16384-entry lattice, so the superset
  sum, the n x 2^d tables and the contraction dominate.
- lazy: 22 columns, above the dense-table cap, engine mc. No table; patterns
  are rebuilt per (coalition, target) and values go through the game memo.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# A Monte Carlo stderr counts as converged at this share of the predictions'
# standard deviation.
MC_TOLERANCE = 0.01

COMMANDS = ("panel_s", "global_s", "audit_s", "model_panel_s", "mc_local_s")
ONCE = dict.fromkeys(COMMANDS, 1)

# (full, toy) sizes; toy sizes only keep the smoke test fast. A round runs
# each command ``repeat`` times and explains ``explain_per_round`` subjects,
# cycling through all of them over the run. Each command's share of a round
# is at least a few tenths of a second, because a shorter sample swings with
# the load of neighbours on a shared host; rounds stay short enough for a
# run's medians to rest on about ten of them.
SIZES = {
    "titanic": {
        "full": dict(n=1045, audit_runs=1, marginal=3000, split_targets=4,
                     model_targets=2, mc_targets=8, mc_perms=2000,
                     explain_per_round=300,
                     repeat={**ONCE, "global_s": 4, "audit_s": 2}),
        "toy": dict(n=120, audit_runs=1, marginal=200, split_targets=1, model_targets=1,
                    mc_targets=2, mc_perms=50, explain_per_round=20, repeat=ONCE),
    },
    "wide": {
        "full": dict(n=160, d=14, audit_runs=1, marginal=2000, split_targets=1,
                     model_targets=1, mc_targets=8, mc_perms=2000,
                     explain_per_round=100, repeat={**ONCE, "audit_s": 2}),
        "toy": dict(n=60, d=8, audit_runs=1, marginal=200, split_targets=1,
                    model_targets=1, mc_targets=2, mc_perms=50,
                    explain_per_round=10, repeat=ONCE),
    },
    "lazy": {
        "full": dict(n=120, d=22, audit_runs=4, marginal=1200, global_perms=2,
                     panel_perms=10, model_targets=1, model_perms=50, mc_targets=6,
                     mc_perms=500, explain_per_round=20, explain_perms=50,
                     repeat={**ONCE, "audit_s": 4, "model_panel_s": 2}),
        "toy": dict(n=30, d=21, audit_runs=1, marginal=300, global_perms=2, panel_perms=3,
                    model_targets=1, model_perms=5, mc_targets=1, mc_perms=20,
                    explain_per_round=5, explain_perms=5, repeat=ONCE),
    },
}


@dataclass
class Command:
    """A CLI command run ``repeat`` times back to back per round, so that
    its sample averages over at least a few tenths of a second. ``argv``
    takes the output directory last; ``check(out, stdout)`` lists what is
    wrong with one invocation's outputs."""

    metric: str
    argv: list[str]
    check: Callable[[Path, str], list[str]]
    repeat: int = 1


@dataclass
class Workload:
    name: str
    config: Path
    out: Path
    n: int
    d: int
    engine: str
    commands: list[Command]
    explain_order: list[int]
    explain_per_round: int
    explain_perms: int | None
    seed: int
    y_sd: float
    mc_targets: list[int]
    panel_perms: int | None = None

    @property
    def sum_tol(self) -> float:
        """Relative tolerance of sum(phi) == total; a Monte Carlo estimate
        telescopes, so it must hold to rounding."""
        return 1e-12 if self.engine == "mc" else 1e-9


# -- checks ---------------------------------------------------------------

def sum_problem(where, phi, total, rel) -> list[str]:
    values = list(phi.values()) if isinstance(phi, dict) else list(phi)
    scale = max(abs(total), max(abs(v) for v in values), 1e-300)
    gap = abs(math.fsum(values) - total)
    return [] if gap <= rel * scale else [f"{where}: sum(phi) - total = {gap!r}"]


def _attribution_problems(path: Path, rel: float) -> list[str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payloads = payload if isinstance(payload, list) else [payload]
    problems = []
    for p in payloads:
        where = f"{path.name} t{p['target']}"
        problems += sum_problem(where, p["phi"], p["total"], rel)
        if "permutations" in p and not all(
            math.isfinite(v) for v in p.get("stderr", {"-": math.nan}).values()
        ):
            problems.append(f"{where}: Monte Carlo result without a finite stderr")
    return problems


def _missing(path: Path) -> list[str]:
    return [] if path.is_file() else [f"missing output {path.name}"]


def _read_panel(path: Path) -> dict[int, list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {int(r[1]): [float(v) for v in r[2:-1]] for r in rows}


def panel_check(wl: Workload, explain):
    def check(out: Path, stdout: str) -> list[str]:
        attributions = out / "attributions_cs.json"
        panel_path = out / "panel_cs.csv"
        problems = _missing(attributions) + _missing(panel_path)
        if problems:
            return problems
        problems += _attribution_problems(attributions, wl.sum_tol)
        panel = _read_panel(panel_path)
        if sorted(panel) != list(range(wl.n)):
            problems.append("panel does not list every subject once")
            return problems
        for t in (0, wl.n // 2, wl.n - 1):
            want = explain(t, panel=True).phi
            gap = float(np.max(np.abs(np.asarray(panel[t]) - want)))
            if not gap <= 1e-10:
                problems.append(f"panel row {t} differs from the API by {gap!r}")
        return problems

    return check


def global_check(wl: Workload):
    def check(out: Path, stdout: str) -> list[str]:
        path = out / "global_var.json"
        problems = _missing(path)
        if problems:
            return problems
        payload = json.loads(path.read_text(encoding="utf-8"))
        problems += sum_problem("global_var.json", payload["phi"], payload["total"],
                                wl.sum_tol)
        match = re.search(r"disaggregation residual: (\S+) \(budget (\S+)\)", stdout)
        if wl.d <= 20:
            if match is None or "disaggregation_residual" not in payload:
                problems.append("global printed no disaggregation residual")
            elif not float(match.group(1)) <= float(match.group(2)):
                problems.append(f"disaggregation residual over budget: {match.group(0)}")
        return problems

    return check


def audit_check(split_targets):
    def check(out: Path, stdout: str) -> list[str]:
        path = out / "realism.csv"
        problems = _missing(path)
        if problems:
            return problems
        curves: dict[tuple, list[tuple[float, float]]] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (row["source"], row["fraction"])
                curves.setdefault(key, []).append(
                    (float(row["threshold"]), float(row["rate"]))
                )
        for key, points in curves.items():
            rates = [r for _, r in sorted(points)]
            if not all(0.0 <= r <= 1.0 for r in rates):
                problems.append(f"realism rate outside [0, 1] for {key}")
            if any(b < a for a, b in zip(rates, rates[1:])):
                problems.append(f"realism rate decreases with scale for {key}")
        for t in split_targets:
            split_path = out / f"split_bs_t{t}.json"
            problems += _missing(split_path)
            if not split_path.is_file():
                continue
            split = json.loads(split_path.read_text(encoding="utf-8"))
            for name, phi in split["phi"].items():
                if split["phi_realistic"][name] + split["phi_unrealistic"][name] != phi:
                    problems.append(f"split t{t} parts do not add to phi[{name}]")
        return problems

    return check


def attribution_check(method: str, targets, rel: float):
    def check(out: Path, stdout: str) -> list[str]:
        problems = []
        for t in targets:
            path = out / f"attribution_{method}_t{t}.json"
            problems += _missing(path) or _attribution_problems(path, rel)
        return problems

    return check


# -- builders -------------------------------------------------------------

def _csv_list(targets) -> str:
    return ",".join(str(t) for t in targets)


def build(name: str, seed: int, work: Path, toy: bool, explain_factory) -> Workload:
    """Write the workload's inputs under ``work`` and describe its commands.

    ``explain_factory(workload)`` returns ``explain(t, panel=False)``, the
    public single-target API call the panel is checked against.
    """
    size = SIZES[name]["toy" if toy else "full"]
    work.mkdir(parents=True, exist_ok=True)
    if name == "titanic":
        X, y, model = inputs.titanic_table(size["n"])
        schema = dict(inputs.TITANIC_COLUMNS)
        similarity = {
            "default": {"kind": "identity"},
            "age": {"kind": "range_fraction", "frac": 0.1, "lo_q": 0.0, "hi_q": 1.0},
            "fare": {"kind": "range_fraction", "frac": 0.1, "lo_q": 0.0, "hi_q": 1.0},
        }
        audit = {
            "similarity": {
                "age": {"kind": "range_fraction", "frac": 1.0, "lo_q": 0.0, "hi_q": 1.0},
                "fare": {"kind": "range_fraction", "frac": 1.0, "lo_q": 0.0, "hi_q": 1.0},
            },
            "scales": [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0],
        }
        engine = "exact"
    else:
        X, y, model = inputs.gaussian_table(size["n"], size["d"])
        schema = {f"c{j}": "numeric" for j in range(size["d"])}
        similarity = {"default": {"kind": "abs", "delta": 0.5}}
        audit = {"scales": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]}
        engine = "exact" if name == "wide" else "mc"
    audit.update(fractions=[0.1, 0.2, 0.3], runs=size["audit_runs"],
                 marginal_samples=size["marginal"])
    n, d = X.shape
    order = inputs.row_order(seed, n)
    X, y = X[order], y[order]
    position = np.argsort(order)  # subject s sits at row position[s]
    data = work / "table.csv"
    inputs.write_table(data, list(schema), X, y)
    base = {
        "data": str(data),
        "schema": schema,
        "prediction_column": "pred",
        "similarity": similarity,
        "method": "cs",
        "engine": engine,
        "seed": seed,
        "audit": audit,
    }
    if engine == "mc":
        base["permutations"] = size["global_perms"]
    else:
        # the audit's realism split needs the model, and only runs at d <= 20
        base["model"] = model
    config = work / "config.json"
    inputs.write_json(config, base)
    external = work / "config_external.json"
    inputs.write_json(external, {**base, "model": inputs.external_model(model)})

    # Command targets are the same subjects on every seed; the explain
    # order is drawn afresh.
    subjects = np.random.default_rng([inputs.TABLE_SEED, 4]).permutation(n)
    picked = iter(subjects)

    def targets(k):
        return sorted(int(position[next(picked)]) for _ in range(min(k, n)))

    mc_targets = targets(size["mc_targets"])
    model_targets = targets(size["model_targets"])
    split_targets = targets(size.get("split_targets", 0)) if engine == "exact" else []
    wl = Workload(
        name=name, config=config, out=work / "out", n=n, d=d, engine=engine, commands=[],
        explain_order=[int(t) for t in np.random.default_rng([seed, 5]).permutation(n)],
        explain_per_round=size["explain_per_round"], explain_perms=size.get("explain_perms"),
        seed=seed, y_sd=inputs.prediction_sd(y), mc_targets=mc_targets,
    )
    cfg = ["--config", str(config)]
    panel = ["local", *cfg, "--targets", "all"]
    if engine == "mc":
        panel += ["--permutations", str(size["panel_perms"])]
        wl.panel_perms = size["panel_perms"]
    model_argv = ["local", "--config", str(external), "--method", "bs",
                  "--targets", _csv_list(model_targets)]
    if engine == "mc":
        model_argv += ["--permutations", str(size["model_perms"])]
    audit_argv = ["audit", *cfg]
    if split_targets:
        audit_argv += ["--targets", _csv_list(split_targets)]
    mc_argv = ["local", *cfg, "--engine", "mc", "--permutations", str(size["mc_perms"]),
               "--seed", str(seed), "--targets", _csv_list(mc_targets)]
    repeat = size["repeat"]
    wl.commands = [
        Command("panel_s", [*panel, "--out"], panel_check(wl, explain_factory(wl)),
                repeat["panel_s"]),
        Command("global_s", ["global", *cfg, "--out"], global_check(wl), repeat["global_s"]),
        Command("audit_s", [*audit_argv, "--out"], audit_check(split_targets),
                repeat["audit_s"]),
        Command("model_panel_s", [*model_argv, "--out"],
                attribution_check("bs", model_targets, wl.sum_tol), repeat["model_panel_s"]),
        Command("mc_local_s", [*mc_argv, "--out"],
                attribution_check("cs", mc_targets, 1e-12), repeat["mc_local_s"]),
    ]
    return wl


def mc_time_to_tol(wl: Workload, out: Path, wall: float) -> float:
    """Seconds the MC command would need for every stderr to reach the
    tolerance, by the 1/sqrt(m) law, giving each target its own count."""
    tol = MC_TOLERANCE * wl.y_sd
    per_target = wall / len(wl.mc_targets)
    total = 0.0
    for t in wl.mc_targets:
        payload = json.loads(
            (out / f"attribution_cs_t{t}.json").read_text(encoding="utf-8")
        )
        worst = max(payload["stderr"].values())
        total += per_target * (worst / tol) ** 2
    return total
