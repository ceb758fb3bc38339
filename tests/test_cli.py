import argparse
import csv
import dataclasses
import json
import math
import os
import shutil
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cohortshap import (
    AbsoluteThreshold,
    ColumnSchema,
    Dataset,
    TableGame,
    aggregate_squared_cs,
    attach_predictions,
    cli,
    games,
    make_game,
    models,
    shapley_exact,
)
from cohortshap.cli import main
from cohortshap.config import RunConfig

from .helpers import LoggingModel

REPO = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main([str(a) for a in args])


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(path):
    """The JSON file at ``path``, refusing Infinity and NaN."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(REPO / "data" / "t8.csv", tmp_path / "t8.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def t8_config(workdir, **extra):
    cfg = {
        "data": "t8.csv",
        "schema": {"x1": "binary", "x2": "binary", "x3": "binary"},
        "prediction_column": "pred",
        "similarity": {"default": {"kind": "identity"}},
        "method": "cs",
        "targets": [7],
        "engine": "exact",
        "out": "out",
    }
    cfg.update(extra)
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


NAN, INF = float("nan"), float("inf")
# An integer past the float range, and a stand-in for one of 5001 digits,
# which json.dumps cannot write (int's digit limit) and the test writes in.
HUGE = 10**400
DIGITS_5001 = "<5001 digits>"
LINEAR_SPEC = {"kind": "linear", "coefficients": [2.0, 1.0, 0.0], "intercept": 0.0}
SMALL_AUDIT = {"scales": [0.5, 1.0], "fractions": [0.25], "runs": 2}


def test_local_cs_single_target(workdir, capsys):
    cfg = t8_config(workdir)
    assert run_cli(["local", "--config", cfg]) == 0
    payload = json.loads((workdir / "out" / "attribution_cs_t7.json").read_text())
    assert payload["phi"] == {"x1": 1.0, "x2": 0.5, "x3": 0.0}
    assert payload["total"] == 1.5
    assert payload["method"] == "cs"


def test_local_all_targets_panel(workdir):
    cfg = t8_config(workdir, targets="all")
    assert run_cli(["local", "--config", cfg]) == 0
    panel = (workdir / "out" / "panel_cs.csv").read_text().strip().splitlines()
    assert panel[0] == "rank,subject,x1,x2,x3,overlay"
    assert len(panel) == 9
    payloads = json.loads((workdir / "out" / "attributions_cs.json").read_text())
    assert len(payloads) == 8


def test_local_bs_with_builtin_model(workdir):
    cfg = t8_config(
        workdir,
        method="bs",
        model={"kind": "linear", "coefficients": [2.0, 1.0, 0.0], "intercept": 0.0},
    )
    assert run_cli(["local", "--config", cfg]) == 0
    payload = json.loads((workdir / "out" / "attribution_bs_t7.json").read_text())
    assert payload["total"] == pytest.approx(1.5)


def test_local_external_model(workdir):
    script = workdir / "model.py"
    script.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip():\n"
        "        a, b, c = (float(v) for v in line.split(','))\n"
        "        print(repr(2 * a + b))\n",
        encoding="utf-8",
    )
    cfg = t8_config(
        workdir,
        method="abs",
        model={"kind": "external", "command": [sys.executable, str(script)]},
    )
    assert run_cli(["local", "--config", cfg]) == 0
    payload = json.loads((workdir / "out" / "attribution_abs_t7.json").read_text())
    assert payload["phi"]["x1"] == pytest.approx(1.0)


def test_mc_engine_flags(workdir):
    cfg = t8_config(workdir)
    args = [
        "local", "--config", cfg, "--engine", "mc",
        "--permutations", "500", "--seed", "11",
    ]
    assert run_cli(args) == 0
    payload = json.loads((workdir / "out" / "attribution_cs_t7.json").read_text())
    assert payload["permutations"] == 500
    assert "stderr" in payload
    first = (workdir / "out" / "attribution_cs_t7.json").read_bytes()
    assert run_cli(args) == 0
    assert (workdir / "out" / "attribution_cs_t7.json").read_bytes() == first


def test_global_command(workdir, capsys):
    cfg = t8_config(workdir, method="var")
    assert run_cli(["global", "--config", cfg]) == 0
    payload = json.loads((workdir / "out" / "global_var.json").read_text())
    assert payload["phi"] == {"x1": 1.0, "x2": 0.25, "x3": 0.0}
    assert payload["total"] == 1.25
    out = capsys.readouterr().out
    assert "disaggregation residual" in out
    assert payload["disaggregation_residual"] <= 1e-9 * 1.25


def test_global_mc_reports_stderr_not_residual(workdir, capsys):
    # the MC direct route has no residual against the exact aggregate; it
    # reports its standard errors instead
    rng = np.random.default_rng(8)
    X = rng.integers(0, 4, size=(60, 5)).astype(float)
    y = X @ rng.normal(size=5) + rng.normal(size=60)
    names = [f"c{j}" for j in range(5)]
    rows = [",".join([*names, "pred"])]
    rows += [",".join(repr(float(v)) for v in (*x, p)) for x, p in zip(X, y)]
    (workdir / "rand.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = t8_config(
        workdir, data="rand.csv", schema={name: "numeric" for name in names},
        similarity={"default": {"kind": "abs", "delta": 1.0}}, method="var",
        engine="mc", permutations=200, seed=4,
    )
    assert run_cli(["global", "--config", cfg]) == 0
    assert "disaggregation residual" not in capsys.readouterr().out
    payload = json.loads((workdir / "out" / "global_var.json").read_text())
    assert "disaggregation_residual" not in payload
    assert payload["permutations"] == 200
    stderr = np.array([payload["stderr"][name] for name in names])
    assert np.isfinite(stderr).all() and (stderr > 0).all()
    ds = attach_predictions(
        Dataset(schema=tuple(ColumnSchema(name, "numeric") for name in names), X=X), y
    )
    agg = aggregate_squared_cs(ds, [AbsoluteThreshold(1.0)] * 5)
    phi = np.array([payload["phi"][name] for name in names])
    assert (np.abs(phi - agg.phi) <= 4 * stderr).all()


def test_mc_rejects_non_finite_games(workdir, capsys):
    # predictions of +-1e308 overflow the cohort sums; the exact engine
    # already refuses such a game, and the MC engine must too, instead of
    # writing NaN tokens that are not valid JSON
    rows = ["x1,x2,x3,pred"]
    for i in range(12):
        pred = 1e308 if i < 6 else -1e308
        rows.append(f"{i % 2}.0,{i // 2 % 2}.0,{i // 4 % 2}.0,{pred!r}")
    (workdir / "big.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = t8_config(workdir, data="big.csv", targets=[0], permutations=50,
                    audit={"per_subject": True})
    with np.errstate(over="ignore", invalid="ignore"):
        for command in ("local", "global"):
            for engine in ("exact", "mc"):
                out = f"out_{command}_{engine}"
                argv = [command, "--config", cfg, "--engine", engine, "--out", out]
                assert run_cli(argv) == 1
                err = capsys.readouterr().err
                assert "error: game total is not finite" in err
                assert "Traceback" not in err
    assert not list(workdir.glob("out_*/*"))


def test_per_subject_header_quotes_names(workdir):
    # a column name that needs CSV quoting is quoted in the per-subject
    # header as in the data CSV, so the header has d + 1 fields like each row
    text = (workdir / "t8.csv").read_text(encoding="utf-8").replace("x1,", '"a,b",', 1)
    (workdir / "named.csv").write_text(text, encoding="utf-8")
    cfg = t8_config(workdir, data="named.csv", method="var",
                    schema={"a,b": "binary", "x2": "binary", "x3": "binary"},
                    audit={"per_subject": True})
    assert run_cli(["global", "--config", cfg]) == 0
    with open(workdir / "out" / "per_subject_cs2.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["subject", "a,b", "x2", "x3"]
    assert len(rows) == 9 and all(len(row) == 4 for row in rows)


# Full factorials of t8's x1, x2, x3 whose exact totals are finite but
# whose cohort values overflow: with +-1.7e308 predictions of opposite sign
# on x1 = 0 and x1 = 1 the grand mean is 0, yet the four subjects of a cohort
# fixing x1 sum past the float limit; with one prediction of 1e155 the
# squared deviation of a two-subject cohort holding it overflows, while
# targets 2 and 7, which share such a cohort with it, keep finite totals.
HUGE_TABLES = {
    "cs": [1.7e308 if i % 2 == 0 else -1.7e308 for i in range(8)],
    "cs2": [1e155 if i == 6 else float(i) for i in range(8)],
}


def _huge_t8(workdir, method) -> str:
    rows = ["x1,x2,x3,pred"]
    for i, pred in enumerate(HUGE_TABLES[method]):
        rows.append(f"{i % 2}.0,{i // 2 % 2}.0,{i // 4 % 2}.0,{pred!r}")
    (workdir / "huge8.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return "huge8.csv"


@pytest.mark.parametrize("method", ["cs", "cs2"])
def test_exact_rejects_non_finite_phi(workdir, capsys, method):
    # finite totals but overflowing phi: the exact engine exits 1 as mc and
    # global do, with no NaN or Infinity in an artifact and no raw numpy
    # warning (the test configuration turns a RuntimeWarning into an error)
    cfg = t8_config(workdir, data=_huge_t8(workdir, method), method=method)
    for argv in (["local", "--targets", "all"], ["local", "--targets", "2,7"],
                 ["global"]):
        assert run_cli([*argv, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: game total is not finite" in err and "Traceback" not in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("method", ["cs", "cs2"])
def test_shapley_exact_rejects_non_finite_phi(workdir, method):
    cfg = RunConfig.load(str(t8_config(workdir, data=_huge_t8(workdir, method))), {})
    ds, _ = cli._load_dataset(cfg)
    rules = cfg.rules_for(ds.schema)
    for t in (2, 7):
        # numpy warns of the overflow in the game's cohort table
        with np.errstate(over="ignore", invalid="ignore"):
            game = make_game(method, ds, t, rules)
        assert math.isfinite(game.value_table()[-1])
        with pytest.raises(ValueError, match="game total is not finite"):
            shapley_exact(game)
    # a hand table: a finite total of 1.7e308, an increment of 3.4e308
    game = TableGame(np.array([0.0, 0.0, -1.7e308, 1.7e308]), "cs")
    with pytest.raises(ValueError, match="game total is not finite"):
        shapley_exact(game)


def test_mc_stderr_of_huge_increments_is_strict_json(workdir):
    # predictions of +-1e200 keep phi and the total finite, but squaring the
    # increments in the sample deviation overflows; the standard error must
    # still be finite, and the artifact strict JSON without Infinity tokens
    rows = ["x1,x2,x3,pred"]
    for i in range(12):
        pred = 1e200 if i % 3 else -1e200
        rows.append(f"{i % 2}.0,{i // 2 % 2}.0,{i // 4 % 2}.0,{pred!r}")
    (workdir / "huge.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = t8_config(workdir, data="huge.csv", targets=[0, 5], permutations=50)
    assert run_cli(["local", "--config", cfg, "--engine", "mc"]) == 0

    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    for t in (0, 5):
        text = (workdir / "out" / f"attribution_cs_t{t}.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        stderr = np.array(list(payload["stderr"].values()))
        assert np.isfinite(stderr).all() and (stderr > 1e190).any()


def test_audit_command(workdir):
    cfg = t8_config(
        workdir,
        model={"kind": "linear", "coefficients": [2.0, 1.0, 0.0], "intercept": 0.0},
        audit={"scales": [0.5, 1.0], "fractions": [0.25], "runs": 2},
    )
    assert run_cli(["audit", "--config", cfg]) == 0
    lines = (workdir / "out" / "realism.csv").read_text().strip().splitlines()
    assert lines[0] == "threshold,source,fraction,rate"
    # full factorial: every product sample is an observed combination, so the
    # marginal rate is 1.0 (held-out rows have no twin in train here, since
    # each combination occurs exactly once)
    for line in lines[1:]:
        if ",marginal," in line:
            assert line.endswith("1.0")
    split = json.loads((workdir / "out" / "split_bs_t7.json").read_text())
    phi = np.array(list(split["phi"].values()))
    pr = np.array(list(split["phi_realistic"].values()))
    pu = np.array(list(split["phi_unrealistic"].values()))
    assert np.array_equal(pr + pu, phi)


def test_cube_command(workdir, capsys):
    cfg_path = workdir / "cube.json"
    cfg_path.write_text(
        json.dumps({"cube_values": [0.0, 0.0, 0.0, 1.0], "out": "out"}),
        encoding="utf-8",
    )
    assert run_cli(["cube", "--config", cfg_path]) == 0
    payload = strict_json(workdir / "out" / "cube.json")
    assert payload["phi_anchored"] == {"z1": 0.5, "z2": 0.5}
    assert payload["max_discrepancy"] <= 1e-12
    assert payload["anchored_components"] == [0.0, 0.0, 0.0, 1.0]
    assert "two-route max discrepancy" in capsys.readouterr().out


def test_cube_command_random_d8(workdir):
    rng = np.random.default_rng(31)
    cfg_path = workdir / "cube8.json"
    cfg_path.write_text(
        json.dumps({"cube_values": rng.normal(size=256).tolist(), "out": "out"}),
        encoding="utf-8",
    )
    assert run_cli(["cube", "--config", cfg_path]) == 0
    payload = strict_json(workdir / "out" / "cube.json")
    assert payload["d"] == 8
    assert payload["max_discrepancy"] <= 1e-9


@pytest.mark.parametrize(
    "values",
    [[1.0, 1e308, -1e308, 5.0], [0.0, -1e308, -1e308, 1e308], "corners.txt"],
    ids=["anova-overflow", "anchored-overflow", "nan-in-file"],
)
def test_cube_non_finite_exit_1(workdir, capsys, values):
    # a non-finite corner value read from a file or a decomposition that
    # overflows is a runtime error, and no cube.json with Infinity or NaN in
    # it is written; inline corner values must be finite in the config
    (workdir / "corners.txt").write_text("0.0\n1.0\nnan\n2.0\n", encoding="utf-8")
    cfg_path = workdir / "cube.json"
    cfg_path.write_text(json.dumps({"cube_values": values, "out": "out"}),
                        encoding="utf-8")
    assert run_cli(["cube", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not (workdir / "out" / "cube.json").exists()


def test_cube_values_from_file(workdir):
    (workdir / "corners.txt").write_text("0.0\n0.0\n0.0\n1.0\n", encoding="utf-8")
    cfg_path = workdir / "cube.json"
    cfg_path.write_text(json.dumps({"cube_values": "corners.txt", "out": "out"}),
                        encoding="utf-8")
    assert run_cli(["cube", "--config", cfg_path]) == 0
    assert strict_json(workdir / "out" / "cube.json")["phi_exact"] == {
        "z1": 0.5, "z2": 0.5}


def test_config_errors_exit_2(workdir, capsys):
    # method needs a model
    cfg = t8_config(workdir, method="bs")
    assert run_cli(["local", "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    # unknown method
    cfg = t8_config(workdir)
    assert run_cli(["local", "--config", cfg, "--method", "nope"]) == 2
    # missing config file
    assert run_cli(["local", "--config", "missing.json"]) == 2
    # a target list that names no subject
    assert run_cli(["local", "--config", cfg, "--targets", ","]) == 2
    # cube without values
    empty = workdir / "empty.json"
    empty.write_text("{}", encoding="utf-8")
    assert run_cli(["cube", "--config", empty]) == 2
    # validation happens before any model is spawned
    cfg = t8_config(
        workdir,
        method="bs",
        engine="mc",
        permutations=1,
        model={"kind": "external", "command": ["/nonexistent/model"]},
    )
    assert run_cli(["local", "--config", cfg]) == 2


def _wide_config(workdir, d=64, **extra):
    names = [f"c{j}" for j in range(d)]
    rows = [",".join(names + ["pred"])]
    rows += [",".join(str(float(i + j)) for j in range(d + 1)) for i in range(4)]
    (workdir / "wide.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return t8_config(
        workdir,
        data="wide.csv",
        schema={name: "numeric" for name in names},
        engine="mc",
        permutations=4,
        targets=[0],
        **extra,
    )


@pytest.mark.parametrize(
    "command,extra",
    [
        ("local", {"similarity": {"default": {"kind": "abs"}}}),
        ("local", {"model": {"kind": "linear"}}),
        ("local", {"similarity": []}),
        ("local", {"similarity": {"default": {"kind": "abs", "delta": "x"}}}),
        ("local", {"d": 64}),
        ("global", {"d": 64}),
        ("audit", {"audit": []}),
        ("global", {"audit": []}),
        ("local", {"schema": [{"name": "x1", "kind": "binary"}, {"kind": "binary"},
                              {"name": "x3", "kind": "binary"}]}),
        ("local", {"targets": 7}),
        ("local", {"engine": "mc", "permutations": "x"}),
        ("local", {"engine": "mc", "seed": "x"}),
        ("local", {"targets": [1.5]}),
        ("local", {"data": 5}),
        ("local", {"out": 5}),
        ("audit", {"audit": {"scales": 5}}),
        ("audit", {"audit": {"runs": "x"}}),
        ("audit", {"audit": {"marginal_samples": "x"}}),
        ("audit", {"audit": {"similarity": 5}}),
        ("audit", {"audit": {"fractions": [0.2, 1.5]}}),
        ("audit", {"audit": {"fractions": [0.0]}}),
        ("audit", {"audit": {"marginal_reference": 5}}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": "median"}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": [0.5]}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": ["a", "b", "c"]}),
        ("audit", {"model": LINEAR_SPEC, "baseline": "median"}),
        ("audit", {"audit": {"fractions": [], "marginal_reference": "train"}}),
        ("audit", {"audit": {"scales": []}}),
        ("local", {"similarity": {"x9": {"kind": "identity"}}}),
        ("audit", {"audit": {"similarity": {"x9": {"kind": "identity"}}}}),
        ("local", {"similarity": {"x1": {"kind": "relative", "delta": 0.5}}}),
        ("local", {"similarity": {"x1": {"kind": "range_fraction", "frac": 0.1}}}),
        ("local", {"schema": {"x1": "categorical", "x2": "binary", "x3": "binary"},
                   "similarity": {"default": {"kind": "abs", "delta": 1.0}}}),
        ("audit", {"audit": {"similarity": {"x2": {"kind": "relative", "delta": 1}}}}),
        ("local", {"method": "bs", "model": {"kind": "external", "command": []}}),
        ("local", {"method": "bs", "model": {"kind": "external", "command": {}}}),
        ("audit", {"audit": {"scales": [0.5, -1.0]}}),
        ("audit", {"audit": {"scales": [float("nan")]}}),
        ("cube", {"cube_values": [0.0, 1.0, 2.0, 4.0], "audit": {"cube_probs": "x"}}),
        ("cube", {"cube_values": [0.0, 1.0, 2.0, 4.0], "audit": {"cube_probs": [2.0]}}),
        ("cube", {"cube_values": [0.0, 1.0, 2.0, 4.0],
                  "audit": {"cube_probs": [0.5, 0.5, 0.5]}}),
        ("global", {"method": "var", "audit": {"per_subject": "no"}}),
        ("global", {"d": 22, "audit": {"per_subject": True}}),
        ("local", {"targets": []}),
        ("local", {"targets": ","}),
        ("audit", {"targets": []}),
        ("cube", {"cube_values": {"a": 1}}),
        ("cube", {"cube_values": [0.0, 1.0, 2.0]}),
        ("cube", {"cube_values": [1.0]}),
        ("cube", {"cube_values": []}),
        ("cube", {"cube_values": ["a", "b"]}),
        ("cube", {"cube_values": [0.0, True]}),
        ("cube", {"cube_values": 4.0}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": [0.5, NAN, 0.5]}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": [0.5, 0.5, -INF]}),
        ("local", {"method": "bs",
                   "model": {"kind": "linear", "coefficients": [2.0, NAN, 0.0]}}),
        ("local", {"method": "bs", "model": {"kind": "logistic",
                                             "coefficients": [1.0, 1.0, 1.0],
                                             "intercept": INF}}),
        ("audit", {"model": LINEAR_SPEC, "baseline": [NAN, 0.5, 0.5]}),
        ("local", {"audit": {"runz": 5}}),
        ("audit", {"audit": {"runz": 5}}),
        ("local", {"method": "bs", "model": {**LINEAR_SPEC, "intercep": 3}}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "abs", "delta": 1.0,
                                                      "dleta": 2}}}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "abs", "delta": NAN}}}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "range_fraction",
                                                      "frac": NAN}}}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "relative",
                                                      "delta": INF}}}),
        ("local", {"schema": {"x1": "weird", "x2": "binary", "x3": "binary"}}),
        ("local", {"schema": [{"name": "x1", "kind": "binary"},
                              {"name": "x1", "kind": "binary"},
                              {"name": "x2", "kind": "binary"}]}),
        ("local", {"schema": {}}),
        ("local", {"method": "bs", "model": {"kind": "linear", "coefficients": [2.0, 1.0]}}),
        ("local", {"prediction_column": 5}),
        ("cube", {"cube_values": [0.0, INF]}),
        ("cube", {"cube_values": [0.0, NAN, 1.0, 2.0]}),
        ("local", {"method": "var"}),
        ("cube", {"cube_values": [0, HUGE]}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "abs", "delta": HUGE}}}),
        ("local", {"method": "bs", "model": {"kind": "linear",
                                             "coefficients": [HUGE, 1, 1]}}),
        ("local", {"method": "bs", "model": {**LINEAR_SPEC, "intercept": HUGE}}),
        ("local", {"d": 4, "similarity": {"default": {"kind": "range_fraction",
                                                      "frac": 0.1, "lo_q": HUGE}}}),
        ("audit", {"audit": {"scales": [HUGE]}}),
        ("local", {"method": "bs", "model": LINEAR_SPEC, "baseline": [0, 0, HUGE]}),
        ("cube", {"cube_values": [0, DIGITS_5001]}),
        ("local", {"schema": [{"name": 5, "kind": "binary"},
                              {"name": "x2", "kind": "binary"},
                              {"name": "x3", "kind": "binary"}]}),
        ("local", {"schema": [{"name": ["x1"], "kind": "binary"},
                              {"name": "x2", "kind": "binary"},
                              {"name": "x3", "kind": "binary"}]}),
        ("cube", {"cube_values": [0, 1, 2, 4], "audit": {"cube_probs": [0.5, 0, 0, 0.5]}}),
        ("cube", {"cube_values": [0, 1, 2, 4], "audit": {"cube_probs": [0.3] * 4}}),
    ],
    ids=["abs-no-delta", "linear-no-coefficients", "similarity-list",
         "delta-not-a-number", "local-d64-mc", "global-d64-mc", "audit-list-audit",
         "audit-list-global", "schema-item-no-name", "targets-int",
         "permutations-not-int", "seed-not-int", "targets-float", "data-int",
         "out-int", "audit-scales-int", "audit-runs-str", "marginal-samples-str",
         "audit-similarity-int", "audit-fraction-above-1", "audit-fraction-0",
         "marginal-reference-int", "baseline-median", "baseline-short",
         "baseline-strings", "audit-baseline-median", "audit-fractions-empty",
         "audit-scales-empty", "similarity-key-typo", "audit-similarity-key-typo",
         "relative-on-binary", "range-fraction-on-binary", "abs-on-categorical",
         "audit-relative-on-binary", "external-command-empty",
         "external-command-object", "audit-scale-negative", "audit-scale-nan",
         "cube-probs-str", "cube-probs-above-1", "cube-probs-wrong-length",
         "per-subject-str", "per-subject-above-cap", "targets-empty",
         "targets-comma", "audit-targets-empty", "cube-values-object",
         "cube-values-three", "cube-values-one", "cube-values-empty",
         "cube-values-strings", "cube-values-bool", "cube-values-number",
         "baseline-nan", "baseline-inf", "linear-coef-nan", "logistic-intercept-inf",
         "audit-baseline-nan", "local-audit-key-typo", "audit-audit-key-typo",
         "linear-model-key-typo", "abs-key-typo", "abs-delta-nan",
         "range-fraction-frac-nan", "relative-delta-inf", "schema-kind-unknown",
         "schema-name-twice", "schema-empty", "linear-coef-short",
         "prediction-column-int", "infinite-corner", "cube-values-nan",
         "local-method-var", "cube-values-huge-int", "abs-delta-huge-int",
         "linear-coef-huge-int", "linear-intercept-huge-int",
         "range-fraction-lo-q-huge-int", "audit-scales-huge-int",
         "baseline-huge-int", "cube-values-5001-digits", "schema-name-int",
         "schema-name-list", "cube-probs-not-product", "cube-probs-not-probability"],
)
def test_config_holes_exit_2(workdir, capsys, command, extra):
    wide = "d" in extra
    cfg = _wide_config(workdir, **extra) if wide else t8_config(workdir, **extra)
    cfg.write_text(cfg.read_text().replace(f'"{DIGITS_5001}"', "9" * 5001))
    assert run_cli([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


# A flag and a value for a command that does not read that flag: a usage
# error, never an override the command would drop.
UNREAD_FLAGS = [
    ("global", "--method", "var"),
    ("global", "--targets", "99"),
    ("audit", "--engine", "mc"),
    ("audit", "--permutations", "1"),
    ("cube", "--data", "t8.csv"),
    ("cube", "--method", "cs"),
    ("cube", "--engine", "mc"),
    ("cube", "--permutations", "4"),
    ("cube", "--seed", "3"),
    ("cube", "--targets", "0"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_unread_flag_is_a_usage_error(workdir, capsys, command, flag, value):
    cfg = t8_config(workdir)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", cfg, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


# The flags each command takes besides --config and --out.
COMMAND_FLAGS = {
    "local": {"data", "method", "engine", "permutations", "seed", "targets"},
    "global": {"data", "engine", "permutations", "seed"},
    "audit": {"data", "method", "seed", "targets"},
    "cube": set(),
}


def test_each_command_parses_exactly_its_table_flags():
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    assert subparsers.choices.keys() == cli.COMMANDS.keys() == COMMAND_FLAGS.keys()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for name, (run, _, keys) in cli.COMMANDS.items():
        assert run is getattr(cli, f"cmd_{name}")
        assert set(keys) == COMMAND_FLAGS[name]
        # a flag overrides the config key it names, so none is parsed and
        # then dropped
        assert {*keys, "out"} <= fields
        options = {option for action in subparsers.choices[name]._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options == {"--config", "--out", *(f"--{key}" for key in keys)}
    assert sum(len(keys) + 2 for keys in COMMAND_FLAGS.values()) == 22


def test_overflowing_baseline_exits_1(workdir, capsys):
    # a finite baseline is a valid config; its prediction overflowing is a
    # runtime error, reported once and without numpy's raw overflow warning
    cfg = t8_config(workdir, method="bs", model=LINEAR_SPEC, baseline=[1e308] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["local", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: model produced a non-finite prediction" in err
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err


def test_failed_audit_split_writes_nothing(workdir, capsys):
    # the realism curve succeeds and the split's prediction overflows: no
    # realism.csv may be left behind
    cfg = t8_config(workdir, method="bs", model=LINEAR_SPEC, baseline=[1e308] * 3,
                    audit=SMALL_AUDIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["audit", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: model produced a non-finite prediction" in err
    assert "RuntimeWarning" not in err
    assert not (workdir / "out").exists()


def test_audit_split_above_the_exact_cap_exits_2(workdir, capsys, monkeypatch):
    # the realistic/unrealistic split needs the model at d <= 20; a model at
    # d = 22 is refused before the realism curve spends its work
    names = [f"c{j}" for j in range(22)]
    X = np.random.default_rng(22).normal(size=(60, 22))
    rows = [",".join([*names, "pred"])]
    rows += [",".join(repr(float(v)) for v in (*x, x.sum())) for x in X]
    (workdir / "w22.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = t8_config(
        workdir, data="w22.csv", schema={name: "numeric" for name in names},
        similarity={"default": {"kind": "abs", "delta": 0.5}}, engine="mc",
        permutations=4, model={"kind": "linear", "coefficients": [1.0] * 22},
    )

    def curve(*args, **kwargs):
        raise AssertionError("realism_curve ran")

    monkeypatch.setattr(cli, "realism_curve", curve)
    assert run_cli(["audit", "--config", cfg]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: d=22 exceeds the exact cap 20")
    assert "realistic/unrealistic split" in line and "d <= 20" in line
    assert not (workdir / "out").exists()


def test_threads_flag_removed(workdir, capsys):
    cfg = t8_config(workdir, threads=2)
    assert run_cli(["local", "--config", cfg]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli(["local", "--config", cfg, "--threads", "2"])


def test_runtime_errors_exit_1(workdir, capsys):
    cfg = t8_config(workdir, data="absent.csv")
    assert run_cli(["local", "--config", cfg]) == 1
    assert "error" in capsys.readouterr().err
    # broken external model: config is fine, execution fails
    cfg = t8_config(
        workdir,
        method="bs",
        model={"kind": "external", "command": ["/nonexistent/model"]},
    )
    assert run_cli(["local", "--config", cfg]) == 1


def _logging_config(workdir, logged, **extra):
    command = list(logged.model.command)
    return t8_config(workdir, method="bs", model={"kind": "external", "command": command},
                     audit=SMALL_AUDIT, **extra)


def test_multi_target_local_spawns_once(workdir):
    logged = LoggingModel(workdir, (0.75, -1.5, 2.0))
    cfg = _logging_config(workdir, logged)
    assert run_cli(["local", "--config", cfg, "--targets", "0,3,7", "--out", "multi"]) == 0
    assert logged.spawns == 1
    for t in (0, 3, 7):
        out = f"single{t}"
        assert run_cli(["local", "--config", cfg, "--targets", str(t), "--out", out]) == 0
        name = f"attribution_bs_t{t}.json"
        assert (workdir / "multi" / name).read_bytes() == (workdir / out / name).read_bytes()


def test_audit_splits_spawn_once(workdir):
    logged = LoggingModel(workdir, (0.75, -1.5, 2.0))
    cfg = _logging_config(workdir, logged)
    assert run_cli(["audit", "--config", cfg, "--targets", "0,3,7"]) == 0
    assert sorted(p.name for p in (workdir / "out").glob("split_*")) == [
        "split_bs_t0.json", "split_bs_t3.json", "split_bs_t7.json"]
    assert logged.spawns == 1


def test_failure_mid_sweep_writes_nothing(workdir, capsys, monkeypatch):
    logged = LoggingModel(workdir, (0.75, -1.5, 2.0), fail=1)
    cfg = _logging_config(workdir, logged)
    # 3 * 7 hybrids and the baseline row, in calls of 8 points
    monkeypatch.setattr(games, "POINT_CHUNK", 8 * 3)
    assert run_cli(["local", "--config", cfg, "--targets", "0,3,7"]) == 1
    assert "error: external model exited 3" in capsys.readouterr().err
    assert logged.spawns == 2
    assert not (workdir / "out").exists()


def _running(pid) -> bool:
    """Whether ``pid`` is a live process; a zombie counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_hung_external_model_times_out(workdir, capsys, monkeypatch):
    monkeypatch.setattr(models, "EXTERNAL_TIMEOUT_S", 3)
    # a wrapper whose model runs as a grandchild, as under `sh -c`
    child = ("import os, subprocess, sys, time\n"
             "model = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
             "open('pids', 'w').write(f'{os.getpid()} {model.pid}')\n"
             "time.sleep(60)\n")
    command = [sys.executable, "-c", child]
    cfg = t8_config(workdir, method="bs", model={"kind": "external", "command": command})
    start = time.monotonic()
    assert run_cli(["local", "--config", cfg]) == 1
    assert time.monotonic() - start < 10
    err = capsys.readouterr().err
    assert "error: external model timed out after 3 s" in err
    assert "Traceback" not in err
    # the wrapper and the model it started were both killed
    pids = [int(p) for p in (workdir / "pids").read_text().split()]
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_resource_errors_exit_1(workdir, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "local_attributions", fail)
    assert run_cli(["local", "--config", t8_config(workdir)]) == 1
    err = capsys.readouterr().err
    assert f"error: {error.__name__}" in err
    assert "Traceback" not in err


def test_target_out_of_range_rejected(workdir):
    cfg = t8_config(workdir, targets=[42])
    assert run_cli(["local", "--config", cfg]) == 2


@pytest.mark.parametrize("target", ["99", "-1"])
def test_audit_target_out_of_range_rejected(workdir, capsys, target):
    cfg = t8_config(workdir, model=LINEAR_SPEC, audit=SMALL_AUDIT)
    assert run_cli(["audit", "--config", cfg, "--targets", target]) == 2
    err = capsys.readouterr().err
    assert f"target {target} outside 0..7" in err
    assert "Traceback" not in err
    assert not list(workdir.glob("out/split_*"))


def test_overflowing_audit_split_exits_1(workdir, capsys):
    # bs2 differences of a model near 1e200 overflow when squared: the audit
    # fails as local does, instead of writing NaN into a split artifact
    model = {"kind": "linear", "coefficients": [1e200, 1e200, 0.0]}
    cfg = t8_config(workdir, method="bs2", model=model, audit=SMALL_AUDIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["audit", "--config", cfg, "--targets", "7"]) == 1
    err = capsys.readouterr().err
    assert "error: realism split of target 7 is not finite" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (workdir / "out").exists()


def test_config_that_is_not_an_object_exits_2(workdir, capsys):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps([{"data": "t8.csv"}]), encoding="utf-8")
    assert run_cli(["local", "--config", cfg]) == 2
    assert "is not a JSON object" in capsys.readouterr().err


def test_timings_on_stderr(workdir, capsys):
    cfg = t8_config(workdir)
    run_cli(["local", "--config", cfg])
    assert "[timing]" in capsys.readouterr().err


def test_byte_identical_outputs(workdir):
    cfg = t8_config(workdir, targets="all", model=LINEAR_SPEC, audit=SMALL_AUDIT)
    mc = ["--method", "cs2", "--engine", "mc", "--permutations", "40", "--seed", "3",
          "--out", "out_mc"]
    abs2 = ["--method", "abs2", "--out", "out_abs2"]
    audit = ["--targets", "3,7", "--out", "out_audit"]

    def outputs():
        assert run_cli(["local", "--config", cfg]) == 0
        assert run_cli(["local", "--config", cfg, *mc]) == 0
        assert run_cli(["local", "--config", cfg, *abs2]) == 0
        assert run_cli(["audit", "--config", cfg, *audit]) == 0
        return {p: p.read_bytes() for p in workdir.glob("out*/*")}

    first = outputs()
    assert workdir / "out_mc" / "panel_cs2.csv" in first
    assert workdir / "out_abs2" / "panel_abs2.csv" in first
    assert workdir / "out_audit" / "split_bs_t3.json" in first
    for path in first:
        if path.suffix == ".json":
            strict_json(path)
    assert first == outputs()


@pytest.mark.parametrize("command", ["local", "global"])
def test_d63_is_the_column_limit(workdir, command):
    cfg = _wide_config(workdir, d=63)
    assert run_cli([command, "--config", cfg]) == 0
