import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from cohortshap.cli import main

REPO = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main([str(a) for a in args])


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
    payload = json.loads((workdir / "out" / "cube.json").read_text())
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
    payload = json.loads((workdir / "out" / "cube.json").read_text())
    assert payload["d"] == 8
    assert payload["max_discrepancy"] <= 1e-9


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


def _wide_config(workdir, d=64):
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
    )


@pytest.mark.parametrize(
    "command,extra",
    [
        ("local", {"similarity": {"default": {"kind": "abs"}}}),
        ("local", {"model": {"kind": "linear"}}),
        ("local", {"similarity": []}),
        ("local", {"similarity": {"default": {"kind": "abs", "delta": "x"}}}),
        ("local", "d64"),
        ("global", "d64"),
        ("audit", {"audit": []}),
        ("global", {"audit": []}),
        ("local", {"schema": [{"name": "x1", "kind": "binary"}, {"kind": "binary"},
                              {"name": "x3", "kind": "binary"}]}),
        ("local", {"targets": 7}),
        ("local", {"engine": "mc", "permutations": "x"}),
        ("local", {"engine": "mc", "seed": "x"}),
    ],
    ids=["abs-no-delta", "linear-no-coefficients", "similarity-list",
         "delta-not-a-number", "local-d64-mc", "global-d64-mc", "audit-list-audit",
         "audit-list-global", "schema-item-no-name", "targets-int",
         "permutations-not-int", "seed-not-int"],
)
def test_config_holes_exit_2(workdir, capsys, command, extra):
    cfg = _wide_config(workdir) if extra == "d64" else t8_config(workdir, **extra)
    assert run_cli([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


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


def test_target_out_of_range_rejected(workdir):
    cfg = t8_config(workdir, targets=[42])
    assert run_cli(["local", "--config", cfg]) == 2


def test_timings_on_stderr(workdir, capsys):
    cfg = t8_config(workdir)
    run_cli(["local", "--config", cfg])
    assert "[timing]" in capsys.readouterr().err


def test_byte_identical_outputs(workdir):
    cfg = t8_config(workdir, targets="all")
    run_cli(["local", "--config", cfg])
    first = {
        p.name: p.read_bytes() for p in (workdir / "out").iterdir()
    }
    run_cli(["local", "--config", cfg])
    second = {
        p.name: p.read_bytes() for p in (workdir / "out").iterdir()
    }
    assert first == second


@pytest.mark.parametrize("command", ["local", "global"])
def test_d63_is_the_column_limit(workdir, command):
    cfg = _wide_config(workdir, d=63)
    assert run_cli([command, "--config", cfg]) == 0
