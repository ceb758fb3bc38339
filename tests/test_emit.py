"""The artifact writers against the encoders they replace.

``cli._write_json`` and the CSV writers (the panel, the per-subject rows
and the realism curve, all through ``aggregate.write_table``) fill one
%-template per record. Their bytes must equal those of
``json.dump(indent=2)`` and of the per-cell ``csv.writer`` loop, kept in
``tests/helpers.py`` as references, for every finite value json and
``repr`` can write (and in CSV for NaN and the infinities, which no JSON
artifact holds) and for names that need escaping or quoting. A panel's phi
floats are formatted once and shared as text by its attribution list and
its CSV; the panels of a lazy (d = 21) Monte Carlo run and of a
titanic-shaped exact run are checked against the references too.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortshap import (
    Attribution,
    CubeFunction,
    Panel,
    RealismReport,
    SplitAttribution,
    anchored_cube,
    anova_cube,
    cli,
    local_attributions,
    make_panel,
    realism_curve,
    realism_splits,
    shapley_effects_independent,
    shapley_exact,
    shapley_from_anchored,
    write_panel_csv,
    write_realism_csv,
)
from cohortshap.aggregate import global_attribution, write_rows
from cohortshap.config import RunConfig

from .helpers import (
    reference_attribution_payload,
    reference_json,
    reference_named,
    reference_panel_csv,
    reference_per_subject_csv,
    reference_realism_csv,
    reference_rows,
    reference_split_payload,
    table_game,
)
from .conftest import random_dataset, titanic_shaped_surrogate
from .test_cli import LINEAR_SPEC, SMALL_AUDIT, run_cli, t8_config, workdir  # noqa: F401

EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1 / 3,
    -1 / 3, 1.7976931348623157e308, 123456789.0, 0.1,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
FINITE_FLOATS = st.one_of(st.sampled_from([f for f in EDGE_FLOATS if math.isfinite(f)]),
                          st.floats(allow_nan=False, allow_infinity=False))
EDGE_NAMES = ['q"uote', "back\\slash", "com,ma", "new\nline", "café ☃", " ", "50%",
              "%r%d", "\x00ctl\t", "x1"]
NAMES = st.lists(st.one_of(st.sampled_from(EDGE_NAMES), st.text(min_size=1, max_size=5)),
                 min_size=1, max_size=6, unique=True)


def _floats(draw, *shape, floats=FLOATS):
    return np.array(draw(st.lists(floats, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)


@st.composite
def attribution_lists(draw):
    """Names and 1-5 attributions of one method and engine: exact (no
    stderr) or mc (stderr and a permutation count), with or without
    targets."""
    names = draw(NAMES)
    d, records = len(names), draw(st.integers(1, 5))
    method = draw(st.sampled_from(["cs", "cs2", "bs", "var", 'odd"%s']))
    mc, targeted = draw(st.booleans()), draw(st.booleans())
    phi, totals, stderr = (_floats(draw, records, d, floats=FINITE_FLOATS),
                           _floats(draw, records, floats=FINITE_FLOATS),
                           _floats(draw, records, d, floats=FINITE_FLOATS))
    targets = draw(st.lists(st.integers(0, 10**6), min_size=records, max_size=records))
    perms = draw(st.integers(2, 10**9))
    atts = [
        Attribution(phi[i], float(totals[i]), method, targets[i] if targeted else None,
                    stderr[i] if mc else None, perms if mc else None)
        for i in range(records)
    ]
    return names, atts


def _same_bytes(tmp_path_factory, write, write_reference) -> None:
    # fresh files: truncating and rewriting an existing one can flush to disk
    tmp = tmp_path_factory.mktemp("emit")
    new, ref = tmp / "new", tmp / "ref"
    write(new)
    write_reference(ref)
    assert new.read_bytes() == ref.read_bytes()


@settings(max_examples=150, deadline=None)
@given(attribution_lists(), FINITE_FLOATS)
def test_attribution_payloads_equal_json_dump(tmp_path_factory, case, residual):
    names, atts = case
    # the list form, as local --targets all writes it
    _same_bytes(
        tmp_path_factory,
        lambda p: cli._write_json(p, cli._attribution_payload(atts, names), many=True),
        lambda p: reference_json(p, [reference_attribution_payload(a, names) for a in atts]),
    )
    # the single form, as a local target and the global payload write it
    att = atts[0]
    payload = cli._attribution_payload([att], names)
    reference = reference_attribution_payload(att, names)
    _same_bytes(tmp_path_factory, lambda p: cli._write_json(p, payload),
                lambda p: reference_json(p, reference))
    payload["disaggregation_residual"] = residual
    reference["disaggregation_residual"] = residual
    _same_bytes(tmp_path_factory, lambda p: cli._write_json(p, payload),
                lambda p: reference_json(p, reference))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_payloads_equal_json_dump(tmp_path_factory, data):
    names = data.draw(NAMES)
    d = len(names)
    split = SplitAttribution(_floats(data.draw, d, floats=FINITE_FLOATS),
                             _floats(data.draw, d, floats=FINITE_FLOATS),
                             data.draw(st.sampled_from(["bs", "abs2"])),
                             data.draw(st.integers(0, 10**6)))
    # the parts' sum, split.phi, may overflow to inf, which no artifact holds
    with np.errstate(over="ignore"):
        payload = cli._split_payload(split, names)
        finite = np.isfinite(split.phi).all()
    if finite:
        _same_bytes(tmp_path_factory, lambda p: cli._write_json(p, payload),
                    lambda p: reference_json(p, reference_split_payload(split, names)))
    else:
        path = tmp_path_factory.mktemp("emit") / "split.json"
        with pytest.raises(ValueError, match="not finite"):
            cli._write_json(path, payload)
        assert not path.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("many", [False, True])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad, many):
    att = Attribution(np.array([1.0, bad]), 0.5, "cs", 3)
    payload = cli._attribution_payload([att, att] if many else [att], ["a", "b"])
    path = tmp_path / "out" / "a.json"
    with pytest.raises(ValueError, match="not finite"):
        cli._write_json(path, payload, many=many)
    assert not (tmp_path / "out").exists()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_panel_and_per_subject_csv_equal_csv_writer(tmp_path_factory, data):
    names = data.draw(NAMES)
    n, d = data.draw(st.integers(1, 6)), len(names)
    bars = _floats(data.draw, n, d)
    ordering = np.array(data.draw(st.permutations(range(n))))
    panel = Panel(ordering, bars, _floats(data.draw, n), "cs", tuple(names))
    _same_bytes(tmp_path_factory, lambda p: write_panel_csv(panel, p),
                lambda p: reference_panel_csv(panel, p))
    _same_bytes(tmp_path_factory, lambda p: cli._write_per_subject_csv(p, names, bars),
                lambda p: reference_per_subject_csv(names, bars, p))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_realism_csv_equals_csv_writer(tmp_path_factory, data):
    scales = data.draw(st.lists(FLOATS, min_size=1, max_size=5))
    fractions = data.draw(st.lists(FLOATS, min_size=0, max_size=3))
    rates = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    table = _floats(data.draw, len(scales), 1 + len(fractions), floats=rates)
    report = RealismReport(tuple(scales), tuple(fractions), table[:, 0], table[:, 1:],
                           runs=1, seed=0, marginal_samples=1)
    _same_bytes(tmp_path_factory, lambda p: write_realism_csv(report, p),
                lambda p: reference_realism_csv(report, p))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rows_of_text_and_numbers_equal_csv_writer(tmp_path_factory, data):
    # a column of text, such as a panel's preformatted phi, is written as it
    # is beside columns of ints and floats
    n = data.draw(st.integers(1, 6))
    columns = []
    for kind in data.draw(st.lists(st.sampled_from(["text", "float", "int"]),
                                   min_size=1, max_size=5)):
        if kind == "int":
            ints = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n))
            columns.append(np.array(ints, dtype=np.int64))
        else:
            floats = _floats(data.draw, n)
            columns.append(cli._repr_table(floats) if kind == "text" else floats)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))

    def write(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_rows(fh, columns, newline)

    _same_bytes(tmp_path_factory, write, lambda p: reference_rows(columns, newline, p))


# -- the CLI against the reference encoders --------------------------------


def _reference_files(tmp_path, artifacts: dict) -> dict:
    """Write ``{name: (writer, payload)}`` with the reference writers and read
    back the bytes."""
    out = {}
    for name, (write, payload) in artifacts.items():
        path = tmp_path / f"ref_{name}"
        write(path, payload)
        out[name] = path.read_bytes()
    return out


def _written(out_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cli_artifacts_equal_reference_encoders(workdir):
    cfg_path = t8_config(workdir, targets="all", model=LINEAR_SPEC,
                         audit={**SMALL_AUDIT, "per_subject": True})
    cfg = RunConfig.load(str(cfg_path), {})
    ds, model = cli._load_dataset(cfg)
    rules = cfg.rules_for(ds.schema)
    names = ds.names

    def attribution_list(method, engine, perms, seed):
        atts = local_attributions(ds, method, None, rules, None, "mean", engine, perms, seed)
        return {
            f"attributions_{method}.json": (
                reference_json, [reference_attribution_payload(a, names) for a in atts]
            ),
            f"panel_{method}.csv": (
                lambda p, panel: reference_panel_csv(panel, p), make_panel(ds, method, atts)
            ),
        }

    # local --targets all, exact cs and mc cs2
    assert run_cli(["local", "--config", cfg_path, "--out", "cs"]) == 0
    assert _written(workdir / "cs") == _reference_files(
        workdir, attribution_list("cs", "exact", cfg.permutations, cfg.seed))
    mc = ["--method", "cs2", "--engine", "mc", "--permutations", "40", "--seed", "3"]
    assert run_cli(["local", "--config", cfg_path, *mc, "--out", "cs2"]) == 0
    assert _written(workdir / "cs2") == _reference_files(
        workdir, attribution_list("cs2", "mc", 40, 3))

    # local --method bs on three targets: one file a target
    argv = ["local", "--config", cfg_path, "--method", "bs", "--targets", "0,3,7"]
    assert run_cli([*argv, "--out", "bs"]) == 0
    atts = local_attributions(ds, "bs", [0, 3, 7], rules, model, "mean", "exact")
    assert _written(workdir / "bs") == _reference_files(workdir, {
        f"attribution_bs_t{a.target}.json": (reference_json,
                                              reference_attribution_payload(a, names))
        for a in atts
    })

    # global with per-subject rows
    assert run_cli(["global", "--config", cfg_path, "--out", "var"]) == 0
    direct, rows = global_attribution(ds, rules, "exact", cfg.permutations, cfg.seed,
                                      per_subject=True)
    payload = reference_attribution_payload(direct, names)
    payload["disaggregation_residual"] = float(np.max(np.abs(direct.phi - rows.mean(axis=0))))
    assert _written(workdir / "var") == _reference_files(workdir, {
        "global_var.json": (reference_json, payload),
        "per_subject_cs2.csv": (lambda p, r: reference_per_subject_csv(names, r, p), rows),
    })

    # audit with two split targets
    assert run_cli(["audit", "--config", cfg_path, "--targets", "3,7", "--out", "audit"]) == 0
    report = realism_curve(ds, cfg.audit_rules_for(ds.schema), SMALL_AUDIT["scales"],
                           SMALL_AUDIT["fractions"], SMALL_AUDIT["runs"], cfg.seed)
    splits = realism_splits(ds, [3, 7], "mean", model, rules, "bs")
    assert _written(workdir / "audit") == _reference_files(workdir, {
        "realism.csv": (lambda p, r: reference_realism_csv(r, p), report),
        **{f"split_bs_t{s.target}.json": (reference_json, reference_split_payload(s, names))
           for s in splits},
    })

    # cube
    values = [0.0, 1.5, -2.25, 1 / 3, 7.0, 0.1, 1e-5, 3.0]
    cube_cfg = workdir / "cube.json"
    cube_cfg.write_text(json.dumps({"cube_values": values, "out": "cube"}), encoding="utf-8")
    assert run_cli(["cube", "--config", cube_cfg]) == 0
    g = CubeFunction(np.array(values))
    dec = anchored_cube(g)
    anova = anova_cube(g, np.full(g.d, 0.5))
    via_anchored = shapley_from_anchored(dec)
    direct = shapley_exact(table_game(g.values - g.values[0], "cube"))
    z = [f"z{j + 1}" for j in range(g.d)]
    assert _written(workdir / "cube") == _reference_files(workdir, {"cube.json": (
        reference_json,
        {
            "d": g.d,
            "anchored_components": [float(v) for v in dec.components],
            "anova_sigma2": [float(v) for v in anova.sigma2],
            "anova_mean": float(anova.mean),
            "phi_anchored": reference_named(z, via_anchored.phi),
            "phi_exact": reference_named(z, direct.phi),
            "phi_variance": reference_named(z, shapley_effects_independent(anova).phi),
            "max_discrepancy": float(np.max(np.abs(via_anchored.phi - direct.phi))),
        },
    )})


def _panel_config(workdir, ds, similarity, engine) -> str:
    """A ``local --targets all`` config of cs on ``ds``, written as CSV."""
    rows = [",".join([*ds.names, "pred"])]
    rows += [",".join(map(repr, [*x, p])) for x, p in zip(ds.X.tolist(), ds.y.tolist())]
    (workdir / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = {
        "data": "table.csv",
        "schema": {c.name: c.kind for c in ds.schema},
        "prediction_column": "pred",
        "similarity": similarity,
        "method": "cs",
        "engine": engine,
        "permutations": 10,
        "seed": 3,
        "targets": "all",
        "out": "panel",
    }
    (workdir / "panel.json").write_text(json.dumps(cfg), encoding="utf-8")
    return "panel.json"


@pytest.mark.parametrize("case", ["lazy-mc", "titanic-exact"])
def test_panel_artifacts_equal_reference_encoders(workdir, case):
    # the attribution list and the panel CSV share each phi's text
    range_fraction = {"kind": "range_fraction", "frac": 0.1, "lo_q": 0.0, "hi_q": 1.0}
    if case == "lazy-mc":
        ds = random_dataset(40, 21, seed=11)
        cfg_path = _panel_config(workdir, ds, {"default": {"kind": "abs", "delta": 0.8}},
                                 "mc")
    else:
        ds, _ = titanic_shaped_surrogate()
        similarity = {"default": {"kind": "identity"}, "age": range_fraction,
                      "fare": range_fraction}
        cfg_path = _panel_config(workdir, ds, similarity, "exact")
    assert run_cli(["local", "--config", cfg_path]) == 0
    cfg = RunConfig.load(str(cfg_path), {})
    ds, _ = cli._load_dataset(cfg)
    atts = local_attributions(ds, "cs", None, cfg.rules_for(ds.schema), None, "mean",
                              cfg.engine, cfg.permutations, cfg.seed)
    assert _written(workdir / "panel") == _reference_files(workdir, {
        "attributions_cs.json": (
            reference_json, [reference_attribution_payload(a, ds.names) for a in atts]
        ),
        "panel_cs.csv": (
            lambda p, panel: reference_panel_csv(panel, p), make_panel(ds, "cs", atts)
        ),
    })


@pytest.mark.parametrize("argv", [
    ["local", "--targets", "all"],
    ["local", "--targets", "0,3"],
    ["global"],
    ["audit", "--targets", "3,7"],
    ["cube"],
])
def test_every_artifact_is_written_in_the_emit_phase(workdir, monkeypatch, argv):
    phases = []

    @contextlib.contextmanager
    def phase(name):
        phases.append(name)
        yield
        phases.append(None)

    opened = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append((str(file), phases[-1] if phases else None))
        return real_open(file, mode, *args, **kwargs)

    if argv[0] == "cube":
        cfg = workdir / "cube.json"
        cfg.write_text(json.dumps({"cube_values": [0.0, 0.0, 0.0, 1.0], "out": "out"}))
    else:
        cfg = t8_config(workdir, model=LINEAR_SPEC, audit={**SMALL_AUDIT, "per_subject": True})
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_phase", phase)
        patch.setattr("builtins.open", recording_open)
        assert run_cli([argv[0], "--config", cfg, *argv[1:]]) == 0
    written = sorted(p.name for p in (workdir / "out").iterdir())
    assert written and sorted(name.rpartition("/")[2] for name, _ in opened) == written
    assert {phase for _, phase in opened} == {"emit"}
