"""The benchmark's tracer finds its hooks in the package by name and reads
counters from their arguments. A renamed hook or a changed call shape would
make a layer metric read 0 without any error, so both are pinned here."""

import contextlib
import importlib.util
import inspect
import io
import json
from pathlib import Path

import numpy as np
import pytest

import cohortshap
import cohortshap.cli  # noqa: F401  (loaded by the benchmark; holds emit hooks)
from cohortshap import (
    AbsoluteThreshold,
    Identity,
    LinearModel,
    make_game,
    resolve_rules,
    shapley,
    shapley_exact,
    shapley_permutation,
)
from cohortshap.games import Game
from cohortshap.similarity import cohort_table_chunks

from .conftest import random_dataset, t8_dataset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Hooks the tracer still names although the code behind them is gone; the
# benchmark drops them at its next change.
KNOWN_ABSENT = {
    "aggregate.cohort_value_sweep",
    "audit.realism_flags",
    "games._evaluate_many",
    "games.make_var_game",
    "similarity._column_close",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_mc_hooks_keep_their_call_shapes():
    # the perms counter reads the second positional argument
    assert _params(shapley._permutations) == ["d", "m", "seed"]
    assert _params(Game.values) == ["self", "masks"]


def test_tracer_finds_every_hook_and_counts_mc_work():
    # an earlier call may have left this draw in the memo
    shapley._draw.cache_clear()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert set(tracer.absent) <= KNOWN_ABSENT
        ds = t8_dataset()
        game = make_game("bs", ds, 7, model=LinearModel((2.0, 1.0, 0.5), 0.0))
        att = shapley_permutation(game, 37, seed=5)
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    assert np.isfinite(att.phi).all()
    assert stats["shapley._permutations.perms"] == 37
    assert stats["shapley._permutations.calls"] == 1
    assert stats["games.values.calls"] == 1
    # the empty set and the draw's 7 distinct coalitions, each asked once
    assert stats["games.coalitions_requested"] == 8


@pytest.mark.parametrize(
    "d, n_binary, rule, explain",
    [
        (4, 0, AbsoluteThreshold(0.5), shapley_exact),
        (21, 21, Identity(), lambda game: shapley_permutation(game, 50, seed=3)),
    ],
    ids=["dense-exact", "lazy-mc"],
)
def test_explain_call_matches_make_game(d, n_binary, rule, explain):
    # the benchmark's explain_ms times this exact call shape
    ds = random_dataset(40, d, seed=d, n_binary=n_binary)
    rules, t = [rule] * d, 7
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        game = cohortshap.make_cs_game(ds, cohortshap.similarity_row(rules, ds, t), t)
        att = explain(game)
        want = explain(make_game("cs", ds, t, rules))
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    assert np.array_equal(att.phi, want.phi) and att.total == want.total
    # one call from the explain path, one from make_game's cohort branch
    assert stats["similarity.similarity_row.calls"] == 2
    codes = cohortshap.similarity_row(rules, ds, t)
    assert codes.shape == (ds.n,) and not codes.flags.writeable


def _config(tmp_path, ds, **settings):
    """A config file for ``ds``, written with its table under ``tmp_path``."""
    names = [col.name for col in ds.schema]
    rows = [",".join([*names, "pred"])]
    rows += [",".join(repr(float(v)) for v in (*x, p)) for x, p in zip(ds.X, ds.y)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config_json = {
        "data": str(tmp_path / "table.csv"),
        "schema": {name: "numeric" for name in names},
        "prediction_column": "pred",
        "similarity": {"default": {"kind": "abs", "delta": 0.5}},
        "out": str(tmp_path / "out"),
        **settings,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_json), encoding="utf-8")
    return config


def _traced_main(argv):
    """Exit code, stdout and tracer counters of one traced CLI command."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cohortshap.cli.main(argv)
    finally:
        tracer.uninstall()
    return code, stdout, tracer.snapshot()


def test_global_sweeps_the_cohort_tables_once(tmp_path):
    # the direct and the disaggregated route share one pass over the
    # squared cohort tables, read by the benchmark as the chunk count
    ds = random_dataset(600, 5, seed=21)
    config = _config(tmp_path, ds, engine="exact", audit={"per_subject": True})
    resolved = resolve_rules([AbsoluteThreshold(0.5)] * ds.d, ds)
    one_pass = sum(1 for _ in cohort_table_chunks(ds, resolved, range(ds.n), None, True))
    assert one_pass > 1
    code, stdout, stats = _traced_main(["global", "--config", str(config)])
    assert code == 0
    assert "disaggregation residual" in stdout.getvalue()
    assert (tmp_path / "out" / "per_subject_cs2.csv").exists()
    assert stats["similarity.cohort_table_chunks.chunks"] == one_pass
    assert stats["similarity.cohort_table_chunks.cells"] == ds.n << ds.d


def test_lazy_sweep_is_traced(tmp_path):
    # above the table cap the cohort values come from the same chunk source,
    # so the benchmark reads a lazy sweep's chunks and cells under its hook
    ds = random_dataset(300, 21, seed=24)
    config = _config(tmp_path, ds)
    code, _, stats = _traced_main([
        "local", "--config", str(config), "--engine", "mc", "--permutations", "30",
        "--seed", "4", "--targets", "all",
    ])
    assert code == 0
    masks, _ = shapley._mask_choice(ds.d, "mc", 30, 4)
    resolved = resolve_rules([AbsoluteThreshold(0.5)] * ds.d, ds)
    chunks = sum(1 for _ in cohort_table_chunks(ds, resolved, range(ds.n), masks, False))
    assert chunks > 1
    assert stats["similarity.cohort_table_chunks.chunks"] == chunks
    assert stats["similarity.cohort_table_chunks.cells"] == ds.n * (1 + len(masks))


@pytest.mark.parametrize("d, engine", [(5, "exact"), (21, "mc")])
def test_global_builds_no_game(tmp_path, d, engine):
    # the var game is the subject mean of one sweep's chunks, so no global
    # command asks a Game for a value, dense with per-subject rows or lazy
    ds = random_dataset(60, d, seed=23, n_binary=d)
    audit = {"per_subject": True} if engine == "exact" else {}
    config = _config(tmp_path, ds, engine=engine, permutations=20, audit=audit)
    code, _, stats = _traced_main(["global", "--config", str(config)])
    assert code == 0
    assert (tmp_path / "out" / "global_var.json").exists()
    assert stats.get("games.values.calls", 0) == 0
    assert stats.get("games.coalitions_requested", 0) == 0


@pytest.mark.parametrize("d", [5, 21])
def test_mc_local_draws_its_orders_once(tmp_path, d):
    # the benchmark reads the orders a command draws as
    # shapley._permutations.perms: m per command, not targets x m
    ds = random_dataset(40, d, seed=22)
    config = _config(tmp_path, ds)
    # an earlier call may have left this draw in the memo
    shapley._draw.cache_clear()
    code, _, stats = _traced_main([
        "local", "--config", str(config), "--engine", "mc", "--permutations", "30",
        "--seed", "4", "--targets", "1,7,7,30",
    ])
    assert code == 0
    assert stats["shapley._permutations.perms"] == 30
    assert stats["shapley._permutations.calls"] == 1
