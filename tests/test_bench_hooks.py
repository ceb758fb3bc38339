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
    local_attributions,
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


def _traced(call):
    """The result and the tracer counters of one traced call."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert set(tracer.absent) <= KNOWN_ABSENT
        result = call()
    finally:
        tracer.uninstall()
    return result, tracer.snapshot()


def test_tracer_finds_every_hook_and_counts_mc_work():
    # an earlier call may have left these draws in the memo
    shapley._draw.cache_clear()
    ds = t8_dataset()
    model = LinearModel((2.0, 1.0, 0.5), 0.0)
    (att,), stats = _traced(lambda: local_attributions(
        ds, "bs", [7], model=model, engine="mc", permutations=37, seed=5
    ))
    assert np.isfinite(att.phi).all()
    assert stats["shapley._permutations.perms"] == 37
    assert stats["shapley._permutations.calls"] == 1
    # the tracer counts the coalitions asked of a game without a table: a cs
    # game above the table cap, on the benchmark's explain path
    lazy = random_dataset(40, 21, seed=21, n_binary=21)
    codes = cohortshap.similarity_row([Identity()] * 21, lazy, 7)
    game = cohortshap.make_cs_game(lazy, codes, 7)
    att, stats = _traced(lambda: shapley_permutation(game, 9, seed=5))
    assert np.isfinite(att.phi).all()
    assert stats["games.values.calls"] == 1
    # the empty set and the draw's distinct coalitions, each asked once
    masks, _ = shapley._mask_choice(21, "mc", 9, 5)
    assert stats["games.coalitions_requested"] == 1 + len(masks)


@pytest.mark.parametrize(
    "d, n_binary, rule, explain, engine",
    [
        (4, 0, AbsoluteThreshold(0.5), shapley_exact, "exact"),
        (21, 21, Identity(), lambda game: shapley_permutation(game, 50, seed=3), "mc"),
    ],
    ids=["dense-exact", "lazy-mc"],
)
def test_explain_call_matches_make_game(d, n_binary, rule, explain, engine):
    # the benchmark's explain_ms times this exact call shape, which gives
    # the sweep's attribution of the target bit for bit
    ds = random_dataset(40, d, seed=d, n_binary=n_binary)
    rules, t = [rule] * d, 7

    def both():
        game = cohortshap.make_cs_game(ds, cohortshap.similarity_row(rules, ds, t), t)
        sweep = local_attributions(ds, "cs", [t], rules, engine=engine,
                                   permutations=50, seed=3)
        return explain(game), sweep[0]

    (att, want), stats = _traced(both)
    assert np.array_equal(att.phi, want.phi) and att.total == want.total
    assert (att.stderr is None) == (want.stderr is None)
    assert att.stderr is None or np.array_equal(att.stderr, want.stderr)
    # one call, from the explain path: the sweep codes its chunk itself
    assert stats["similarity.similarity_row.calls"] == 1
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
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code, stats = _traced(lambda: cohortshap.cli.main(argv))
    return code, stdout, stats


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
