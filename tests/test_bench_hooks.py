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

import cohortshap.cli  # noqa: F401  (loaded by the benchmark; holds emit hooks)
from cohortshap import LinearModel, make_bs_game, shapley, shapley_permutation
from cohortshap.games import Game
from cohortshap.similarity import CHUNK_BYTES, MAX_CHUNK_TARGETS

from .conftest import random_dataset, t8_dataset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Hooks the tracer still names although the code behind them is gone; the
# benchmark drops them at its next change.
KNOWN_ABSENT = {
    "audit.realism_flags",
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
    assert _params(Game._evaluate_many) == ["self", "masks"]


def test_tracer_finds_every_hook_and_counts_mc_work():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert set(tracer.absent) <= KNOWN_ABSENT
        ds = t8_dataset()
        game = make_bs_game(ds, 7, "mean", LinearModel((2.0, 1.0, 0.5), 0.0))
        att = shapley_permutation(game, 37, seed=5)
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    assert np.isfinite(att.phi).all()
    assert stats["shapley._permutations.perms"] == 37
    assert stats["shapley._permutations.calls"] == 1
    assert stats["games.values.calls"] == 1
    assert stats["games.coalitions_requested"] == 37 * (ds.d + 1)
    # every nonempty subset of 3 features, each evaluated once
    assert stats["games.coalitions_evaluated"] == 7
    assert stats["games._evaluate_many.calls"] == 1


def test_global_sweeps_the_cohort_tables_once(tmp_path):
    # the direct and the disaggregated route share one pass over the
    # squared cohort tables, read by the benchmark as the chunk count
    ds = random_dataset(600, 5, seed=21)
    names = [col.name for col in ds.schema]
    rows = [",".join([*names, "pred"])]
    rows += [",".join(repr(float(v)) for v in (*x, p)) for x, p in zip(ds.X, ds.y)]
    (tmp_path / "table.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    config_json = {
        "data": str(tmp_path / "table.csv"),
        "schema": {name: "numeric" for name in names},
        "prediction_column": "pred",
        "similarity": {"default": {"kind": "abs", "delta": 0.5}},
        "engine": "exact",
        "audit": {"per_subject": True},
        "out": str(tmp_path / "out"),
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_json), encoding="utf-8")
    step = min(MAX_CHUNK_TARGETS, max(1, CHUNK_BYTES // (8 << ds.d)))
    one_pass = -(-ds.n // step)
    assert one_pass > 1
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cohortshap.cli.main(["global", "--config", str(config)])
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    assert code == 0
    assert "disaggregation residual" in stdout.getvalue()
    assert (tmp_path / "out" / "per_subject_cs2.csv").exists()
    assert stats["similarity.cohort_table_chunks.chunks"] == one_pass
    assert stats["similarity.cohort_table_chunks.cells"] == ds.n << ds.d
    assert stats["aggregate.cohort_value_sweep.calls"] == 1
