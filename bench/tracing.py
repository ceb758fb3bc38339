"""Per-layer tracing installed from outside the package.

Wrappers replace every binding of a hooked function across the loaded
``cohortshap`` modules (``predict`` is bound in ``models``, ``games``,
``audit``, ``cli`` and the package itself), and ``_evaluate_many`` on every
``Game`` subclass that defines it. Each wrapper records a span: its duration
is charged to the hook, minus the time of spans nested inside it (self
time), and added to the enclosing span's child time. Spans are aggregated
in memory per hook, not kept one by one, to keep the overhead small on
hooks called hundreds of thousands of times. Counters are computed from
argument and result sizes at the same boundary.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _nbytes(a) -> int:
    return int(getattr(a, "nbytes", 0))


def _table_rows(table) -> int:
    shape = np.shape(table)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# Counters per hook: name -> fn(args, kwargs, result) -> {counter: amount}.
def _column_close_count(a, k, r):
    return {"elements": int(np.size(r))}


def _superset_count(a, k, r):
    table, d = a[0], a[1]
    adds = d * (np.size(table) // 2)
    # each pass reads both halves and writes the lower one
    return {"adds": adds, "bytes": d * _nbytes(table) * 3 // 2}


def _phi_count(a, k, r):
    table, d = a[0], a[1]
    # every feature gathers the whole value table once
    return {"rows": _table_rows(table), "bytes": d * _nbytes(table)}


def _perm_count(a, k, r):
    return {"perms": int(a[1])}


def _predict_count(a, k, r):
    return {"points": int(np.size(r))}


def _pairs_count(a, k, r):
    return {"pairs": len(np.atleast_2d(a[0])) * len(a[1])}


def _sweep_count(a, k, r):
    return {"bytes": _nbytes(r)}


HOOKS = {
    "dataset": {"load_csv": None, "split_holdout": None},
    "similarity": {
        "resolve_rules": None,
        "similarity_row": None,
        "_column_close": _column_close_count,
        "cohort_table_chunks": None,
    },
    "bits": {"superset_sum_inplace": _superset_count},
    "shapley": {
        "_phi_from_tables": _phi_count,
        "shapley_exact": None,
        "shapley_permutation": None,
        "_permutations": _perm_count,
    },
    "games": {"make_var_game": None},
    "aggregate": {
        "cohort_value_sweep": _sweep_count,
        "variance_shapley": None,
        "aggregate_squared_cs": None,
    },
    "models": {"predict": _predict_count, "_run_external": None},
    "audit": {
        "_min_witness_scale": _pairs_count,
        "realism_flags": _pairs_count,
        "sample_marginal_product": None,
    },
}

# Artifact writers, traced together as the emit layer; value = path argument.
EMIT = {"cli": ("_write_json", 0), "aggregate": ("write_panel_csv", 1),
        "audit": ("write_realism_csv", 1)}


class Tracer:
    """Aggregated spans and counters; ``install`` swaps wrappers in and
    ``uninstall`` restores every original binding."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        st = self.stats[name]
        st["calls"] += 1
        st["self_s"] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def root(self):
        """Open the span of one measured round; returns a closer giving the
        round's wall time and the part of it covered by layer spans."""
        frame, start = self._enter()

        def close():
            wall = time.perf_counter() - start
            self._stack.pop()
            return wall, frame[0]

        return close

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, start)
            if counter is not None:
                st = tracer.stats[name]
                for key, amount in counter(args, kwargs, result).items():
                    st[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame, start = tracer._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, frame, start)
                st = tracer.stats[name]
                st["chunks"] += 1
                st["cells"] += int(np.size(item[1]))
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cohortshap" or key.startswith("cohortshap."))]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        self.absent = []
        for mod_name, hooks in HOOKS.items():
            for fn_name, counter in hooks.items():
                name = f"{mod_name}.{fn_name}"
                original = getattr(by_name.get(mod_name), fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(original, name)
                else:
                    wrapper = self._wrap(original, name, counter)
                self._rebind(original, wrapper, modules)
        for mod_name, (fn_name, path_arg) in EMIT.items():
            original = getattr(by_name.get(mod_name), fn_name, None)
            if not callable(original):
                self.absent.append(f"emit:{mod_name}.{fn_name}")
                continue

            def written(a, k, r, _path_arg=path_arg):
                return {"bytes": os.path.getsize(a[_path_arg])}

            self._rebind(original, self._wrap(original, "emit", written), modules)
        self._install_games(by_name.get("games"))

    def _install_games(self, games) -> None:
        base = getattr(games, "Game", None)
        if base is None:
            self.absent += ["games.values", "games._evaluate_many"]
            return
        tracer = self
        values = base.__dict__.get("values")
        if values is None:
            self.absent.append("games.values")
        else:
            def traced_values(game, masks):
                st = tracer.stats["games"]
                st["values.calls"] += 1
                if getattr(game, "_table", None) is None:
                    st["coalitions_requested"] += np.size(masks)
                return values(game, masks)

            self._restore.append((base, "values", values))
            base.values = traced_values
        classes, seen = [base], set()
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            evaluate = cls.__dict__.get("_evaluate_many")
            if evaluate is None or cls in seen:
                continue
            seen.add(cls)
            wrapped = self._wrap(evaluate, "games._evaluate_many", None)

            def traced_evaluate(game, masks, _wrapped=wrapped):
                tracer.stats["games"]["coalitions_evaluated"] += len(masks)
                return _wrapped(game, masks)

            self._restore.append((cls, "_evaluate_many", evaluate))
            cls._evaluate_many = traced_evaluate
        if not seen:
            self.absent.append("games._evaluate_many")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def snapshot(self) -> dict[str, float]:
        """Flat counters of everything recorded since the last reset."""
        flat = {}
        for name, st in self.stats.items():
            for key, value in st.items():
                flat[f"{name}.{key}"] = float(value)
        return flat

    def self_times(self) -> dict[str, float]:
        return {name: st["self_s"] for name, st in self.stats.items() if "self_s" in st}

    def reset(self) -> None:
        self.stats.clear()


COMPUTED = "bytes_computed"

# Per-layer metrics, named <module>.<function>.<stat>, with their units.
LAYER_METRICS = {
    "dataset.load_csv.self_s": "s",
    "dataset.split_holdout.self_s": "s",
    "similarity.resolve_rules.calls": "count",
    "similarity.similarity_row.calls": "count",
    "similarity.similarity_row.self_s": "s",
    "similarity._column_close.calls": "count",
    "similarity._column_close.self_s": "s",
    "similarity._column_close.elements": "count",
    "similarity.cohort_table_chunks.chunks": "count",
    "similarity.cohort_table_chunks.cells": "count",
    "similarity.cohort_table_chunks.self_s": "s",
    "bits.superset_sum_inplace.calls": "count",
    "bits.superset_sum_inplace.self_s": "s",
    "bits.superset_sum_inplace.adds": "count",
    "bits.superset_sum_inplace.bytes": COMPUTED,
    "shapley._phi_from_tables.calls": "count",
    "shapley._phi_from_tables.rows": "count",
    "shapley._phi_from_tables.self_s": "s",
    "shapley._phi_from_tables.bytes": COMPUTED,
    "shapley.shapley_exact.calls": "count",
    "shapley.shapley_exact.self_s": "s",
    "shapley.shapley_permutation.calls": "count",
    "shapley.shapley_permutation.self_s": "s",
    "shapley._permutations.perms": "count",
    "shapley._permutations.self_s": "s",
    "games.values.calls": "count",
    "games.coalitions_requested": "count",
    "games.coalitions_evaluated": "count",
    "games.memo_hit_ratio": "ratio",
    "games._evaluate_many.self_s": "s",
    "games.make_var_game.self_s": "s",
    "aggregate.cohort_value_sweep.self_s": "s",
    "aggregate.cohort_value_sweep.bytes": COMPUTED,
    "aggregate.variance_shapley.self_s": "s",
    "aggregate.aggregate_squared_cs.self_s": "s",
    "models.predict.calls": "count",
    "models.predict.points": "count",
    "models.predict.self_s": "s",
    "models._run_external.calls": "count",
    "models._run_external.self_s": "s",
    "audit._min_witness_scale.calls": "count",
    "audit._min_witness_scale.pairs": "count",
    "audit._min_witness_scale.self_s": "s",
    "audit.realism_flags.calls": "count",
    "audit.realism_flags.pairs": "count",
    "audit.realism_flags.self_s": "s",
    "audit.sample_marginal_product.self_s": "s",
    "emit.self_s": "s",
    "emit.bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "host.slowdown": "ratio",
}


def layer_metrics(flat: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced round; the two trace.* checks on the
    trace itself and the host's slowdown are filled in by the caller."""
    out = {name: flat.get(name, 0.0) for name in LAYER_METRICS
           if not name.startswith(("trace.", "host."))}
    requested = out["games.coalitions_requested"]
    evaluated = out["games.coalitions_evaluated"]
    out["games.memo_hit_ratio"] = 1.0 - evaluated / requested if requested else 0.0
    return out
