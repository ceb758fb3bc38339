#!/usr/bin/env python3
"""cohortshap benchmark: seeded workloads run end to end through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload {titanic,wide,lazy} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, measures its set-up time in
fresh processes, then repeats rounds of the workload's commands (through
``cohortshap.cli.main``) and single-target explains (through the public
API) for about S seconds after one warm-up round. Every output is checked;
a nonzero exit or a failed check counts as a failed operation.

Other tenants share the benchmark's core and slow it by up to 2x for
stretches of many seconds, so a run's raw wall times follow them. A
reference kernel timed right before and after every operation measures that
load (see ``host.py``), and every end-to-end timing is the operation's time
on a free core, the median over the run's rounds.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of traced
rounds, which alternate with untraced rounds so the tracing overhead can be
reported. Lines before it are a human-readable report (raw medians
included) and the environment record.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from host import Calibration
from tracing import LAYER_METRICS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every input, for the smoke test")
    return p.parse_args(argv)


def pin_cpu() -> int:
    """Run this process and every child on one CPU. Only one of them works
    at a time, and a child then runs where its parent's timing does instead
    of on a CPU whose neighbours may load it differently."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int, pinned_cpu: int) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "seed": seed,
    }


def measure_setup(config: Path) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs rounds of one workload and tallies operations and failures."""

    # Explains are timed in batches of about this many seconds, each
    # followed by a calibration window.
    EXPLAIN_BATCH_S = 0.02

    def __init__(self, wl, cli, explain, calibration):
        self.wl = wl
        self.cli = cli
        self.explain = explain
        self.cal = calibration
        self.attempted = 0
        self.failed = 0
        self.explained = 0
        self.problems: list[str] = []

    def _fail(self, what: str, problems) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems[:3]]

    def round(self, tracer=None) -> dict:
        """One pass over every command and explain target.

        Returns per-metric times in fastest-kernel units (wall time over
        load; see ``host.py``), their raw wall times under ``raw <metric>``,
        explain latencies, the pass's total in kernel units, and with a
        tracer the round's wall time and the part of it layer spans cover;
        calibration windows are left out of that wall time. Outputs are
        checked after the timed pass, with tracing off.
        """
        wl = self.wl
        shutil.rmtree(wl.out, ignore_errors=True)
        runs = []
        if tracer is not None:
            tracer.reset()
            tracer.install()
            close = tracer.root()
        by_command = {}
        calibrate = self.cal.after
        cal_before = self.cal.spent
        try:
            for cmd in wl.commands:
                before = tracer.self_times() if tracer is not None else None
                for k in range(cmd.repeat):
                    out = wl.out / cmd.metric / str(k)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    start = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = self.cli.main([*cmd.argv, str(out)])
                    except (Exception, SystemExit) as exc:  # a crash is a failed operation
                        code = f"raised {exc!r}"
                    wall = time.perf_counter() - start
                    load = calibrate(wall)
                    runs.append((cmd, out, wall, load, code,
                                 stdout.getvalue(), stderr.getvalue()))
                if tracer is not None:
                    after = tracer.self_times()
                    by_command[cmd.metric] = {k: v - before.get(k, 0.0) for k, v in after.items()}
            latencies, results = [], []
            order = wl.explain_order
            batch, scaled = 0.0, 0.0
            for k in range(self.explained, self.explained + wl.explain_per_round):
                t = order[k % len(order)]
                start = time.perf_counter()
                try:
                    att = self.explain(t)
                except Exception as exc:  # a crash is a failed operation
                    att = exc
                latencies.append(time.perf_counter() - start)
                results.append((t, att))
                batch += latencies[-1]
                if batch >= self.EXPLAIN_BATCH_S:
                    scaled += batch / calibrate(batch)
                    batch = 0.0
            if batch:
                scaled += batch / calibrate(batch)
        finally:
            if tracer is not None:
                wall, covered = close()
                wall -= self.cal.spent - cal_before
                tracer.uninstall()
        self.explained += wl.explain_per_round
        out = {"latencies": latencies,
               "pass_units": scaled + sum(r[2] / r[3] for r in runs),
               "explain_ms": 1e3 * scaled / len(latencies),
               "raw explain_ms": 1e3 * statistics.fmean(latencies)}
        if tracer is not None:
            out.update(wall=wall, covered=covered, layers=tracer.snapshot(),
                       by_command=by_command)
        self._check(runs, results, out)
        self.cal.gap()  # the checks ran untimed
        return out

    def _check(self, runs, results, out) -> None:
        wl = self.wl
        walls, scaled, to_tol = {}, {}, []
        for cmd, out_dir, wall, load, code, stdout, stderr in runs:
            self.attempted += 1
            walls.setdefault(cmd.metric, []).append(wall)
            scaled.setdefault(cmd.metric, []).append(wall / load)
            if code != 0:
                self._fail(cmd.metric, [f"exit {code}: {stderr.strip()[-300:]}"])
                continue
            try:
                problems = cmd.check(out_dir, stdout)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self._fail(cmd.metric, problems)
            elif cmd.metric == "mc_local_s":
                to_tol.append(workloads.mc_time_to_tol(wl, out_dir, wall / load))
        for metric, values in walls.items():
            out[metric] = statistics.fmean(scaled[metric])
            out[f"raw {metric}"] = statistics.fmean(values)
        if to_tol:
            out["mc_time_to_tol_s"] = statistics.fmean(to_tol)
        for t, att in results:
            self.attempted += 1
            if isinstance(att, Exception):
                self._fail(f"explain t{t}", [repr(att)])
                continue
            problems = workloads.sum_problem(f"explain t{t}", att.phi, att.total, wl.sum_tol)
            if problems:
                self._fail(f"explain t{t}", problems)


def percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohortshap" / "__init__.py").is_file():
        print(f"error: no cohortshap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cohortshap
    from cohortshap import cli
    from cohortshap.config import RunConfig

    if not Path(cohortshap.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cohortshap from {cohortshap.__file__}", file=sys.stderr)
        return 2

    cpu = pin_cpu()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        def explain_factory(wl):
            cfg = RunConfig.load(str(wl.config), {})
            schema = cfg.parsed_schema()
            ds = cohortshap.load_csv(cfg.data, schema, prediction_column=cfg.prediction_column)
            rules = cfg.rules_for(schema)

            def explain(t, panel=False):
                game = cohortshap.make_cs_game(ds, cohortshap.similarity_row(rules, ds, t), t)
                if wl.engine == "exact":
                    return cohortshap.shapley_exact(game)
                m = wl.panel_perms if panel else wl.explain_perms
                return cohortshap.shapley_permutation(game, m, wl.seed)

            return explain

        wl = workloads.build(args.workload, args.seed, work, args.size == "toy",
                             explain_factory)
        env = environment(args.seed, cpu)
        calibration = Calibration()
        runner = Runner(wl, cli, explain_factory(wl), calibration)
        tracer = Tracer() if args.trace else None

        # Warm-up: the first probe also compiles bytecode, and the first
        # pass in a process runs slower.
        measure_setup(wl.config)
        runner.round()
        calibration.times.clear()
        rounds, traced = [], []
        started = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            # one set-up probe per round spreads them over the run
            setup_s = measure_setup(wl.config)
            rounds.append({"setup_s": setup_s / calibration.after(setup_s),
                           "raw setup_s": setup_s, **runner.round()})
            if tracer is not None:
                traced.append(runner.round(tracer))
            used = time.perf_counter() - started
            if used + (time.perf_counter() - t0) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    def med(key, source=rounds):
        # a metric whose command failed in every round reads 0; correct is false
        values = [r[key] for r in source if key in r]
        return statistics.median(values) if values else 0.0

    fastest = calibration.fastest()

    def free_core(key):
        """Time on a free core: the median over the run's rounds of a time
        in fastest-kernel units, times the fastest kernel run. The median
        keeps the few rounds that meet another load than most from pulling
        metrics whose code slows less under load than the kernel does."""
        values = [r[key] for r in rounds if key in r]
        return fastest * statistics.median(values) if values else 0.0

    print(f"workload {wl.name}: n={wl.n} d={wl.d} engine={wl.engine}, "
          f"{len(rounds)} measured rounds; {len(calibration.times)} kernel runs, "
          f"fastest {1e3 * fastest:.4f} ms, mean slowdown {calibration.slowdown():.4f}")
    latencies = [x for r in rounds for x in r["latencies"]]
    if tracer is None:
        metrics = {
            "setup_s": (free_core("setup_s"), "s"),
            **{m: (free_core(m), "s") for m in workloads.COMMANDS},
            "mc_time_to_tol_s": (free_core("mc_time_to_tol_s"), "s"),
            "explain_ms": (free_core("explain_ms"), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"explain samples {len(latencies)}; "
              f"error_rate {runner.failed / max(runner.attempted, 1)!r}")
    else:
        flat = [layer_metrics(r["layers"]) for r in traced]
        values = {name: statistics.median(f[name] for f in flat) for name in flat[0]}
        values["trace.overhead_frac"] = med("pass_units", traced) / med("pass_units") - 1.0
        values["trace.unattributed_frac"] = statistics.median(
            1.0 - r["covered"] / r["wall"] for r in traced)
        values["host.slowdown"] = calibration.slowdown()
        metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
        # Per-call percentiles jump between runs when neighbours on a shared
        # host load the core about half the time, so they carry no bound.
        metrics["explain_p50_ms"] = (1e3 * percentile(latencies, 50), "ms")
        metrics["explain_p95_ms"] = (1e3 * percentile(latencies, 95), "ms")
        if tracer.absent:
            print(f"absent hooks: {', '.join(tracer.absent)}")
        print("largest self times per command (last traced round):")
        for metric, selfs in traced[-1]["by_command"].items():
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
            print(f"  {metric:14s} " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    for name, (value, unit) in metrics.items():
        raw = [r[f"raw {name}"] for r in rounds if f"raw {name}" in r] \
            if tracer is None else []
        samples = [fastest * r[name] for r in rounds if name in r] if raw else []
        print(f"  {name:42s} {value:14.6g} {unit:6s}"
              + (f" raw median {statistics.median(raw):.4g}; free-core rounds "
                 + " ".join(f"{v:.4g}" for v in samples) if raw else ""))
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
