#!/usr/bin/env python3
"""catenv benchmark: time to verdict on four verification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.WORKLOADS`` or ``all``. A run is
a closed loop with one client: one ``catenv.cli.main`` command at a time,
in-process, its JSON report captured and checked against ``golden.json``.
Batches (every operation once) repeat until ``--seconds`` have been spent,
with at least three batches. Each operation's time is scaled to the
reference speed, sampled by the kernel in ``speed.py`` while the operation
runs; a time metric takes each operation's median over the run's batches.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced batch with a batch traced by the wrappers in ``layers.py`` and
prints the per-layer self times and counts. The last line of standard output
is the result as one JSON object; run records with the environment stamp and
the spans go to ``.bench_out/`` at the root of the checkout. The exit status
is 1 when any outcome was wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import layers
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".bench_out"
MIN_BATCHES = 3   # untraced batches per run, so that medians mean something

END_TO_END_UNITS = {"batch_s": "s", "largest_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
# span name -> per-layer metric "<span>_s" (self time, seconds)
LAYER_SPANS = (
    "categories.validate", "hull.generate", "hull.hausdorff", "ideals.lattice",
    "germs.build", "germs.restrict", "gpd.construct",
    "matrixrep.jack", "matrixrep.algebra_span", "matrixrep.isometry",
    "matrixrep.window",
    "envelope.block_decompose", "envelope.shilov", "envelope.star_map",
    "envelope.detects_ideals",
    "coactions.grading", "coactions.normality", "coactions.crossed_product",
    "coactions.duality", "coactions.extension",
    "lcm.starling", "report.render",
)
COUNTS = (
    "hull.closure_size", "ideals.count", "ideals.omega", "ideals.boundary",
    "germs.omega_germs", "germs.boundary_germs", "gpd.product_entries",
    "matrixrep.span_dim", "matrixrep.isometry_levels", "matrixrep.isometry_samples",
    "envelope.blocks", "envelope.shilov_masks_tried", "envelope.shilov_masks_certified",
    "coactions.crossed_dim",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units.update({name: "count" for name in COUNTS})
    units["trace.overhead_s"] = "s"
    return units


# -- environment stamp ----------------------------------------------------------


def _blas() -> dict:
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int, loadavg) -> dict:
    import numpy as np

    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": nproc, "loadavg_at_start": list(loadavg),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
            "seed": seed, "platform": platform.platform()}


# -- one operation ----------------------------------------------------------------


def run_op(cli_main, op) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, error) for one untraced command."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main([*op.argv, "--format", "json"])
    except Exception as exc:  # a command that raises is a failed operation
        return time.perf_counter() - start, None, "", f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, buf.getvalue(), None


def check_op(expected: dict | None, code, text: str, error) -> list[str]:
    """Problems of one outcome against its golden report; empty when it matches."""
    if error is not None:
        return [error]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return [f"exit {code} without a JSON report"]
    if expected is None:
        return ["no golden report"]
    return golden.differences(expected, golden.normal_form(code, report))


# -- the measurement loop ---------------------------------------------------------


class Run:
    """Batches of one workload's operations, every outcome checked as it comes."""

    def __init__(self, ops, goldens, cli_main, setup_cmd=None):
        self.ops = ops
        self.setup_cmd = setup_cmd
        self.goldens = goldens
        self.cli_main = cli_main
        self.attempted = 0
        self.failures: list[str] = []
        self.op_s: dict[str, list[float]] = {op.key: [] for op in ops}
        self.scaled_s: dict[str, list[float]] = {op.key: [] for op in ops}
        self.speed = speed.Sampler()
        self.setup_s: list[float] = []
        self.batch_s: list[float] = []
        self.traced_s: list[float] = []
        self.self_times: list[dict] = []
        self.counts: list[dict] = []
        self.span_records: list[list] = []

    def batch(self, tracer=None) -> float:
        """Run every operation once, untraced or into ``tracer``; its wall time.

        An untraced batch also samples the host speed while each operation
        runs, or right after it when it ended before the first sample, and
        leaves the time spent on sampling out of the operation's time."""
        if tracer is not None:
            with layers.instrument(tracer):
                outcomes = [run_op(self.cli_main, op) for op in self.ops]
        else:
            outcomes = []
            with self.speed.during():
                for op in self.ops:
                    first, sampling = len(self.speed.kernel_s), self.speed.spent_s
                    seconds, *outcome = run_op(self.cli_main, op)
                    seconds -= self.speed.spent_s - sampling
                    if len(self.speed.kernel_s) == first:
                        self.speed.sample()
                    outcomes.append((seconds, *outcome))
                    self.op_s[op.key].append(seconds)
                    self.scaled_s[op.key].append(
                        seconds * speed.to_reference(self.speed.kernel_s[first:]))
        for op, (seconds, code, text, error) in zip(self.ops, outcomes):
            self.attempted += 1
            problems = check_op(self.goldens.get(op.key), code, text, error)
            if problems:
                self.failures.append(f"{op.key}: {'; '.join(problems)}")
        return sum(seconds for seconds, *_ in outcomes)

    def measure(self, seconds: float, traced: bool):
        """Rounds of one untraced batch, and one traced batch when ``traced``,
        until ``seconds`` are spent; at least MIN_BATCHES rounds untraced, one traced.

        An untraced round starts with one set-up sample, so that the samples
        spread over the run as the batches do."""
        start = time.perf_counter()
        min_rounds = 1 if traced else MIN_BATCHES
        rounds: list[float] = []
        while True:
            round_start = time.perf_counter()
            if not traced:
                self.setup_s.append(time_setup(self.setup_cmd))
            gc.collect()
            self.batch_s.append(self.batch())
            if traced:
                tr = spans.Tracer()
                gc.collect()
                self.traced_s.append(self.batch(tr))
                self.self_times.append(spans.self_times(tr.spans))
                self.counts.append(tr.counts)
                self.span_records.append(tr.records())
            rounds.append(time.perf_counter() - round_start)
            spent = time.perf_counter() - start
            if len(rounds) >= min_rounds and spent + statistics.median(rounds) > seconds:
                return


def end_to_end(run: Run) -> dict:
    """Each operation's median scaled time over the untraced batches: summed
    for ``batch_s``, the largest input's alone for ``largest_s``. ``setup_s``
    is the median set-up sample, not scaled:
    set-up starts numpy's BLAS threads on both processors, and the
    one-thread kernel does not track its speed."""
    typical = {key: statistics.median(times) for key, times in run.scaled_s.items()}
    largest = next(op.key for op in run.ops if op.largest)
    values = {"batch_s": sum(typical.values()),
              "largest_s": typical[largest],
              "setup_s": statistics.median(run.setup_s),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run: Run) -> tuple[dict, list[str]]:
    units = per_layer_units()
    values = {f"{name}_s": statistics.median(t.get(name, 0.0) for t in run.self_times)
              for name in LAYER_SPANS}
    problems = []
    for name in COUNTS:
        seen = {c.get(name, 0) for c in run.counts}
        if len(seen) != 1:
            problems.append(f"count {name} changed between batches: {sorted(seen)}")
        values[name] = run.counts[0].get(name, 0)
    values["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(run.traced_s, run.batch_s))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, problems


def setup_command(workload: str, seed: int, workdir: Path) -> list[str]:
    """A fresh process that imports catenv and writes the workload's inputs."""
    return [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)]


def time_setup(cmd) -> float:
    """Wall time of one set-up process.

    No timeout: ``subprocess`` waits for a timeout by polling in 50 ms
    sleeps, which would round every sample up to the next poll."""
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    loadavg = os.getloadavg()
    try:
        workloads.import_catenv()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import catenv.cli

    OUT.mkdir(exist_ok=True)
    ops = workloads.prepare(workload, seed, OUT)
    run = Run(ops, golden.load()[workload], catenv.cli.main,
              setup_command(workload, seed, OUT))
    run.measure(seconds, traced)

    problems = list(run.failures)
    if traced:
        metrics, count_problems = per_layer(run)
        problems += count_problems
    else:
        metrics = end_to_end(run)
    failed = len(run.failures)
    result = {"correct": not problems, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seconds": seconds, "trace": int(traced),
              "environment": environment(seed, loadavg), "batches": len(run.batch_s),
              "batch_s": run.batch_s, "op_s": run.op_s, "scaled_s": run.scaled_s,
              "kernel_s": run.speed.kernel_s,
              "setup_s": run.setup_s,
              "traced_s": run.traced_s, "problems": problems, "result": result}
    stem = f"{workload}-seed{seed}-trace{int(traced)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(run.span_records) + "\n")
        by_layer: dict[str, float] = {}
        for name in LAYER_SPANS:
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + metrics[f"{name}_s"]["value"]
        print("self time by layer: " + ", ".join(
            f"{layer} {t:.3f} s" for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])))

    for problem in problems:
        print(f"FAILED {problem}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"{workload}: {len(run.batch_s)} batches of {len(ops)} ops, "
          f"error_rate {failed / run.attempted:.4f} ({failed} of {run.attempted} failed)")
    print(json.dumps(result))
    return 1 if problems else 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; one summary row per metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(traced))],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode not in (0, 1):  # 1: ran, with wrong outcomes
            print(f"{workload}: exit {proc.returncode}")
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        rate = result["failed"] / result["attempted"]
        print(f"{workload:16} {'error_rate':28} {rate:12.4f} ratio "
              f"({result['failed']}/{result['attempted']}) correct={result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"{workload:16} {name:28} {metric['value']:12.4f} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
