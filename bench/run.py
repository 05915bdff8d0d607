#!/usr/bin/env python3
"""Closed-loop benchmark of the eqtransfer library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --record-answers

One client in one thread calls the library in process: the next op starts
only when the previous one has ended.  Each op starts from JSON text; its
answer is checked after the timer stops.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it replays every op through the
layers' public functions under spans and reports per-layer self times.
The last line of standard output is one JSON object; a summary, the
environment and the per-op sizes go to standard error and to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("tree_transfer", "arena_ne", "normal_form_decide")
SETUP_REPEATS = 5
MIN_PASSES = 3
HELD_OUT_OFFSET = 104729

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "op_ms.small": "ms", "op_ms.medium": "ms", "op_ms.large": "ms",
    "peak_alloc_mb": "MB", "setup_s": "s",
}


LAYERS = ("jsonio", "extensive", "graph_games", "normal_form", "corpus",
          "transfer")
COUNTS = ("jsonio.bytes", "extensive.normal_form_cells",
          "transfer.winner_calls", "transfer.strategy_calls")


def _per_layer_units() -> dict[str, str]:
    from workloads import CLAIM_NAMES
    ms = ["jsonio.parse", "jsonio.build", "extensive.oracle_build",
          "extensive.winner", "extensive.strategy",
          "graph_games.parity.winner", "graph_games.parity.strategy",
          "graph_games.muller.winner", "graph_games.muller.strategy",
          "graph_games.play", "graph_games.deviation",
          "normal_form.determinacy", "normal_form.structure_oracle",
          "normal_form.verify", "corpus.build", "transfer.driver"]
    ms += [f"corpus.claim.{c}" for c in CLAIM_NAMES]
    units = {f"{name}_ms": "ms" for name in ms}
    units.update({"jsonio.bytes": "count",
                  "extensive.normal_form_cells": "count",
                  "extensive.cells_read_ratio": "ratio",
                  "transfer.winner_calls": "count",
                  "transfer.strategy_calls": "count",
                  "trace.overhead_ratio": "ratio"})
    for layer in LAYERS:
        units[f"{layer}.failed"] = "count"
    return units


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import eqtransfer from this checkout's sources, and nowhere else."""
    if not (SRC / "eqtransfer" / "__init__.py").is_file():
        fail(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eqtransfer
    if SRC.resolve() not in Path(eqtransfer.__file__).resolve().parents:
        fail(f"eqtransfer was imported from {eqtransfer.__file__}")


# ---------------------------------------------------------------------------
# Environment.

def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    status = _git("status", "--porcelain")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Set-up.

# The child scales its import time by its own probe: it may run on another
# CPU than the parent, at another speed.
_IMPORT_CODE = """\
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
import run
probe = statistics.median(run.probe_ms(run._probe_lists) for _ in range(5))
t = time.perf_counter()
import eqtransfer, eqtransfer.jsonio
print((time.perf_counter() - t) * run.PROBE_REF_MS / probe)
"""


def import_seconds() -> float:
    """Library import time in a fresh interpreter, at reference speed."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(SRC),
                          str(BENCH)], capture_output=True, text=True,
                         timeout=120)
    if out.returncode != 0:
        fail(f"importing eqtransfer failed:\n{out.stderr}")
    return float(out.stdout)


def setup(workload: str, seed: int, repeats: int, blocks=None):
    """Import plus seeded generation, repeated; returns the last op list
    and each set-up's time at reference speed.  Set-up is list and dict
    work, so the list probe scales it."""
    from workloads import generate
    times = []
    for _ in range(repeats):
        imported = import_seconds()
        speed = PROBE_REF_MS / statistics.median(
            probe_ms(_probe_lists) for _ in range(5))
        t0 = perf_counter()
        ops = generate(workload, seed, blocks)
        times.append(imported + (perf_counter() - t0) * speed)
    return ops, times


# ---------------------------------------------------------------------------
# Speed probe.  The host is shared, and its speed drifts by up to half from
# one second to the next, moving every op alike.  A fixed pure-Python loop,
# timed between ops, tracks that drift; op times are reported at the speed
# where the loop takes PROBE_REF_MS.

PROBE_REF_MS = 3.0


def _probe_lists() -> int:
    """List, set and dict churn, like building and reading normal forms."""
    n = 12000
    succ = [(i * 7919 + 3) % n for i in range(n)]
    seen, order = set(), []
    for s in range(0, n, 97):
        v = s
        while v not in seen:
            seen.add(v)
            order.append(v)
            v = succ[v]
    rank = {v: i for i, v in enumerate(order)}
    return sum(rank[v] for v in order[::3])


def _probe_graph() -> int:
    """Set sweeps over a fixed graph, like the attractor on an arena."""
    n = 1000
    succ = [((i * 37 + 1) % n, (i * 91 + 7) % n) for i in range(n)]
    attr = {0}
    changed = True
    while changed:
        changed = False
        for v in set(range(n)) - attr:
            if any(w in attr for w in succ[v]):
                attr.add(v)
                changed = True
    return len(attr)


# The probe of each workload resembles its hot loop, so that the host's
# drift moves both alike; a list probe over-corrected arena ops by half.
PROBES = {"tree_transfer": _probe_lists, "arena_ne": _probe_graph,
          "normal_form_decide": _probe_lists}


def probe_ms(work) -> float:
    """One run of a probe, with the cyclic collector off so that the
    library's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return (perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Running ops.

def execute(op):
    """One untraced op: (seconds, answer, exception type name or None)."""
    from workloads import HANDLERS
    run = HANDLERS[op.kind].run
    t0 = perf_counter()
    try:
        answer = run(op)
    except Exception as exc:  # every failure is tallied by type
        return perf_counter() - t0, None, type(exc).__name__
    return perf_counter() - t0, answer, None


def judge(op, answer, error):
    """None for a correct answer, else the failure's category."""
    from workloads import HANDLERS
    if error is not None:
        return error
    return "WrongAnswer" if HANDLERS[op.kind].check(op, answer) else None


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.examples: list[str] = []

    def add(self, op, reason) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures[reason] += 1
            if len(self.examples) < 5:
                self.examples.append(f"{op.kind}/{op.tier}: {reason}")
        return reason is None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tier_medians(records) -> dict[str, float]:
    from workloads import TIERS
    return {t: statistics.median(r["ms"] for r in records if r["tier"] == t)
            for t in TIERS if any(r["tier"] == t for r in records)}


def warm_up(blocks) -> None:
    seen = set()
    for op in blocks[0]:
        if op.tier == "small" and op.kind not in seen:
            seen.add(op.kind)
            execute(op)


def more_passes(done: int, start: float, seconds: float,
                minimum: int = MIN_PASSES) -> bool:
    """At least ``minimum`` passes; after that, another pass only if it
    should end before ``seconds``, judging by the mean pass so far."""
    if done < minimum:
        return True
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def timed_passes(blocks, probe, seconds: float, tally: Tally,
                 minimum: int = MIN_PASSES) -> list[dict]:
    """Closed loop over whole passes, with a probe before every op and
    after the last.  Each op time is scaled to reference speed by the median
    of the four probes around it.  An op's time is the median of its scaled
    executions, which are a pass apart, so a transient slowdown hits one of
    them, not all.  (The fastest scaled execution would favour executions
    whose probes read slow.)"""
    ops = [op for block in blocks for op in block]
    raw: list[list[float]] = [[] for _ in ops]
    oks = [True] * len(ops)
    probes = []
    start = perf_counter()
    passes = 0
    while more_passes(passes, start, seconds, minimum):
        for i, op in enumerate(ops):
            probes.append(probe_ms(probe))
            dt, answer, error = execute(op)
            raw[i].append(dt * 1e3)
            oks[i] &= tally.add(op, judge(op, answer, error))
        passes += 1
    probes.append(probe_ms(probe))

    def speed(g: int) -> float:  # execution g ran between probes g and g + 1
        return PROBE_REF_MS / statistics.median(probes[max(0, g - 1):g + 3])

    records = []
    for i, op in enumerate(ops):
        scaled = [ms * speed(p * len(ops) + i) for p, ms in enumerate(raw[i])]
        records.append({"kind": op.kind, "tier": op.tier, "size": op.size,
                        "pool": op.pool, "ms": statistics.median(scaled),
                        "runs_ms": scaled, "raw_ms": raw[i], "ok": oks[i]})
    return records, probes


def alloc_peaks_mb(blocks, tally: Tally) -> list[float]:
    """Peak of traced allocations for the first pool entry of each large
    kind, which every seed uses.  A full collection before each op keeps
    the collector's timing from moving the peak."""
    large = {}
    for op in (op for block in blocks for op in block if op.tier == "large"):
        if op.kind not in large or op.pool < large[op.kind].pool:
            large[op.kind] = op
    peaks = []
    tracemalloc.start()
    try:
        execute(next(iter(large.values())))  # pays one-time costs
        for op in large.values():
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, answer, error = execute(op)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
            tally.add(op, judge(op, answer, error))
    finally:
        tracemalloc.stop()
    return peaks


def held_out_ordering(workload: str, seed: int, main: dict) -> dict:
    """Tier order of one block of a second seed against the main order."""
    blocks, _ = setup(workload, seed + HELD_OUT_OFFSET, repeats=1, blocks=1)
    held = tier_medians(
        timed_passes(blocks, PROBES[workload], 0.0, Tally(), minimum=1)[0])
    order = sorted(main, key=main.get)
    held_order = sorted(held, key=held.get)
    return {"seed": seed + HELD_OUT_OFFSET, "tier_ms": held,
            "order": held_order, "main_order": order,
            "same_order": order == held_order}


def timed_run(workload: str, seed: int, seconds: float, blocks, setup_times):
    tally = Tally()
    warm_up(blocks)
    t0 = perf_counter()
    records, probes = timed_passes(blocks, PROBES[workload], seconds, tally)
    wall = perf_counter() - t0
    times = [r["ms"] for r in records]
    tiers = tier_medians(records)
    peaks = alloc_peaks_mb(blocks, tally)
    metrics = {
        "ops_per_s": len(times) / (sum(times) / 1e3),
        "op_p50_ms": statistics.median(times),
        "op_p90_ms": nearest_rank(times, 0.9),
        **{f"op_ms.{t}": v for t, v in tiers.items()},
        "peak_alloc_mb": max(peaks),
        "setup_s": statistics.median(setup_times),
    }
    detail = {"ops": records, "samples": len(times),
              "samples_beyond_p90": sum(t > metrics["op_p90_ms"] for t in times),
              "passes": len(records[0]["runs_ms"]), "timed_wall_s": wall,
              "failed_ratio": tally.failed / tally.attempted,
              "failures": dict(tally.failures), "examples": tally.examples,
              "setup_s_each": setup_times, "probe_ms": probes,
              "alloc_peaks_mb": peaks,
              "held_out": held_out_ordering(workload, seed, tiers)}
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# Traced run.

def _pass_metrics(tracer, first: int, counts0: Counter, failed0: Counter,
                  untraced: float, traced: float) -> dict:
    selfs = tracer.self_times(first)
    counts = tracer.counts - counts0
    failed = tracer.failed - failed0
    metrics = {f"{name}_ms": s * 1e3 for name, s in selfs.items()
               if name != "op"}
    metrics.update({name: counts[name] for name in COUNTS})
    cells = counts["extensive.normal_form_cells"]
    metrics["extensive.cells_read_ratio"] = (
        counts["extensive.cells_read"] / cells if cells else 0.0)
    metrics.update({f"{layer}.failed": failed[layer] for layer in LAYERS})
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    metrics["trace.unattributed_ms"] = selfs.get("op", 0.0) * 1e3
    metrics["trace.untraced_ms"] = untraced * 1e3
    return metrics


def traced_run(blocks, seconds: float):
    """Whole passes, each op untraced then replayed under spans."""
    from tracing import Tracer
    from workloads import HANDLERS
    tracer = Tracer()
    tally = Tally()
    warm_up(blocks)
    ops = [op for block in blocks for op in block]
    passes = []
    start = perf_counter()
    while more_passes(len(passes), start, seconds, minimum=1):
        first = len(tracer.spans)
        counts0, failed0 = Counter(tracer.counts), Counter(tracer.failed)
        untraced = traced = 0.0
        for op_id, op in enumerate(ops):
            dt, answer, error = execute(op)
            tracer.op_id = (len(passes), op_id)
            t0 = perf_counter()
            replayed, replay_error = None, None
            try:
                with tracer.span("op"):
                    replayed = HANDLERS[op.kind].replay(op, tracer)
            except Exception as exc:  # tallied like an untraced failure
                replay_error = type(exc).__name__
            traced += perf_counter() - t0
            untraced += dt
            reason = judge(op, answer, error)
            if reason is None and (replayed, replay_error) != (answer, None):
                reason = "ReplayMismatch"
            tally.add(op, reason)
        passes.append(_pass_metrics(tracer, first, counts0, failed0,
                                    untraced, traced))
    names = set().union(*passes)
    metrics = {n: statistics.median(p.get(n, 0) for p in passes) for n in names}
    detail = {"passes": len(passes), "failures": dict(tally.failures),
              "examples": tally.examples, "spans": tracer.to_json()}
    return metrics, tally, detail


# ---------------------------------------------------------------------------
# Entry points.

def result_line(metrics: dict, units: dict, tally: Tally) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": metrics.get(n, 0), "unit": u}
                        for n, u in units.items()}}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          repeats: int = SETUP_REPEATS, blocks=None, write: bool = True):
    env = environment()
    ops, setup_times = setup(workload, seed, repeats, blocks)
    if trace:
        metrics, tally, detail = traced_run(ops, seconds)
        units = _per_layer_units()
    else:
        metrics, tally, detail = timed_run(workload, seed, seconds, ops,
                                           setup_times)
        units = END_TO_END
    env["loadavg_end"] = list(os.getloadavg())
    line = result_line(metrics, units, tally)
    summary = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "environment": env,
               "metrics": metrics, **detail}
    if write:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, default=str)
    _print_summary(summary, units)
    return line, summary


def _print_summary(summary: dict, units: dict) -> None:
    err = sys.stderr
    env = summary["environment"]
    print(f"# {summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} git={env['git_sha']} "
          f"dirty={env['git_dirty']} load={env['loadavg_start']}"
          f"->{env['loadavg_end']}", file=err)
    if "samples" in summary:
        print(f"# passes={summary['passes']} timed_wall_s="
              f"{summary['timed_wall_s']:.1f} samples={summary['samples']} beyond_p90="
              f"{summary['samples_beyond_p90']} failed_ratio="
              f"{summary['failed_ratio']} held_out_same_order="
              f"{summary['held_out']['same_order']}", file=err)
    if summary["failures"]:
        print(f"# failures: {summary['failures']} {summary['examples']}",
              file=err)
    for name, unit in units.items():
        print(f"{name:44s} {summary['metrics'].get(name, 0):14.6g} {unit}",
              file=err)


# Per-layer metrics each workload must move, checked by the smoke test.
EXERCISED = {
    "tree_transfer": ("extensive.", "normal_form.verify_ms"),
    "arena_ne": ("graph_games.",),
    "normal_form_decide": ("normal_form.", "corpus.build_ms"),
}
EXERCISED_BY_ALL = ("jsonio.", "transfer.")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"smoke: {message}")


def smoke() -> int:
    """Seconds-long self-test of the harness on one block per workload."""
    import random
    import eqtransfer as et
    from eqtransfer import jsonio
    from workloads import (HANDLERS, _fill_shape, _random_shape, _tree_obj,
                           generate, normal_form_table)
    rng = random.Random(7)
    for _ in range(20):
        root = _fill_shape(rng, _random_shape(rng, 8, 40), 5)
        tree = jsonio.from_obj({"format": 1, "tree": _tree_obj(root),
                                "outcomes": 5})
        _expect((et.to_normal_form(tree).table == normal_form_table(root)).all(),
                "the checks' normal form indexes unlike the library's")
    for workload in WORKLOADS:
        for trace, units in ((False, END_TO_END), (True, _per_layer_units())):
            line, summary = bench(workload, 1, 0.2, trace, repeats=1,
                                  blocks=1, write=False)
            _expect(line["correct"], f"{workload} failed: {summary['failures']}")
            for name, unit in units.items():
                _expect(line["metrics"][name]["unit"] == unit,
                        f"{name} has unit {line['metrics'][name]['unit']}")
            needed = EXERCISED_BY_ALL + EXERCISED[workload]
            for name in (END_TO_END if not trace else
                         [n for n in units if n.startswith(needed)
                          and not n.endswith(".failed")]):
                _expect(summary["metrics"].get(name, 0) > 0,
                        f"{workload} emitted no {name}")
        op = generate(workload, 1, blocks=1)[0][0]
        handlers = HANDLERS[op.kind]
        answer = handlers.run(op)
        tally = Tally()
        tally.add(op, judge(op, answer, None))
        tally.add(op, judge(op, handlers.corrupt(op, answer), None))
        _expect(tally.failures == {"WrongAnswer": 1},
                f"a corrupted {op.kind} answer was not caught")
        print(f"smoke: {workload} ok", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-answers", action="store_true")
    args = parser.parse_args(argv)
    import_library()
    if args.smoke:
        return smoke()
    if args.record_answers:
        from workloads import ANSWERS_FILE, record_answers
        with open(ANSWERS_FILE, "w", encoding="utf-8") as fh:
            json.dump(record_answers(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import SetupError
    try:
        line, _ = bench(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except SetupError as exc:
        fail(str(exc))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
