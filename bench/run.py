"""Benchmark for tai_welfare: reference tables, a closed-form sweep and CLI cold starts.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reference-tables --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` repeats one fixed unit of the workload, alternately plain and
traced, and reports the per-layer metrics (spans are written to
``.bench_out/``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat each metric with its unit for a human reader.  NOTES.md
says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import CLI_KINDS, TABLE_IDS, WORKLOADS, Measurement, sweep_cell, child_env, load_program  # noqa: E402

SETUP_REPEATS = 12
IMPORTTIME_REPEATS = 3
TRACE_MAX_UNITS = {"reference-tables": 6, "closed-form-sweep": 6, "cli-cold": 10}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_WHY = {
    "reference-tables": "all ten paper tables per pass; t4/t5d mounting-hazard quadrature is ~99% of it",
    "closed-form-sweep": "seeded cells through the public solvers, EV, lifespan and p_doom; no quadrature, all per-call overhead",
    "cli-cold": "fresh CLI processes one at a time: interpreter start plus import dominate a one-off query",
}

# (name, unit, better, bound).  One operation is a table pass on
# reference-tables, a cell on closed-form-sweep and a process on cli-cold.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SOLVERS = ("solve_extinction_time", "solve_p3_immediate", "solve_p3_delayed",
           "solve_p4_delayed", "solve_T_delayed", "solve_epsilon_mounting")
OUTCOMES = ("value", "no_tai_preferred", "tai_preferred", "no_solution")
CLOSED_FORMS = ("welfare.welfare_no_takeover", "welfare.welfare_cornucopia",
                "welfare.welfare_truncated")


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("import.numpy_ms", "ms", "lower"), ("import.tai_welfare_self_ms", "ms", "lower")]
    specs += [(f"cli.main_ms.{k}", "ms", "lower") for k in CLI_KINDS]
    specs += [("cli.child_cpu_ms_p50", "ms", "lower"),
              ("config.resolved_c0.calls", "count", "lower"),
              ("config.resolved_c0.us", "us/call", "lower")]
    specs += [(f"tables.emit_table_ms.{t}", "ms", "lower") for t in TABLE_IDS]
    specs += [("tables.solve_cell.calls", "count", "lower")]
    for fn in SOLVERS:
        specs += [(f"solvers.{fn}.calls", "count", "lower"), (f"solvers.{fn}.self_us", "us", "lower")]
    specs += [(f"solvers.outcome.{o}", "count", "higher" if o == "value" else "lower") for o in OUTCOMES]
    specs += [("solvers.solve_epsilon_mounting.bracket_evals", "count", "lower"),
              ("solvers.solve_epsilon_mounting.distinct_frac", "ratio", "higher"),
              ("rootfind.brent.calls", "count", "lower"),
              ("rootfind.brent.iterations", "count", "lower"),
              ("rootfind.brent.self_us", "us", "lower"),
              ("rootfind.expand_bracket.calls", "count", "lower"),
              ("rootfind.expand_bracket.f_evals", "count", "lower"),
              ("welfare.welfare_mounting.calls", "count", "lower"),
              ("welfare.welfare_mounting.self_us", "us", "lower"),
              ("welfare.welfare_mounting.calls_per_epsilon_solve", "ratio", "lower"),
              ("welfare.closed_form.calls", "count", "lower"),
              ("welfare.closed_form.us_per_call", "us/call", "lower"),
              ("quadrature.calls", "count", "lower"),
              ("quadrature.intervals", "count", "lower"),
              ("quadrature.intervals_per_call", "ratio", "lower"),
              ("quadrature.integrand_points", "computed_count", "lower"),
              ("quadrature.self_us", "us", "lower")]
    specs += [(f"compensation.ev_panel.calls.{p}", "count", "lower") for p in "abcd"]
    specs += [("compensation.ev_panel.self_us", "us", "lower"),
              ("hazards.expected_lifespan.calls", "count", "lower"),
              ("hazards.expected_lifespan.us_per_call", "us/call", "lower"),
              ("special.erfcx.calls", "count", "lower"),
              ("special.erfcx.us_per_call", "us/call", "lower"),
              ("special.erfcx.cf_frac", "ratio", "lower"),
              ("growth.simulate.calls", "count", "lower"),
              ("growth.simulate.steps", "count", "lower"),
              ("growth.simulate.us_per_step", "us/step", "lower"),
              ("taxonomy.p_doom.calls", "count", "lower"),
              ("taxonomy.p_doom.us_per_call", "us/call", "lower"),
              ("trace.overhead_frac", "ratio", "lower"),
              ("trace.self_sum_frac", "ratio", "higher"),
              ("failed_frac", "ratio", "lower")]
    return specs


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, derived from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_specs()],
    }


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10 and pct > 50.0:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def environment() -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import tai_welfare; "
    "c0 = tai_welfare.RunConfig().resolved_c0(); "
    "print(repr(time.perf_counter() - t0)); print(repr(c0))"
)


def measure_setup(expected_c0: float) -> list:
    """Seconds, in each of several fresh interpreters, to import tai_welfare and resolve c0."""
    env, times = child_env(ROOT), []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or float(lines[1]) != expected_c0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip() or proc.stdout!r}")
        times.append(float(lines[0]))
    return times


def import_breakdown() -> dict:
    """numpy's cumulative and tai_welfare's own import ms, from python -X importtime."""
    env, numpy_ms, self_ms = child_env(ROOT), [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tai_welfare"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        numpy_us = own_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "numpy":
                numpy_us = int(parts[1])
            elif name == "tai_welfare" or name.startswith("tai_welfare."):
                own_us += int(parts[0].split(":")[1])
        numpy_ms.append(numpy_us / 1000.0)
        self_ms.append(own_us / 1000.0)
    return {"import.numpy_ms": statistics.median(numpy_ms),
            "import.tai_welfare_self_ms": statistics.median(self_ms)}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def make_workload(name: str, prog, seed: int):
    cls = WORKLOADS[name]
    return cls(prog, seed, ROOT) if name == "cli-cold" else cls(prog, seed)


def end_to_end_run(name: str, prog, seed: int, seconds: float) -> tuple[dict, Measurement, list]:
    wl = make_workload(name, prog, seed)
    setups = sorted(measure_setup(prog.config.RunConfig().resolved_c0()))
    setups = setups[:len(setups) // 4]
    m = wl.run_timed(seconds)
    ops = m.quiet()
    pct, tail_s = tail(ops)
    n = len(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(ops) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "throughput_per_s": n / math.fsum(ops),
        "peak_rss_mb": m.peak_rss_mb,
    }
    notes = [f"setup_s is the median of the fastest {len(setups)} of {SETUP_REPEATS} fresh interpreters",
             f"timings come from {n} quiet operations of {len(m.latencies_s)} (NOTES.md)",
             f"latency_tail_ms is p{pct:g} of {n} operations ({n - math.ceil(pct / 100 * n)} beyond it)",
             f"all operations: median {statistics.median(m.latencies_s) * 1000:.6g} ms, "
             f"{len(m.latencies_s) / m.busy_s:.6g} per s"]
    alias = {"reference-tables": f"all_tables_s = {metrics['latency_p50_ms'] / 1000:.4f} "
                                 f"(whole-table pass: {m.extra.get('whole_tables_s', 0):.4f} s)",
             "closed-form-sweep": f"cells_per_s = {metrics['throughput_per_s']:.1f}; cell_us_p50 = "
                                  f"{metrics['latency_p50_ms'] * 1000:.2f}; cell_us_tail = {tail_s * 1e6:.2f} (p{pct:g})",
             "cli-cold": f"cli_ms_p50 = {metrics['latency_p50_ms']:.2f}; cli_ms_tail = "
                         f"{metrics['latency_tail_ms']:.2f} (p{pct:g})"}
    notes.append(alias[name])
    if "child_cpu_s" in m.extra:
        notes.append(f"child CPU ms p50 = {statistics.median(m.extra['child_cpu_s']) * 1000:.1f}")
    return metrics, m, notes


def traced_run(name: str, prog, seed: int, seconds: float) -> tuple[dict, Measurement, list]:
    """Alternate plain and traced units of fixed work; derive the per-layer metrics."""
    wl = make_workload(name, prog, seed)
    tracer = Tracer()
    m = Measurement()
    metrics = import_breakdown()
    child_cpu_ms = 0.0
    if name == "cli-cold":
        runs, cpu = [], []
        for argv in wl.first_round:
            proc, _, used = wl.spawn(argv)
            runs.append((argv, proc))
            cpu.append(used)
        wl.check(runs, m)
        child_cpu_ms = statistics.median(cpu) * 1000.0
    if name == "closed-form-sweep":
        traced_unit = lambda: wl.run_unit(m, tracer.wrap(sweep_cell, "bench.cell"))
    else:
        traced_unit = lambda: wl.run_unit(m)
    wl.run_unit(Measurement())  # warm-up, not reported
    plain, traced, bounds = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and len(traced) < TRACE_MAX_UNITS[name] or not traced:
        # alternate which side of each pair runs first
        for side in ("plain", "traced") if len(traced) % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                t0 = time.perf_counter()
                wl.run_unit(m)
                plain.append(time.perf_counter() - t0)
                continue
            tracer.install()
            first = len(tracer.spans)
            t0 = time.perf_counter()
            traced_unit()
            traced.append(time.perf_counter() - t0)
            tracer.uninstall()
            bounds.append((first, len(tracer.spans)))
    metrics.update(derive(tracer.spans, bounds))
    metrics["cli.child_cpu_ms_p50"] = child_cpu_ms
    metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    self_total = sum(e - s - c for _, _, s, e, c, _ in tracer.spans)
    metrics["trace.self_sum_frac"] = self_total / 1e9 / sum(traced)
    metrics["failed_frac"] = m.failed / max(m.attempted, 1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{name}-seed{seed}.tsv"
    tracer.write(span_file)
    notes = [f"{len(traced)} traced and {len(plain)} plain units; counts and self times are per unit",
             f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}",
             "layer self ms per unit: " + ", ".join(
                 f"{k}={v:.2f}" for k, v in layer_self_ms(tracer.spans, len(bounds)).items())]
    if tracer.missing:
        notes.append("not found in the program, so not traced: " + ", ".join(tracer.missing))
    return metrics, m, notes


def layer_self_ms(spans: list, units: int) -> dict:
    totals = defaultdict(int)
    for name, _, s, e, c, _ in spans:
        totals[name.split(".", 1)[0]] += e - s - c
    return {k: v / 1e6 / units for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def derive(spans: list, bounds: list) -> dict:
    """Per-layer metrics, per unit of work, from the spans of the traced units."""
    units = len(bounds)
    calls, self_ns, notes = Counter(), Counter(), defaultdict(list)
    for name, _, s, e, c, note in spans:
        calls[name] += 1
        self_ns[name] += e - s - c
        if note is not None:
            notes[name].append(note)

    def per_unit(x):
        return x / units

    def us_per_call(names):
        n = sum(calls[k] for k in names)
        return sum(self_ns[k] for k in names) / 1000.0 / n if n else 0.0

    def inside(i, target):
        while i >= 0:
            if spans[i][0] == target:
                return True
            i = spans[i][1]
        return False

    out = {}
    for k in CLI_KINDS:
        ms = [(e - s) / 1e6 for name, _, s, e, _, note in spans if name == "cli.main" and note == k]
        out[f"cli.main_ms.{k}"] = statistics.median(ms) if ms else 0.0
    out["config.resolved_c0.calls"] = per_unit(calls["config.RunConfig.resolved_c0"])
    out["config.resolved_c0.us"] = us_per_call(["config.RunConfig.resolved_c0"])
    for t in TABLE_IDS:
        ms = [(e - s) / 1e6 for name, _, s, e, _, note in spans if name == "tables.emit_table" and note == t]
        out[f"tables.emit_table_ms.{t}"] = statistics.median(ms) if ms else 0.0
    out["tables.solve_cell.calls"] = per_unit(calls["tables.solve_cell"])
    tags = Counter()
    for fn in SOLVERS:
        out[f"solvers.{fn}.calls"] = per_unit(calls[f"solvers.{fn}"])
        out[f"solvers.{fn}.self_us"] = per_unit(self_ns[f"solvers.{fn}"] / 1000.0)
        tags.update(n[0] if isinstance(n, tuple) else n for n in notes[f"solvers.{fn}"])
    for o in OUTCOMES:
        out[f"solvers.outcome.{o}"] = per_unit(tags[o])
    eps, wm = "solvers.solve_epsilon_mounting", "welfare.welfare_mounting"
    out[f"{eps}.bracket_evals"] = per_unit(sum(
        1 for name, parent, *_ in spans if name == wm and parent >= 0 and spans[parent][0] == eps))
    fracs = []
    for first, last in bounds:
        keys = [note[1:] for name, _, _, _, _, note in spans[first:last] if name == eps]
        if keys:
            fracs.append(len(set(keys)) / len(keys))
    out[f"{eps}.distinct_frac"] = statistics.fmean(fracs) if fracs else 0.0
    out["rootfind.brent.calls"] = per_unit(calls["rootfind.brent"])
    out["rootfind.brent.iterations"] = per_unit(sum(notes["rootfind.brent"]))
    out["rootfind.brent.self_us"] = per_unit(self_ns["rootfind.brent"] / 1000.0)
    out["rootfind.expand_bracket.calls"] = per_unit(calls["rootfind.expand_bracket"])
    out["rootfind.expand_bracket.f_evals"] = per_unit(sum(notes["rootfind.expand_bracket"]))
    out[f"{wm}.calls"] = per_unit(calls[wm])
    out[f"{wm}.self_us"] = per_unit(self_ns[wm] / 1000.0)
    in_eps = sum(1 for sp in spans if sp[0] == wm and inside(sp[1], eps))
    out[f"{wm}.calls_per_epsilon_solve"] = in_eps / calls[eps] if calls[eps] else 0.0
    out["welfare.closed_form.calls"] = per_unit(sum(calls[k] for k in CLOSED_FORMS))
    out["welfare.closed_form.us_per_call"] = us_per_call(CLOSED_FORMS)
    quad = [sp for sp in spans if sp[0].startswith("quadrature.")]
    top = [sp for sp in quad if sp[1] < 0 or not spans[sp[1]][0].startswith("quadrature.")]
    intervals = sum(sp[5] or 0 for sp in top)
    panels = sum(2 * sp[5] - 1 for sp in quad if sp[0] == "quadrature.integrate_finite" and sp[5])
    out["quadrature.calls"] = per_unit(len(top))
    out["quadrature.intervals"] = per_unit(intervals)
    out["quadrature.intervals_per_call"] = intervals / len(top) if top else 0.0
    out["quadrature.integrand_points"] = per_unit(15 * panels)
    out["quadrature.self_us"] = per_unit(sum(sp[3] - sp[2] - sp[4] for sp in quad) / 1000.0)
    panel_calls = Counter(notes["compensation.ev_panel"])
    for p in "abcd":
        out[f"compensation.ev_panel.calls.{p}"] = per_unit(panel_calls[p])
    out["compensation.ev_panel.self_us"] = per_unit(self_ns["compensation.ev_panel"] / 1000.0)
    out["hazards.expected_lifespan.calls"] = per_unit(calls["hazards.expected_lifespan"])
    out["hazards.expected_lifespan.us_per_call"] = us_per_call(["hazards.expected_lifespan"])
    out["special.erfcx.calls"] = per_unit(calls["special.erfcx"])
    out["special.erfcx.us_per_call"] = us_per_call(["special.erfcx"])
    cf = notes["special.erfcx"]
    out["special.erfcx.cf_frac"] = sum(cf) / len(cf) if cf else 0.0
    steps = sum(notes["growth.simulate"])
    out["growth.simulate.calls"] = per_unit(calls["growth.simulate"])
    out["growth.simulate.steps"] = per_unit(steps)
    out["growth.simulate.us_per_step"] = self_ns["growth.simulate"] / 1000.0 / steps if steps else 0.0
    out["taxonomy.p_doom.calls"] = per_unit(calls["taxonomy.p_doom"])
    out["taxonomy.p_doom.us_per_call"] = us_per_call(["taxonomy.p_doom"])
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prog = load_program(ROOT)
    except (ImportError, OSError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True))
    run = traced_run if args.trace else end_to_end_run
    metrics, m, notes = run(args.workload, prog, args.seed, args.seconds)
    specs = per_layer_specs() if args.trace else [s[:3] for s in END_TO_END]
    units = {name: unit for name, unit, _ in specs}
    for name, _, _ in specs:
        print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    for failure in m.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
