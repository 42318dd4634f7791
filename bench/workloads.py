"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload is a closed loop with one client.  ``run_timed`` measures for
a given number of seconds and returns per-operation latencies grouped in
windows of about equal work (a pass of one-cell tables, a batch of 1,000
cells of a fixed mix, one process); ``run_unit`` runs one fixed unit of
work, the same for every call with the same seed, which the traced run
repeats.  Output checks always run outside the timed
region, and a failed check counts as a failed operation without stopping
the run.  See NOTES.md for why these three workloads were chosen.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import importlib
import io
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
TABLE_IDS = ("t1", "t2", "t3a", "t3b", "t3c", "t4", "t5a", "t5b", "t5c", "t5d")
DEFAULT_SEED = 0
QUIET_S = 0.15  # timings come from the run's fastest 0.15 s of equal-work windows


def load_program(root: Path):
    """Import tai_welfare from root/src and return its modules as attributes."""
    src = root / "src"
    if not (src / "tai_welfare" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tai_welfare package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("tai_welfare")
    if Path(pkg.__file__).resolve().parent != (src / "tai_welfare").resolve():
        raise ImportError(f"tai_welfare was imported from {pkg.__file__}, not {src}")
    names = ("cli", "compensation", "config", "hazards", "preferences", "solvers",
             "tables", "taxonomy", "welfare")
    return type("Program", (), {n: importlib.import_module(f"tai_welfare.{n}") for n in names})


def child_env(root: Path) -> dict:
    """The caller's environment with root/src first on PYTHONPATH; nothing else is set."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fmt6(x: float) -> str:
    """Six significant digits, scientific below 1e-3: the tables' number format."""
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.5e}"
    return f"{x:.6g}"


@dataclass
class Measurement:
    # compact: a sweep records over a million samples
    latencies_s: array.array = field(default_factory=lambda: array.array("d"))
    busy_s: float = 0.0
    attempted: int = 0
    # (wall seconds, first op, end op) of each fixed-work window of the run
    windows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    peak_rss_mb: float = 0.0
    extra: dict = field(default_factory=dict)
    quiet_s: list | None = None  # set by a workload that has its own quiet rule

    def window(self, wall_s: float, first_op: int) -> None:
        if not self.windows:
            # Read once the program has done one window of work, before the
            # harness's own samples (which grow with the run, and so with the
            # program's speed) can reach the high-water mark.
            self.peak_rss_mb = _self_rss_mb()
        self.windows.append((wall_s, first_op, len(self.latencies_s)))
        self.busy_s += wall_s

    def quiet(self) -> list:
        """Latencies of the operations in the run's quietest stretch.

        The host's other tenants slow every process by up to ~2x, in bursts
        of seconds and phases of minutes, with quiet gaps of tens of ms in
        between, so a run's plain median mostly measures them.  Like a
        best-of-N timing, the run's fastest windows that together hold
        QUIET_S of work (at least one window) are the part they disturbed
        least, and they repeat from run to run far better than the median.
        """
        if self.quiet_s is not None:
            return self.quiet_s
        ops, total = [], 0.0
        for wall, first, end in sorted(self.windows):
            ops.extend(self.latencies_s[first:end])
            total += wall
            if total >= QUIET_S:
                break
        return ops

    def fail(self, op, what: str) -> None:
        """Record that operation op (any hashable id) failed, and why."""
        self.failed_ops.add(op)
        self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# reference-tables
# ---------------------------------------------------------------------------


class ReferenceTables:
    """All ten reference tables at the paper's grids, pass after pass.

    The timed passes emit every table one cell at a time: ``emit_table`` on a
    one-point grid (g_ai, theta, rho) of that table's own grid, so that each
    timing lasts 0.05-25 ms, short enough to find the host's quiet moments
    (NOTES.md).  One operation is a pass over all 320 cells; the seed only
    permutes the table order of each pass.  Each one-cell table must equal
    its header column, row label and cell of the golden CSV, and every run
    also emits the ten whole tables, which must equal the golden CSVs byte
    for byte.  The traced unit is a pass of whole tables.
    """

    name = "reference-tables"

    def __init__(self, prog, seed: int, golden: dict | None = None) -> None:
        self.prog = prog
        self.rng = random.Random(seed)
        self.golden = golden if golden is not None else {
            tid: (GOLDEN_DIR / f"{tid}.csv").read_text(encoding="utf-8") for tid in TABLE_IDS
        }
        self.config = prog.config.RunConfig()
        self.cells = {tid: self._cells(tid) for tid in TABLE_IDS}

    def _cells(self, tid: str) -> list:
        """(config, expected one-cell CSV) for every cell of one table, row-major."""
        spec = self.prog.tables.table_spec(tid, self.config)
        header, *rows = [line.split(",") for line in self.golden[tid].splitlines()]
        cells = []
        for g_ai, row in zip(spec.g_ai_grid, rows):
            columns = ((theta, rho) for theta in spec.theta_set for rho in spec.rho_grid)
            for j, (theta, rho) in enumerate(columns, start=1):
                config = dataclasses.replace(
                    self.config, g_ai_grid=(g_ai,), theta_set=(theta,), rho_grid=(rho,))
                cells.append((config, f"{header[0]},{header[j]}\n{row[0]},{row[j]}\n"))
        return cells

    def _emit(self, tid: str, config, expected: str, m: Measurement, what: str) -> float:
        """Emit one table, check it, and return the seconds emit_table took."""
        tables = self.prog.tables
        op = m.attempted
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            text = tables.emit_table(tables.table_spec(tid, config), config)
        except Exception as exc:  # a crashing table is a failed operation
            m.fail(op, f"{what}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        if text != expected:
            m.fail(op, f"{what}: output differs from golden/{tid}.csv")
        return elapsed

    def _cell_pass(self, m: Measurement, best: dict) -> float:
        total = 0.0
        for tid in self.rng.sample(TABLE_IDS, len(TABLE_IDS)):
            for i, (config, expected) in enumerate(self.cells[tid]):
                dt = self._emit(tid, config, expected, m, f"{tid} cell {i}")
                total += dt
                best[tid, i] = min(dt, best.get((tid, i), dt))
        return total

    def run_timed(self, seconds: float) -> Measurement:
        m, best = Measurement(), {}
        while m.busy_s < seconds or not m.latencies_s:
            dt = self._cell_pass(m, best)
            m.latencies_s.append(dt)
            m.window(dt, len(m.latencies_s) - 1)
        # a pass is only as quiet as its cells: sum each cell's best time
        m.quiet_s = [math.fsum(best.values())]
        m.extra["whole_tables_s"] = self.run_unit(m)
        return m

    def run_unit(self, m: Measurement) -> float:
        """One pass of the ten whole tables, each checked byte for byte."""
        order = self.rng.sample(TABLE_IDS, len(TABLE_IDS))
        return sum(self._emit(t, self.config, self.golden[t], m, t) for t in order)


# ---------------------------------------------------------------------------
# closed-form-sweep
# ---------------------------------------------------------------------------

SWEEP_KINDS = (
    "extinction_time", "p3_immediate", "p3_delayed", "p4_delayed", "T_delayed",
    "ev_a", "ev_b", "ev_c", "expected_lifespan", "p_doom",
)
SOLVER_KINDS = SWEEP_KINDS[:5]
ROUNDS_PER_BATCH = 100  # one round is one cell of every kind, in seeded order
SPOT_CHECKS_PER_KIND = 10
EV_ROUNDING = 1e-12
SWEEP_GOLDEN = GOLDEN_DIR / f"sweep_seed{DEFAULT_SEED}.txt"


def _draw(rng: random.Random, kind: str) -> dict:
    theta = rng.choice((1.0, 1.0001, None))
    p = {
        "theta": rng.uniform(1.0, 3.0) if theta is None else theta,
        "g_ai": rng.uniform(0.02, 0.5),
        "rho": rng.uniform(0.001, 0.08),
        "p3": rng.random(),
        "p4": 1.0 - rng.random(),  # (0, 1]: solving for T needs p4 > 0
        "T": rng.uniform(1.0, 500.0),
    }
    if kind.startswith("ev_"):
        p["theta"] = 1.0  # the EV identity holds for log utility only
    elif kind == "expected_lifespan":
        p["epsilon"] = 10.0 ** rng.uniform(-6.0, -1.0)
    elif kind == "p_doom":
        p["p1"], p["p2"] = rng.random(), rng.random()
    return p


def sweep_cell(prog, config, kind: str, p: dict):
    """One cell as a library user writes it; names resolve at call time."""
    if kind == "p_doom":
        tx = prog.taxonomy
        return tx.p_doom(tx.TaxonomyProbs(p1=p["p1"], p2=p["p2"], p3=p["p3"], p4=p["p4"]))
    if kind == "expected_lifespan":
        hz = prog.hazards
        path = hz.ExponentialPath(c0=config.resolved_c0(), growth=p["g_ai"])
        return hz.expected_lifespan(hz.MountingLogHazard(p["epsilon"], path))
    spec = prog.welfare.ScenarioSpec(
        c0=config.resolved_c0(),
        g_ai=p["g_ai"],
        g_baseline=config.g_baseline,
        prefs=prog.preferences.Preferences(rho=p["rho"], theta_rra=p["theta"]),
    )
    sv = prog.solvers
    if kind == "extinction_time":
        return sv.solve_extinction_time(spec)
    if kind == "p3_immediate":
        return sv.solve_p3_immediate(spec)
    if kind == "p3_delayed":
        return sv.solve_p3_delayed(spec, p4=p["p4"], T=p["T"])
    if kind == "p4_delayed":
        return sv.solve_p4_delayed(spec, p3=p["p3"], T=p["T"])
    if kind == "T_delayed":
        return sv.solve_T_delayed(spec, p3=p["p3"], p4=p["p4"])
    return prog.compensation.ev_panel(spec, kind[-1], T=p["T"], p3=p["p3"], p4=p["p4"])


def describe(kind: str, result) -> str:
    """The formatted output of one cell, as compared against the golden file."""
    if kind in SOLVER_KINDS:
        return fmt6(result.value) if result.tag == "value" else result.tag
    if kind.startswith("ev_"):
        return fmt6(result.ev)
    return fmt6(result)


def domain_error(kind: str, result) -> str | None:
    """Why a cell's output is outside its domain, or None when it is fine."""
    if kind in SOLVER_KINDS:
        if result.tag not in ("value", "no_tai_preferred", "tai_preferred", "no_solution"):
            return f"unknown outcome {result.tag!r}"
        if result.tag != "value":
            return None
        x = result.value
        if not math.isfinite(x):
            return f"non-finite threshold {x!r}"
        if kind in ("extinction_time", "T_delayed"):
            return None if x >= 0.0 else f"negative time {x!r}"
        return None if 0.0 <= x <= 1.0 else f"probability {x!r} outside [0, 1]"
    if kind.startswith("ev_"):
        # EV = exp(-(W_c - W_risky) r); when the risky path is nearly the
        # cornucopia the difference is rounding noise, so allow EV a few ulps
        # of the welfare values above 1.
        ok = 0.0 < result.ev and result.log_ev <= EV_ROUNDING and math.isfinite(result.log_ev)
        return None if ok else f"EV {result.ev!r} outside (0, 1]"
    if kind == "expected_lifespan":
        return None if 0.0 < result < math.inf else f"lifespan {result!r} not finite and > 0"
    return None if 0.0 <= result <= 1.0 else f"p_doom {result!r} outside [0, 1]"


class ClosedFormSweep:
    """Seeded random cells through the public solver, EV, lifespan and p_doom calls.

    One operation is one cell.  Cells come in batches of ROUNDS_PER_BATCH
    rounds, each round one cell of every kind in seeded order, so every seed
    has the same mix of kinds and every cell in a run is distinct.
    """

    name = "closed-form-sweep"

    def __init__(self, prog, seed: int, golden: list | None = None) -> None:
        self.prog = prog
        self.rng = random.Random(seed)
        self.config = prog.config.RunConfig()
        if golden is None and seed == DEFAULT_SEED:
            golden = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
        self.golden = golden
        self.first_batch = self._batch()
        self.first_results: list = []

    def _batch(self) -> list:
        cells = []
        for _ in range(ROUNDS_PER_BATCH):
            kinds = list(SWEEP_KINDS)
            self.rng.shuffle(kinds)
            cells.extend((k, _draw(self.rng, k)) for k in kinds)
        return cells

    def _evaluate(self, cells: list, m: Measurement, cell_fn=None) -> tuple[list, float]:
        prog, config = self.prog, self.config
        cell_fn = cell_fn or sweep_cell
        clock = time.perf_counter
        results, latencies = [], m.latencies_s
        start = clock()
        for kind, p in cells:
            t0 = clock()
            try:
                out = cell_fn(prog, config, kind, p)
            except Exception as exc:  # a crashing cell is a failed operation
                out = exc
            latencies.append(clock() - t0)
            results.append(out)
        return results, clock() - start

    def _check(self, cells: list, results: list, m: Measurement) -> None:
        base = m.attempted
        m.attempted += len(cells)
        for i, ((kind, _), out) in enumerate(zip(cells, results)):
            if isinstance(out, Exception):
                m.fail(base + i, f"cell {base + i} {kind}: {type(out).__name__}: {out}")
                continue
            why = domain_error(kind, out)
            if why:
                m.fail(base + i, f"cell {base + i} {kind}: {why}")

    def _check_first_batch(self, m: Measurement) -> None:
        from oracle import check_outcome

        results = self.first_results
        if self.golden is not None:
            for i, ((kind, _), out) in enumerate(zip(self.first_batch, results)):
                line = f"{kind},{out if isinstance(out, Exception) else describe(kind, out)}"
                if i >= len(self.golden) or line != self.golden[i]:
                    m.fail(i, f"cell {i}: {line!r} differs from {SWEEP_GOLDEN.name}")
        checked = dict.fromkeys(SOLVER_KINDS, 0)
        c0, g_base = self.config.resolved_c0(), self.config.g_baseline
        for i, ((kind, p), out) in enumerate(zip(self.first_batch, results)):
            if checked.get(kind, SPOT_CHECKS_PER_KIND) >= SPOT_CHECKS_PER_KIND:
                continue
            checked[kind] += 1
            if not isinstance(out, Exception):
                why = check_outcome(kind, p, c0, g_base, out.tag, out.value)
                if why:
                    m.fail(i, f"cell {i} {kind}: mpmath spot check: {why}")
        m.extra["spot_checks"] = sum(checked.values())

    def run_timed(self, seconds: float) -> Measurement:
        m = Measurement()
        cells = self.first_batch
        while True:
            first_op = len(m.latencies_s)
            results, dt = self._evaluate(cells, m)
            m.window(dt, first_op)
            if not self.first_results:
                self.first_results = results
            self._check(cells, results, m)
            if m.busy_s >= seconds:
                break
            cells = self._batch()
        self._check_first_batch(m)
        return m

    def run_unit(self, m: Measurement, cell_fn=None) -> None:
        results, _ = self._evaluate(self.first_batch, m, cell_fn)
        self._check(self.first_batch, results, m)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_KINDS = ("pdoom", "calibrate-c0", "table", "solve", "et", "ev", "simulate-growth")
SOLVE_TARGETS = ("extinction-time", "p3-immediate", "p3-delayed", "p4-delayed", "T-delayed")


def _cli_argv(rng: random.Random, kind: str) -> list:
    r = lambda lo, hi: repr(rng.uniform(lo, hi))
    if kind == "pdoom":
        return ["pdoom", "--p1", r(0, 1), "--p2", r(0, 1), "--p3", r(0, 1), "--p4", r(0, 1)]
    if kind == "calibrate-c0":
        return ["calibrate-c0", "--target", r(0.01, 0.5)]
    if kind == "table":
        return ["table", "t2"]
    if kind == "solve":
        theta = rng.choice(("1", "1.0001", r(1, 3)))
        return ["solve", "--target", rng.choice(SOLVE_TARGETS), "--theta", theta,
                "--g-ai", r(0.02, 0.5), "--rho", r(0.001, 0.08),
                "--p3", r(0, 0.99), "--p4", r(0.01, 1), "--T", r(1, 500)]
    if kind == "et":
        hazard = rng.choice(("zero", "constant", "one-off", "mounting"))
        argv = ["et", "--hazard", hazard]
        if hazard == "constant":
            argv += ["--m", r(0.001, 0.1)]
        elif hazard == "one-off":
            argv += ["--t-ext", r(1, 500)]
        elif hazard == "mounting":
            argv += ["--epsilon", repr(10.0 ** rng.uniform(-6, -1)), "--g-ai", r(0.02, 0.5)]
            if rng.random() < 0.5:
                argv.append("--normalized")
        return argv
    if kind == "ev":
        return ["ev", "--panel", rng.choice("abc"), "--g-ai", r(0.02, 0.5),
                "--rho", r(0.001, 0.08), "--p3", r(0, 1), "--p4", r(0, 1), "--T", r(1, 500)]
    regime = rng.choice(("full_automation", "bottlenecked"))
    return ["simulate-growth", "--regime", regime, "--horizon", r(50, 300),
            "--dt", rng.choice(("0.1", "0.2", "0.5"))]


def _csv_columns_consistent(text: str) -> bool:
    counts = {line.count(",") for line in text.splitlines() if line and not line.startswith("#")}
    return len(counts) == 1


def check_cli_output(argv: list, returncode: int, stdout: str, stderr: str, expected: str | None) -> str | None:
    """Why one CLI invocation failed, or None when it passed."""
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if not stdout or not _csv_columns_consistent(stdout):
        return "inconsistent CSV column count"
    if expected is not None and stdout != expected:
        return "stdout differs from the in-process result"
    return None


class CliCold:
    """Fresh ``python -m tai_welfare.cli`` processes, one at a time.

    One operation is one process, timed from spawn to exit.  Processes come
    in rounds of one per subcommand kind, in seeded order with seeded flags.
    """

    name = "cli-cold"

    def __init__(self, prog, seed: int, root: Path) -> None:
        self.prog = prog
        self.rng = random.Random(seed)
        self.root = root
        self.env = child_env(root)
        self.first_round = self._round()
        self.golden_t2 = (GOLDEN_DIR / "t2.csv").read_text(encoding="utf-8")

    def _round(self) -> list:
        kinds = list(CLI_KINDS)
        self.rng.shuffle(kinds)
        return [_cli_argv(self.rng, k) for k in kinds]

    def spawn(self, argv: list) -> tuple:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tai_welfare.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return proc, wall, cpu

    def in_process(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.prog.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def expected(self, argv: list) -> str | None:
        if argv == ["table", "t2"]:
            return self.golden_t2
        code, out, _ = self.in_process(argv)
        return out if code == 0 else None

    def check(self, runs: list, m: Measurement) -> None:
        for argv, proc in runs:
            op = m.attempted
            m.attempted += 1
            why = check_cli_output(argv, proc.returncode, proc.stdout, proc.stderr,
                                   self.expected(argv))
            if why:
                m.fail(op, f"{' '.join(argv)}: {why}")

    def run_timed(self, seconds: float) -> Measurement:
        m = Measurement()
        self.spawn(["calibrate-c0"])  # warm the file cache; not timed
        runs, cpu = [], []
        argvs = self.first_round
        while True:
            for argv in argvs:
                proc, wall, used = self.spawn(argv)
                m.latencies_s.append(wall)
                m.window(wall, len(m.latencies_s) - 1)
                cpu.append(used)
                runs.append((argv, proc))
            if m.busy_s >= seconds:
                break
            argvs = self._round()
        m.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        m.extra["child_cpu_s"] = cpu
        self.check(runs, m)
        return m

    def run_unit(self, m: Measurement) -> None:
        """One round in process through cli.main; outputs checked as for children."""
        for argv in self.first_round:
            op = m.attempted
            m.attempted += 1
            code, out, err = self.in_process(argv)
            expected = self.golden_t2 if argv == ["table", "t2"] else None
            why = check_cli_output(argv, code, out, err, expected)
            if why:
                m.fail(op, f"{' '.join(argv)}: {why}")


WORKLOADS = {w.name: w for w in (ReferenceTables, ClosedFormSweep, CliCold)}
