"""In-memory span tracer that wraps tai_welfare's public functions.

Modules bind names with ``from .x import y``, so patching only the defining
module would miss every internal call.  ``Tracer.install`` therefore finds
each instrumented function object by identity in *every* loaded
``tai_welfare`` module namespace (the callers) and replaces it there with one
shared wrapper; ``uninstall`` puts the originals back.

A span is ``[name, parent, start_ns, end_ns, child_ns, note]``.  ``parent``
is the index of the enclosing span (-1 at top level) and ``child_ns`` the
time covered by direct children, so self time is
``end_ns - start_ns - child_ns``.  ``note`` holds one small fact taken from
the call (an outcome tag, an iteration or interval count, a panel letter).
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, note kind).  A method is given as "Class.method".
# Functions missing from the program are skipped and reported, so the
# traced run keeps working while the package is refactored.
INSTRUMENTED = (
    ("cli", "main", "argv0"),
    ("config", "RunConfig.resolved_c0", None),
    ("tables", "emit_table", "table_id"),
    ("tables", "solve_cell", None),
    ("solvers", "solve_extinction_time", "tag"),
    ("solvers", "solve_p3_immediate", "tag"),
    ("solvers", "solve_p3_delayed", "tag"),
    ("solvers", "solve_p4_delayed", "tag"),
    ("solvers", "solve_T_delayed", "tag"),
    ("solvers", "solve_epsilon_mounting", "tag_and_input"),
    ("rootfind", "brent", "iterations"),
    ("rootfind", "expand_bracket", "f_evals"),
    ("welfare", "welfare_mounting", None),
    ("welfare", "welfare_no_takeover", None),
    ("welfare", "welfare_cornucopia", None),
    ("welfare", "welfare_truncated", None),
    ("quadrature", "integrate_transformed", "intervals"),
    ("quadrature", "integrate_finite", "intervals"),
    ("compensation", "ev_panel", "panel"),
    ("hazards", "expected_lifespan", None),
    ("special", "erfcx", "cf_branch"),
    ("growth", "simulate", "steps"),
    ("growth", "trajectory_csv", None),
    ("taxonomy", "p_doom", None),
    ("taxonomy", "leaf_distribution", None),
)

ERFCX_CF_CUTOFF = 2.5  # special.erfcx switches to the continued fraction here


def _note(kind, args, kwargs, result, counter):
    if kind == "table_id":
        return getattr(args[0], "table_id", None)
    if kind == "tag":
        return getattr(result, "tag", None)
    if kind == "tag_and_input":
        return (getattr(result, "tag", None), args, tuple(sorted(kwargs.items())))
    if kind == "iterations":
        return getattr(result, "iterations", 0)
    if kind == "intervals":
        return getattr(result, "intervals", 0)
    if kind == "f_evals":
        return counter[0]
    if kind == "panel":
        return args[1] if len(args) > 1 else kwargs.get("panel")
    if kind == "cf_branch":
        return float(args[0]) >= ERFCX_CF_CUTOFF
    if kind == "steps":
        return len(result.times) - 1
    if kind == "argv0":
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else None
    return None


class Tracer:
    """Records spans for calls into the instrumented functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, kind=None):
        """Return fn wrapped so that each call records one span called name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            counter = None
            if kind == "f_evals":
                counter = [0]
                f = args[0]

                def counted(x):
                    counter[0] += 1
                    return f(x)

                args = (counted,) + args[1:]
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[3] = end
                if parent >= 0:
                    spans[parent][4] += end - rec[2]
            if kind is not None:
                rec[5] = _note(kind, args, kwargs, result, counter)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every binding of each instrumented function with a wrapper.

        Untraced runs must call the program unpatched, so callers pair this
        with ``uninstall`` around each traced stretch of work.
        """
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "tai_welfare" or n.startswith("tai_welfare."))
        ]
        for mod_name, attr, kind in INSTRUMENTED:
            try:
                module = importlib.import_module(f"tai_welfare.{mod_name}")
            except ImportError:
                self._note_missing(f"{mod_name}.{attr}")
                continue
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                fn = getattr(cls, method, None) if cls is not None else None
                if fn is None:
                    self._note_missing(f"{mod_name}.{attr}")
                    continue
                self._restore.append((cls, method, fn))
                setattr(cls, method, self.wrap(fn, f"{mod_name}.{attr}", kind))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self._note_missing(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(fn, f"{mod_name}.{attr}", kind)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._restore.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: id parent name start end self note."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\tnote\n")
            for i, (name, parent, start, end, child, note) in enumerate(self.spans):
                if isinstance(note, tuple):
                    note = note[0]
                out.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{end - start - child}\t{note}\n")
