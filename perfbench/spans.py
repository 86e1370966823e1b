"""Spans around the public functions of each `cospde` module, for the traced run.

`Tracer.install` wraps each function in TARGETS and rebinds every
module-level name that refers to it, in every `cospde` module and in the
benchmark's own modules, so calls made through `from .x import f` go through
the wrapper too.  The `AtomSum` constructor is wrapped on the class.  Spans
stay in memory (name, start, end, parent, time covered by children, two
integer attributes) until `write` is called at the end of the run.

A span's self time is its duration minus the time its child spans cover.
Calls are nested and single-threaded, so children never overlap.
"""

import contextlib
import gzip
import sys
import time
from array import array
from collections import Counter

import scipy.sparse.linalg  # noqa: F401  (a TARGETS owner)

import cospde

ROOT_SPAN = "op"

# (module, attribute, span name)
TARGETS = (
    ("cospde.atoms", "prune", "atoms.prune"),
    ("cospde.atoms", "to_text", "atoms.to_text"),
    ("cospde.calculus", "product", "calculus.product"),
    ("cospde.calculus", "apply_elliptic", "calculus.apply_elliptic"),
    ("cospde.calculus", "precondition", "calculus.precondition"),
    ("cospde.solver", "solve", "solver.solve"),
    ("cospde.solver", "step", "solver.step"),
    ("cospde.oracle", "galerkin_solve", "oracle.galerkin_solve"),
    ("cospde.oracle", "h1_distance", "oracle.h1_distance"),
    ("cospde.oracle", "ellipticity_probe", "oracle.ellipticity_probe"),
    ("cospde.sampler", "sample_network", "sampler.sample_network"),
    ("cospde.sampler", "h1_error_exact", "sampler.h1_error_exact"),
    ("cospde.problemfile", "parse_problem_file", "problemfile.parse"),
    # the oracle reaches these as scipy.sparse.linalg.<name> at call time
    ("scipy.sparse.linalg", "spsolve", "oracle.linear_solve"),
    ("scipy.sparse.linalg", "cg", "oracle.linear_solve"),
)
CANONICALIZE = "atoms.canonicalize"


def _count(name, args, result):
    """The count a finished span records in n1 (the constructor also fills n2)."""
    if name == "calculus.product":
        return result.atom_count
    if name == "oracle.linear_solve":
        return len(args[1])  # the right-hand side: one entry per unknown
    if name == "solver.solve":
        return len(result.state.ledger)
    return 0


LEDGER_VIOLATION = 2


def _failure_code(exc):
    """0 for no exception, LEDGER_VIOLATION for a ledger violation, 1 otherwise."""
    if exc is None:
        return 0
    return LEDGER_VIOLATION if isinstance(exc, cospde.LedgerViolationError) else 1


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.child = array("d")
        self.n1 = array("q")
        self.n2 = array("q")
        self.failed = array("b")
        self.paused = False
        self._stack = []
        self._undo = []

    # -- recording -------------------------------------------------------
    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self.n1.append(0)
        self.n2.append(0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, failed=0):
        end = time.perf_counter()
        self.end[idx] = end
        self._stack.pop()
        self.failed[idx] = failed
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += end - self.start[idx]

    @contextlib.contextmanager
    def root(self, label):
        """Span around one workload operation; every other span must sit under one."""
        idx = self.open(self._intern(f"{ROOT_SPAN}:{label}"))
        try:
            yield
        except BaseException as exc:
            self.close(idx, _failure_code(exc))
            raise
        self.close(idx)

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside run unrecorded (the benchmark's own output checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        name_id = self._intern(name)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, _failure_code(exc))
                raise
            tracer.close(idx)
            tracer.n1[idx] = _count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_constructor(self):
        tracer = self
        name_id = self._intern(CANONICALIZE)
        original = cospde.AtomSum.__init__

        def __init__(obj, dimension, torus_mode, amps, freqs, phases):
            if tracer.paused:
                return original(obj, dimension, torus_mode, amps, freqs, phases)
            idx = tracer.open(name_id)
            try:
                original(obj, dimension, torus_mode, amps, freqs, phases)
            except BaseException as exc:
                tracer.close(idx, _failure_code(exc))
                raise
            tracer.close(idx)
            tracer.n1[idx] = len(amps)
            tracer.n2[idx] = obj.atom_count

        cospde.AtomSum.__init__ = __init__
        self._undo.append((cospde.AtomSum, "__init__", original))

    def install(self, extra_modules=()):
        """Wrap every target and rebind each module-level name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cospde" or n.startswith("cospde."))]
        modules.extend(extra_modules)
        for module_name, attr, span_name in TARGETS:
            owner = sys.modules[module_name]
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for module in [owner] + modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        self._wrap_constructor()

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reading ---------------------------------------------------------
    def __len__(self):
        return len(self.start)

    def span_name(self, idx):
        return self.names[self.name_id[idx]]

    def roots(self):
        """Indices of the workload-operation spans, in order."""
        return [i for i in range(len(self)) if self.parent[i] < 0]

    def write(self, path):
        """All spans, one CSV line each: id, name, start, end, parent, self_s, n1, n2, failed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,name,start_s,end_s,parent,self_s,n1,n2,failed\n")
            t0 = self.start[0] if len(self) else 0.0
            for i in range(len(self)):
                dur = self.end[i] - self.start[i]
                out.write(
                    f"{i},{self.span_name(i)},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{dur - self.child[i]:.9f},{self.n1[i]},{self.n2[i]},"
                    f"{self.failed[i]}\n"
                )


def _under(tracer, ancestor):
    """Per span: whether a span named `ancestor` encloses it."""
    flags = bytearray(len(tracer))
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0 and (flags[p] or tracer.span_name(p) == ancestor):
            flags[i] = 1
    return flags


def pass_totals(tracer, pass_of_root):
    """Per pass: Counter of per-layer totals from the spans under its roots.

    `pass_of_root` maps each root span index to the pass it belongs to.
    """
    pass_of = array("i", [-1]) * len(tracer)
    galerkin = _under(tracer, "oracle.galerkin_solve")
    totals = {}
    for i in range(len(tracer)):
        p = tracer.parent[i]
        pass_of[i] = pass_of_root[i] if p < 0 else pass_of[p]
        t = totals.setdefault(pass_of[i], Counter())
        name = tracer.span_name(i)
        self_s = (tracer.end[i] - tracer.start[i]) - tracer.child[i]
        t[f"{name}.calls"] += 1
        t[f"{name}.self_s"] += self_s
        if name == CANONICALIZE:
            t[f"{name}.terms_in"] += tracer.n1[i]
            t[f"{name}.atoms_out"] += tracer.n2[i]
        elif name == "calculus.product":
            t[f"{name}.terms_out"] += tracer.n1[i]
        elif name == "solver.solve" and tracer.failed[i] == LEDGER_VIOLATION:
            t["solver.ledger_violations"] += 1
        if galerkin[i]:
            if name == "calculus.apply_elliptic":
                t["oracle.apply_elliptic.calls"] += 1
            elif name == "oracle.linear_solve":
                t["oracle.linear_solve_s"] += self_s
                t["oracle.unknowns"] += tracer.n1[i]
    return totals


def completeness_problems(tracer, expected_spans):
    """Checks that the wrappers saw every call they should have.

    * every span sits under a workload-operation root;
    * every finished solve has exactly (ledger rows - 1) step spans under it;
    * every span name in `expected_spans` occurs at least once.

    Returns the problems found and the number of solves checked.
    """
    steps_under = Counter()
    orphans = []
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        p = tracer.parent[i]
        if p < 0 and not name.startswith(ROOT_SPAN + ":"):
            orphans.append(f"{i} ({name})")
        if name == "solver.step" and p >= 0 and tracer.span_name(p) == "solver.solve":
            steps_under[p] += 1
    solves = [i for i in range(len(tracer))
              if tracer.span_name(i) == "solver.solve" and not tracer.failed[i]]
    mismatched = [f"{i} ({steps_under[i]} steps, {tracer.n1[i]} ledger rows)"
                  for i in solves if steps_under[i] != tracer.n1[i] - 1]
    problems = []
    if orphans:
        problems.append(f"{len(orphans)} spans have no workload operation as their root, "
                        f"first {orphans[0]}")
    if mismatched:
        problems.append(f"{len(mismatched)} of {len(solves)} solve spans miss step spans, "
                        f"first {mismatched[0]}")
    seen = set(tracer.names[n] for n in set(tracer.name_id))
    problems.extend(f"no {name} span recorded: a wrapper missed its rebinding"
                    for name in expected_spans if name not in seen)
    return problems, len(solves)
