"""Span tracing of divknn's public entry points, from outside the package.

The tracer replaces each traced function at every name a caller can look it
up by: every attribute of every loaded ``divknn`` module that is the
original function object, plus the two ``NeighborIndex`` methods on the
class.  Each call records a span (name, parent, thread, phase, start, end)
and a small dict of facts read from its arguments and result.  Spans are held
in memory; ``uninstall`` restores every patched name and checks that it did.

A span's parent is the innermost open span on its own thread; a span opened
on a thread with no open span (a trial in ``run_experiment``'s pool) takes
the innermost open span of the installing thread as its parent.
"""

import functools
import inspect
import re
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# The grid sizes of the paper's Figure 1; one cell metric per size.
CELL_SIZES = (100, 200, 400, 800, 1600)

_CAP_RE = re.compile(r"(\d+)-iteration cap")


def _facts_sample(bound, result, exc):
    return {"n": int(bound["n"])}


def _facts_table(bound, result, exc):
    index = bound["self"]
    queries = np.asarray(bound["queries"])
    nq, dim = queries.shape
    m = int(index.size)
    k = int(bound["k_max"])
    # Bytes implied by the shapes under the block-wise difference-tensor
    # algorithm: the (nq, M, d) difference tensor, the (nq, M) squared
    # distances and the (nq, k_max) output, all float64.  Computed, not
    # measured: cache traffic is not counted.
    computed = 8 * (nq * m * dim + nq * m + nq * k)
    return {"loo": bool(bound["leave_one_out"]), "bytes": computed, "n": nq}


def _facts_tables(bound, result, exc):
    return {"n": int(bound["x"].n)}


def _facts_profile(bound, result, exc):
    n = int(bound["x"].n)
    ks = len(bound["ks"])
    facts = {"n": n, "ks": ks, "base": 2 * n * ks}
    if result is not None:
        facts["clamps"] = int(np.sum(result[1]))
    return facts


def _facts_schedule(bound, result, exc):
    facts = {"n": int(bound["config"].n)}
    if result is not None:
        facts["collisions"] = len(result[1])
    return facts


def _facts_solve(bound, result, exc):
    facts = {"n": int(bound["config"].n)}
    if exc is not None:
        facts["failed"] = True
        match = _CAP_RE.search(str(exc))
        facts["iters"] = int(match.group(1)) if match else 0
        return facts
    residuals = np.asarray(result.residuals, dtype=np.float64)
    facts["iters"] = int(result.solver_iterations)
    facts["residual"] = float(np.max(np.abs(residuals))) if residuals.size else 0.0
    facts["w_norm"] = float(np.linalg.norm(result.weights))
    return facts


def _facts_estimate(bound, result, exc):
    return {"n": int(bound["config"].n)}


def _facts_boot(bound, result, exc):
    return {"reps": int(bound["reps"])}


def _facts_grid(bound, result, exc):
    return {"threads": int(bound["config"].threads)}


def _facts_none(bound, result, exc):
    return {}


# (module, qualified name, span name, facts extractor).  A target missing
# from the package is skipped, and its metrics read 0.
TARGETS = (
    ("divknn.synth", "sample_truncated_gaussian", "sample", _facts_sample),
    ("divknn.synth", "true_renyi_integral", "truth", _facts_none),
    ("divknn.synth", "mc_truth", "truth", _facts_none),
    ("divknn.neighbors", "NeighborIndex.__init__", "index_build", _facts_none),
    ("divknn.neighbors", "NeighborIndex.kth_distance_table", "table", _facts_table),
    ("divknn.functionals", "neighbor_tables", "neighbor_tables", _facts_tables),
    ("divknn.functionals", "plugin_profile", "profile", _facts_profile),
    ("divknn.ensemble", "k_schedule", "k_schedule", _facts_schedule),
    ("divknn.ensemble", "solve_weights", "solve", _facts_solve),
    ("divknn.ensemble", "ensemble_estimate", "estimate", _facts_estimate),
    ("divknn.inference", "bootstrap_replicates", "bootstrap", _facts_boot),
    ("divknn.inference", "confidence_interval", "confidence_interval", _facts_none),
    ("divknn.bench", "run_experiment", "grid", _facts_grid),
    ("divknn.cli", "main", "cli_main", _facts_none),
)


class Span:
    __slots__ = ("id", "name", "parent", "thread", "phase", "start", "end", "facts")

    def __init__(self, span_id, name, parent, thread, phase):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.facts = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
                "phase": self.phase, "start": self.start, "end": self.end, "facts": self.facts}


class Tracer:
    """Records spans around divknn's public entry points while installed."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self.fact_errors = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, span_name, facts_fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                root = tracer._root_stack
                parent = root[-1].id if root else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            span = Span(span_id, span_name, parent, threading.get_ident(), tracer.phase)
            stack.append(span)
            result = exc = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.facts = facts_fn(bound.arguments, result, exc)
                except Exception as error:  # a fact we cannot read is reported, not fatal
                    span.facts = {"fact_error": repr(error)}
                    with tracer._lock:
                        tracer.fact_errors.append("%s: %r" % (span_name, error))
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def install(self):
        """Patch every target at every name it is reachable by."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "divknn" or name.startswith("divknn."))]
        for module_name, qualname, span_name, facts_fn in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                self._patch(owner, attr, original, self._wrap(original, span_name, facts_fn))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, facts_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every patched name; returns the names that did not restore."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        self._root_stack = None
        return ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                for owner, attr, original in patches if vars(owner).get(attr) is not original]

    def dump(self):
        return [s.to_dict() for s in self.spans]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail_percentile(count):
    """Highest whole percentile with at least 10 of ``count`` samples beyond it (>= 50)."""
    if count <= 0:
        return 50
    return max(50, min(99, int(100 - 1000.0 / count)))


def p50_ms(values):
    return 1e3 * float(np.median(values)) if values else 0.0


# Per-phase additive metrics; the reported value is the set-up phase's value
# plus the median over traced passes.
ADDITIVE = (
    "neighbors.table_calls", "neighbors.table_self_s", "neighbors.index_builds",
    "neighbors.index_build_s", "neighbors.bytes_computed",
    "functionals.profile_self_s", "functionals.ks_evaluated", "functionals.clamp_count",
    "ensemble.solve_calls", "ensemble.solve_self_s", "ensemble.solve_iters",
    "ensemble.solve_failed", "ensemble.k_collisions",
    "inference.replicates", "inference.resample_self_s",
    "bench.self_s", "synth.sample_calls", "synth.truth_s", "cli.self_s",
) + tuple("bench.cell_s.n%d" % n for n in CELL_SIZES)


def layer_metrics(spans, setup_phase, pass_phases):
    """Per-layer metrics from the spans of one set-up and several traced passes."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def self_time(s):
        return s.duration - _covered([(c.start, c.end) for c in children[s.id]], s.start, s.end)

    def descendants(s):
        todo = list(children[s.id])
        while todo:
            c = todo.pop()
            yield c
            todo.extend(children[c.id])

    phases = [setup_phase] + list(pass_phases)
    acc = {ph: defaultdict(float) for ph in phases}
    pooled = defaultdict(list)
    maxima = defaultdict(float)
    for s in spans:
        if s.phase not in acc:
            continue
        a = acc[s.phase]
        f = s.facts
        if s.name == "table":
            a["neighbors.table_calls"] += 1
            a["neighbors.table_self_s"] += self_time(s)
            a["neighbors.bytes_computed"] += f.get("bytes", 0)
            pooled["xx" if f.get("loo") else "xy"].append(s.duration)
        elif s.name == "index_build":
            a["neighbors.index_builds"] += 1
            a["neighbors.index_build_s"] += s.duration
        elif s.name == "profile":
            a["functionals.profile_self_s"] += self_time(s)
            a["functionals.ks_evaluated"] += f.get("ks", 0)
            a["functionals.clamp_count"] += f.get("clamps", 0)
            a["_clamp_base"] += f.get("base", 0)
        elif s.name == "solve":
            a["ensemble.solve_calls"] += 1
            a["ensemble.solve_self_s"] += self_time(s)
            a["ensemble.solve_iters"] += f.get("iters", 0)
            a["ensemble.solve_failed"] += 1 if f.get("failed") else 0
            maxima["ensemble.max_residual"] = max(maxima["ensemble.max_residual"],
                                                  f.get("residual", 0.0))
            maxima["ensemble.w_norm_max"] = max(maxima["ensemble.w_norm_max"],
                                                f.get("w_norm", 0.0))
        elif s.name == "k_schedule":
            a["ensemble.k_collisions"] += f.get("collisions", 0)
        elif s.name == "bootstrap":
            a["inference.resample_self_s"] += self_time(s)
            prev = s.start
            for c in sorted((c for c in children[s.id] if c.name == "estimate"),
                            key=lambda c: c.start):
                a["inference.replicates"] += 1
                pooled["replicate"].append(c.end - prev)
                prev = c.end
        elif s.name == "grid":
            a["bench.self_s"] += self_time(s)
            cells = {}
            for c in descendants(s):
                n = c.facts.get("n")
                if n is None:
                    continue
                lo, hi = cells.get(n, (c.start, c.end))
                cells[n] = (min(lo, c.start), max(hi, c.end))
            for n, (lo, hi) in cells.items():
                if n in CELL_SIZES:
                    a["bench.cell_s.n%d" % n] += hi - lo
            a["_pool_busy"] += sum(c.duration for c in children[s.id])
            a["_pool_capacity"] += f.get("threads", 1) * sum(hi - lo for lo, hi in cells.values())
        elif s.name == "sample":
            a["synth.sample_calls"] += 1
            pooled["sample"].append(s.duration)
        elif s.name == "truth":
            a["synth.truth_s"] += s.duration
        elif s.name == "cli_main":
            a["cli.self_s"] += self_time(s)

    def combined(key):
        passes = [acc[ph][key] for ph in pass_phases]
        return acc[setup_phase][key] + (statistics.median(passes) if passes else 0.0)

    out = {key: combined(key) for key in ADDITIVE}
    clamp_base = combined("_clamp_base")
    capacity = combined("_pool_capacity")
    out["functionals.clamp_frac"] = out["functionals.clamp_count"] / clamp_base if clamp_base else 0.0
    out["bench.pool_busy_frac"] = combined("_pool_busy") / capacity if capacity else 0.0
    out["neighbors.xy_table_ms_p50"] = p50_ms(pooled["xy"])
    out["neighbors.xx_table_ms_p50"] = p50_ms(pooled["xx"])
    out["synth.sample_ms_p50"] = p50_ms(pooled["sample"])
    replicates = pooled["replicate"]
    out["inference.replicate_ms_p50"] = p50_ms(replicates)
    tail_pct = tail_percentile(len(replicates))
    out["inference.replicate_ms_tail"] = (
        1e3 * float(np.percentile(replicates, tail_pct)) if replicates else 0.0)
    out.update(maxima)
    out.setdefault("ensemble.max_residual", 0.0)
    out.setdefault("ensemble.w_norm_max", 0.0)
    notes = {"inference.replicate_ms_tail": {"percentile": tail_pct, "samples": len(replicates)}}
    return out, notes

