"""Per-layer spans, recorded from outside the program.

Each function named in BOUNDARY is replaced by a timing wrapper wherever it
is bound: in its defining module and in every dhlab module (and the package
itself) that imported it by name, so calls from harness, solver and norms
are seen too.  The grid generator `iter_grid_values` is timed per `next()`,
so the time a consumer spends between blocks is not charged to it.

A span is (id, parent id, group, start, end, attrs).  Spans stay in memory
and are written once, when the traced process ends.  A group's self time is
the duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

import numpy as np

# (module, function) -> span group.  The group's first part names the layer.
BOUNDARY = {
    ("primes", "sieve"): "primes.sieve",
    ("primes", "window_indices"): "primes.window",
    ("primes", "theta"): "primes.theta",
    ("primes", "theta_many"): "primes.theta",
    ("precision", "phase_frac"): "precision.phase_frac",
    ("precision", "pow_dd"): "precision.pow_dd",
    ("expsums", "sum_freqs"): "expsums.freqs",
    ("expsums", "eval_points"): "expsums.points",
    ("expsums", "eval_grid"): "expsums.grid",
    ("expsums", "iter_grid_values"): "expsums.grid",
    ("expsums", "prime_exp_sum"): "expsums.pointwise",
    ("expsums", "integer_exp_sum"): "expsums.pointwise",
    ("expsums", "integral_exp_sum"): "expsums.pointwise",
    ("expsums", "fejer_kernel"): "expsums.kernel",
    ("norms", "moment_integral"): "norms.moment",
    ("norms", "kernel_moment"): "norms.kernel_moment",
    ("norms", "exp_sum_gap_l2"): "norms.gap_l2",
    ("norms", "selberg_integral"): "norms.selberg",
    ("norms", "count_quadruples"): "norms.quadruples",
    ("diophantine", "convergents"): "diophantine",
    ("diophantine", "legendre_check"): "diophantine",
    ("diophantine", "find_rational_witness"): "diophantine",
    ("diophantine", "cube_sequence"): "diophantine",
    ("diophantine", "vaughan_ratio"): "diophantine",
    ("arcs", "eta_exponent"): "arcs",
    ("arcs", "competitor_exponent"): "arcs",
    ("arcs", "choose_parameters"): "arcs",
    ("arcs", "locate"): "arcs",
    ("solver", "enumerate_solutions"): "solver.enumerate",
    ("solver", "solution_integral"): "solver.detector",
    ("solver", "duality_tail_bound"): "solver.detector",
    ("solver", "main_term_scan"): "solver.detector",
    ("solver", "weighted_count"): "solver.detector",
    ("harness", "run_lemma_suite"): "harness",
    ("harness", "run_theorem_experiment"): "harness",
    ("harness", "sample_large_sum_measure"): "harness",
    ("harness", "summary_dict"): "harness",
    ("harness", "write_suite_csv"): "harness.write",
    ("harness", "write_theorem_csv"): "harness.write",
    ("harness", "write_summary"): "harness.write",
}

# Groups whose trapezoid nodes are counted (norms.trapezoid_nodes and
# solver.detector_nodes).
NORMS_GROUPS = {"norms.moment", "norms.kernel_moment", "norms.gap_l2"}


class Tracer:
    """Span recorder.  Wrappers call straight through while it is inactive."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._next_gen = 0
        self._freq_results: dict[int, object] = {}

    # -- span bookkeeping --------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, group, t0, attrs) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, group, t0, t1, attrs))

    # -- wrappers ----------------------------------------------------------
    def wrap(self, group: str, fn, hook=None):
        sig = inspect.signature(fn) if hook is not None else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = hook(tracer, bound.arguments, result)
                return result
            finally:
                tracer._close(sid, parent, group, t0, attrs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def wrap_generator(self, group: str, fn):
        """Wrap a generator function; each next() on it is one span."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                return inner
            n_terms = len(args[0]) if args else len(kwargs["fh"])
            tracer._next_gen += 1
            return tracer._timed_blocks(group, inner, n_terms, tracer._next_gen)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _timed_blocks(self, group, inner, n_terms, gen):
        while True:
            sid, parent = self._open()
            t0 = time.perf_counter()
            attrs = None
            try:
                start, block = next(inner)
                attrs = {"points": len(block), "terms": n_terms * len(block),
                         "gen": gen}
            except StopIteration:
                return
            finally:
                self._close(sid, parent, group, t0, attrs)
            yield start, block

    def _freq_hook(self, arguments, result):
        reused = self._freq_results.get(id(result)) is result
        self._freq_results[id(result)] = result  # keeps ids unique
        return {"reused": reused}

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Replace every BOUNDARY function at every site it is bound."""
        import dhlab  # noqa: F401  (loads every module of the package)

        hooks = {
            "sieve": lambda t, a, r: {"primes": len(r)},
            "phase_frac": lambda t, a, r: {"elems": int(np.size(r))},
            "eval_points": lambda t, a, r: {
                "terms": len(a["fh"]) * int(np.size(a["alphas"]))},
            "sum_freqs": lambda t, a, r: t._freq_hook(a, r),
            "enumerate_solutions": lambda t, a, r: {"admitted": len(r)},
            "write_suite_csv": _bytes_hook,
            "write_theorem_csv": _bytes_hook,
            "write_summary": _bytes_hook,
        }
        modules = [m for name, m in sys.modules.items()
                   if (name == "dhlab" or name.startswith("dhlab.")) and m]
        for (mod_name, fn_name), group in BOUNDARY.items():
            home = sys.modules.get(f"dhlab.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                continue
            if fn_name == "iter_grid_values":
                wrapper = self.wrap_generator(group, orig)
            else:
                wrapper = self.wrap(group, orig, hooks.get(fn_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def dump(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "group", "start", "end", "attrs"],
                       "spans": self.spans}, fh)


def _bytes_hook(tracer, arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def layer_metrics(spans, body_t0: float, body_t1: float) -> dict:
    """Per-layer metrics from one traced process's spans.

    Times are self times in seconds, except the `_incl_s` ones, which are
    the wall time inside a group including its callees (phase reduction,
    frequency assembly).  Counts sum span attributes.  Rates are work per
    second of the group's self time (0 where a group did no work).
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _g, t0, t1, _a in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for sid, parent, group, t0, t1, attrs in spans:
        self_s[group] = self_s.get(group, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
        calls[group] = calls.get(group, 0) + 1
        for key, val in (attrs or {}).items():
            attr_sum[group, key] = attr_sum.get((group, key), 0) + val

    def t(group):
        return self_s.get(group, 0.0)

    def a(group, key):
        return attr_sum.get((group, key), 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    def nearest(span, groups):
        """Nearest ancestor span (or the span itself) in `groups`."""
        while span is not None:
            if span[2] in groups:
                return span
            span = by_id.get(span[1])
        return None

    def inclusive(group):
        return sum(s[4] - s[3] for s in spans
                   if s[2] == group and nearest(by_id.get(s[1]), {group}) is None)

    # Trapezoid nodes: generator points under norms integrals.  The detector
    # integral runs one generator per factor over the same nodes, so each of
    # its calls counts the points of its largest generator.
    trapezoid = 0
    detector: dict[tuple[int, int], int] = {}
    for s in spans:
        if s[2] != "expsums.grid" or not s[5]:
            continue
        owner = nearest(by_id.get(s[1]), NORMS_GROUPS | {"solver.detector"})
        if owner is None:
            continue
        if owner[2] == "solver.detector":
            key = (owner[0], s[5]["gen"])
            detector[key] = detector.get(key, 0) + s[5]["points"]
        else:
            trapezoid += s[5]["points"]
    per_call: dict[int, int] = {}
    for (call, _gen), points in detector.items():
        per_call[call] = max(per_call.get(call, 0), points)
    detector_nodes = sum(per_call.values())

    freq_calls = calls.get("expsums.freqs", 0)
    body = [s for s in spans if s[1] is None and s[3] >= body_t0 and s[4] <= body_t1]
    covered = sum(s[4] - s[3] for s in body)
    wall = body_t1 - body_t0

    return {
        "primes.sieve_s": t("primes.sieve"),
        "primes.primes_sieved": a("primes.sieve", "primes"),
        "primes.window_s": t("primes.window"),
        "primes.window_calls": calls.get("primes.window", 0),
        "primes.theta_s": t("primes.theta"),
        "precision.phase_frac_s": t("precision.phase_frac"),
        "precision.phase_frac_elems": a("precision.phase_frac", "elems"),
        "precision.pow_dd_s": t("precision.pow_dd"),
        "precision.pow_dd_calls": calls.get("precision.pow_dd", 0),
        "expsums.points_s": t("expsums.points"),
        "expsums.points_term_evals": a("expsums.points", "terms"),
        "expsums.points_rate": rate(a("expsums.points", "terms"), t("expsums.points")),
        "expsums.points_incl_s": inclusive("expsums.points"),
        "expsums.grid_s": t("expsums.grid"),
        "expsums.grid_term_evals": a("expsums.grid", "terms"),
        "expsums.grid_rate": rate(a("expsums.grid", "terms"), t("expsums.grid")),
        "expsums.grid_incl_s": inclusive("expsums.grid"),
        "expsums.freqs_s": t("expsums.freqs"),
        "expsums.freqs_calls": freq_calls,
        "expsums.freqs_reuse_ratio": rate(a("expsums.freqs", "reused"), freq_calls),
        "expsums.pointwise_s": t("expsums.pointwise"),
        "expsums.kernel_s": t("expsums.kernel"),
        "norms.moment_s": t("norms.moment"),
        "norms.kernel_moment_s": t("norms.kernel_moment"),
        "norms.gap_l2_s": t("norms.gap_l2"),
        "norms.selberg_s": t("norms.selberg"),
        "norms.quadruples_s": t("norms.quadruples"),
        "norms.trapezoid_nodes": trapezoid,
        "diophantine.s": t("diophantine"),
        "diophantine.calls": calls.get("diophantine", 0),
        "arcs.s": t("arcs"),
        "arcs.calls": calls.get("arcs", 0),
        "solver.enumerate_s": t("solver.enumerate"),
        "solver.admitted": a("solver.enumerate", "admitted"),
        "solver.admit_rate": rate(a("solver.enumerate", "admitted"),
                                  t("solver.enumerate")),
        "solver.detector_s": t("solver.detector"),
        "solver.detector_nodes": detector_nodes,
        "harness.self_s": t("harness"),
        "harness.write_s": t("harness.write"),
        "harness.bytes_written": a("harness.write", "bytes"),
        "trace.uncovered_frac": (wall - covered) / wall if wall > 0 else 0.0,
    }

