"""Outside-in span recorder for the elastic_dtn layers.

The package has no tracing of its own, so the recorder wraps the public
functions of each layer from here.  ``symbols``, ``recovery`` and ``cli``
import functions by name, so a wrapper is installed under every module
attribute that holds the original function object; ``install`` and
``uninstall`` swap them in and out around a single case, which keeps the
untraced cases of a run free of any wrapper.

Every wrapped call pushes a frame on a stack.  On exit its duration is
added to the parent frame's child time, so each layer's self time is the
duration minus the part covered by child calls.  Spans (id, name, start,
end, parent id, case id) are kept in memory and written out by the caller
at the end of the run.  Jet products run thousands of times per case, so
they update counters only and leave no span record.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

perf_counter = time.perf_counter

STAGES = ("forward", "recover")


class Tracer:
    """Spans and per-case counters for one benchmark process."""

    def __init__(self, package):
        self.pkg = package
        self.spans = []
        self.stack = []
        self.case = None
        self.stage = None
        self.q_level = None
        self.next_id = 0
        self.counters = None
        self._pair_cache = {}
        self._patches = self._plan()

    # -- per-case bookkeeping ---------------------------------------------

    def begin_case(self, case_id) -> None:
        self.case = case_id
        self.counters = {stage: defaultdict(float) for stage in STAGES}

    def end_case(self) -> dict:
        """Counters of the finished case, keyed (stage, name)."""
        self.case = None
        return {(stage, key): value for stage in STAGES
                for key, value in self.counters[stage].items()}

    def stage_span(self, stage: str):
        return _StageSpan(self, stage)

    # -- frames -------------------------------------------------------------

    def _enter(self):
        frame = [self.next_id, perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame, name: str, layer: str, keep: bool = True) -> None:
        end = perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        duration = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_id = parent[0]
        else:
            parent_id = None
        counters = self.counters[self.stage]
        counters[name + ".calls"] += 1
        counters[name + ".s"] += duration
        counters[layer + ".self.s"] += duration - child
        if keep:
            self.spans.append((span_id, name, start, end, parent_id, self.case))

    def _wrap(self, fn, name, layer: str):
        """``name`` is a string or a function of the call's arguments."""
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if dynamic else name
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, span, layer)

        return wrapper

    # -- jet products ---------------------------------------------------------

    def pair_counts(self, context) -> tuple[int, list]:
        """Pairs per product, and per accuracy A the pairs of degree <= A.

        Monomials are in graded order and ``mul_table`` sorts pairs by
        target, so the pairs of target degree <= A form a prefix.
        """
        key = (context.nvars, context.truncation_order)
        cached = self._pair_cache.get(key)
        if cached is None:
            left, _, starts = context.mul_table()
            total = len(left)
            useful = []
            for acc in range(context.truncation_order + 1):
                n_targets = int((context.degrees <= acc).sum())
                useful.append(total if n_targets >= len(starts)
                              else int(starts[n_targets]))
            cached = self._pair_cache[key] = (total, useful)
        return cached

    def _useful_pairs(self, context, accuracy: int) -> int:
        useful = self.pair_counts(context)[1]
        return useful[min(accuracy, len(useful) - 1)] if accuracy >= 0 else 0

    def _wrap_mul(self, fn):
        tracer = self
        jet_type = self.pkg.jets.Jet

        @functools.wraps(fn)
        def wrapper(a, b):
            if not isinstance(b, jet_type):
                frame = tracer._enter()
                try:
                    return fn(a, b)
                finally:
                    tracer._exit(frame, "jets.scalar_mul", "jets", keep=False)
            acc = min(a.accuracy, b.accuracy)
            frame = tracer._enter()
            try:
                return fn(a, b)
            finally:
                tracer._exit(frame, f"jets.mul.acc{acc}", "jets", keep=False)
                counters = tracer.counters[tracer.stage]
                counters["jets.mul.calls"] += 1
                counters["jets.mul.useful"] += tracer._useful_pairs(a.context,
                                                                    acc)
                if not a.coeffs[1:].any() or not b.coeffs[1:].any():
                    counters["jets.mul.const"] += 1

        return wrapper

    # -- installation ---------------------------------------------------------

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patched name."""
        pkg = self.pkg
        jets, symbols, recovery = pkg.jets, pkg.symbols, pkg.recovery
        modules = (pkg, jets, pkg.geometry, symbols, recovery, pkg.scenes,
                   pkg.serialize, pkg.cli)

        def q_level_build(args):
            self.q_level = args[0] + 1
            return f"symbols.q_level{self.q_level}"

        def q_level_solve(args):
            return f"symbols.q_level{self.q_level}"

        def peel_order(args):
            return f"recovery.order{args[0]}"

        # (defining module, function, span name, layer); the span name may
        # be overridden per importing module below
        functions = [
            (jets, "reciprocal", "jets.reciprocal", "jets"),
            (jets, "sqrt", "jets.sqrt", "jets"),
            (jets, "mat_inverse", "jets.mat_inverse", "jets"),
            (pkg.geometry, "prepare", "geometry.prepare", "geometry"),
            (symbols, "build_context", "symbols.build_context", "symbols"),
            (symbols, "dtn_symbols", "symbols.dtn_symbols", "symbols"),
            (symbols, "build_E", q_level_build, "symbols"),
            (symbols, "solve_q", q_level_solve, "symbols"),
            (recovery, "recover_full", "recovery.recover_full", "recovery"),
            (recovery, "recover_order0", "recovery.order0", "recovery"),
            (recovery, "recover_normal_derivative", peel_order, "recovery"),
            (pkg.scenes, "load_scene", "scenes.load_scene", "scenes"),
            (pkg.scenes, "atomic_write_json", "scenes.atomic_write_json",
             "scenes"),
            (pkg.serialize, "symbols_to_json", "serialize.symbols_to_json",
             "serialize"),
            (pkg.serialize, "observed_from_json",
             "serialize.observed_from_json", "serialize"),
            (pkg.serialize, "recovered_to_json",
             "serialize.recovered_to_json", "serialize"),
            (pkg.cli, "main", "cli.main", "cli"),
            (pkg.cli, "cmd_forward", "cli.forward", "cli"),
            (pkg.cli, "cmd_recover", "cli.recover", "cli"),
        ]
        # calls made from recovery into the forward engine are the
        # reference runs of layer peeling, reported apart from the forward
        # stage's own calls
        renamed = {
            (recovery, "build_context"): "recovery.build_context",
            (recovery, "dtn_symbols"): "recovery.dtn_symbols",
        }
        plan = []
        for home, attr, name, layer in functions:
            original = getattr(home, attr)
            default = self._wrap(original, name, layer)
            for module in modules:
                if getattr(module, attr, None) is not original:
                    continue
                override = renamed.get((module, attr))
                wrapper = (default if override is None
                           else self._wrap(original, override, layer))
                plan.append((module, attr, original, wrapper))

        jet, matrix = jets.Jet, jets.JetMatrix
        mul = self._wrap_mul(jet.__mul__)
        plan.append((jet, "__mul__", jet.__mul__, mul))
        plan.append((jet, "__rmul__", jet.__rmul__, mul))
        plan.append((matrix, "__matmul__", matrix.__matmul__,
                     self._wrap(matrix.__matmul__, "jets.matmul", "jets")))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


class _StageSpan:
    """Harness span for one stage of a case; sets the tracer's stage."""

    def __init__(self, tracer: Tracer, stage: str):
        self.tracer = tracer
        self.stage = stage

    def __enter__(self):
        self.tracer.stage = self.stage
        self.frame = self.tracer._enter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, f"bench.{self.stage}", "bench")
        return False
