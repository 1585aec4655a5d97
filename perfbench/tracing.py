"""Outside-in span tracer for qentropy.

The tracer never edits the library.  It wraps public callables after import
and rebinds each wrapper wherever the original object is bound: in the
defining module and in every consuming module that took it with
``from .x import name`` (``qentropy.axioms`` binds ``generalized_entropy``,
``qentropy.cli`` binds ``run_full_report``, and so on).  Three class members
are patched on the class itself: ``DeformationFunction.__call__``,
``Distribution.__init__`` and ``AxiomReport.to_json``; the
``EntropyFamily.family_id`` property gets a wrapped getter.

A span is the tuple ``(name, start_ns, end_ns, parent_index, op_id, extra)``
kept in memory and written out when the run ends.  ``extra`` is the ``q`` of
a phi call, the element count of an entropy kernel call, or the record name
of an axiom check.  Self time is a span's duration minus the time its direct
children cover; calls are synchronous on one thread, so children nest inside
their parent and do not overlap each other.
"""

from __future__ import annotations

import csv
import inspect
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "qentropy.weierstrass": ("eval_W", "eval_phi_counterexample"),
    "qentropy.deformation": ("family_from_spec",),
    "qentropy.entropy": (
        "generalized_entropy",
        "suyari_entropy",
        "information_content",
        "pseudoadditive_compose",
        "trace_expectation",
        "shannon_entropy",
    ),
    "qentropy.simplex": ("make_distribution", "sample_simplex", "sample_refinement"),
}

# The axiom checks are the public functions of qentropy.axioms that return a
# CheckRecord; run_full_report looks them up in that module.  Their span
# name comes from the returned record, because one function
# (check_generalized_additivity) serves two report entries.
def check_functions(axioms) -> list[str]:
    return [name for name, fn in vars(axioms).items()
            if inspect.isfunction(fn) and fn.__module__ == axioms.__name__
            and not name.startswith("_")
            and inspect.get_annotations(fn).get("return") in ("CheckRecord", axioms.CheckRecord)]


# Entropy functions whose first argument is a Distribution; their spans
# carry its element count.
KERNELS = ("generalized_entropy", "suyari_entropy", "trace_expectation", "shannon_entropy")

ROOT = "op"


def _rebind(original, wrapper) -> None:
    """Replace every binding of ``original`` in the loaded qentropy modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qentropy" or name.startswith("qentropy.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Records spans around calls into qentropy while ``on`` is true."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.on = False

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                extra = note(args, out) if note is not None else None
                spans[idx] = (name, t0, t1, parent, self.op, extra)

        return wrapper

    def install(self) -> None:
        """Wrap the library's public layer boundaries.  Import every module
        that binds them first, so the rebinding reaches all consumers."""
        import qentropy.cli  # noqa: F401  (binds names from every module)
        from qentropy.axioms import AxiomReport
        from qentropy.deformation import DeformationFunction, EntropyFamily
        from qentropy.simplex import Distribution

        for modname, names in FUNCTIONS.items():
            module = sys.modules[modname]
            layer = modname.split(".", 1)[1]
            for attr in names:
                original = getattr(module, attr)
                note = (lambda args, out: len(args[0].probs)) if attr in KERNELS else None
                _rebind(original, self._wrap(f"{layer}.{attr}", original, note))
        axioms = sys.modules["qentropy.axioms"]
        for attr in check_functions(axioms):
            original = getattr(axioms, attr)
            note = lambda args, out: out.name if out is not None else "raised"
            _rebind(original, self._wrap("axioms.check", original, note))

        call = DeformationFunction.__call__

        traced_phi = self._wrap("deformation.phi", call, lambda args, out: args[1])
        traced_alpha = self._wrap("deformation.alpha", call)

        def deformation_call(func, q):
            # The alpha kinds are named *_alpha; every other kind is a phi.
            if func.kind.endswith("_alpha"):
                return traced_alpha(func, q)
            return traced_phi(func, q)

        DeformationFunction.__call__ = deformation_call
        family_id = EntropyFamily.family_id.fget
        EntropyFamily.family_id = property(
            self._wrap("deformation.family_id", family_id))
        Distribution.__init__ = self._wrap("simplex.Distribution", Distribution.__init__)
        AxiomReport.to_json = self._wrap("axioms.report.to_json", AxiomReport.to_json)

    def run_op(self, op_id: int, fn, *args):
        """Run one operation as a root span; returns (result, root index)."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.on = True
        t0 = time.perf_counter_ns()
        try:
            return fn(*args), idx
        finally:
            t1 = time.perf_counter_ns()
            self.on = False
            self.stack.pop()
            self.spans[idx] = (ROOT, t0, t1, -1, op_id, None)

    def adopt(self, root: int, child_spans: list) -> None:
        """Append spans recorded by a child process under the span ``root``."""
        offset = len(self.spans)
        op_id = self.spans[root][4]
        for name, t0, t1, parent, _, extra in child_spans:
            self.spans.append(
                (name, t0, t1, root if parent < 0 else parent + offset, op_id, extra))

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_ns", "end_ns", "parent", "op", "extra"))
            for idx, span in enumerate(self.spans):
                out.writerow((idx,) + tuple(span))


def summarize(spans: list, n_ops: int) -> dict:
    """Per-op layer metrics from a list of spans over ``n_ops`` operations."""
    child_ns = defaultdict(int)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    elements = 0
    phi_q = defaultdict(set)
    w_inside_phi = 0
    for idx, (name, t0, t1, parent, op, extra) in enumerate(spans):
        key = f"axioms.check.{extra}" if name == "axioms.check" else name
        calls[key] += 1
        total_ns[key] += t1 - t0
        self_ns[key] += t1 - t0 - child_ns[idx]
        if name.rsplit(".", 1)[-1] in KERNELS:
            elements += extra
        elif name == "deformation.phi":
            phi_q[op].add(extra)
        elif (name == "weierstrass.eval_W" and parent >= 0
              and spans[parent][0] == "weierstrass.eval_phi_counterexample"):
            w_inside_phi += 1
    kernel_self_ns = sum(self_ns[f"entropy.{k}"] for k in KERNELS)
    distinct_q = sum(len(qs) for qs in phi_q.values())
    phi_ce = calls["weierstrass.eval_phi_counterexample"]
    return {
        "calls": {k: v / n_ops for k, v in calls.items()},
        "s": {k: v / n_ops / 1e9 for k, v in total_ns.items()},
        "self_s": {k: v / n_ops / 1e9 for k, v in self_ns.items()},
        "kernel_elements": elements / n_ops,
        "ns_per_element": kernel_self_ns / elements if elements else 0.0,
        "eval_W_calls_per_phi": w_inside_phi / phi_ce if phi_ce else 0.0,
        "phi_calls_per_distinct_q": (
            calls["deformation.phi"] / distinct_q if distinct_q else 0.0),
    }
