"""Span tracer that wraps corkcalc's public functions from outside the package.

``install`` replaces every binding of each target function: the defining
module's attribute, every ``from ... import`` copy in other corkcalc modules
(``suites.homology``, ``moves.datum_hash``, ...), and module-level dict
values that hold the function. A wrapped call appends one span
(name, start, end, parent span) to in-memory arrays; ``write`` stores them
at exit and ``self_times`` turns them into per-name call counts and self
time, where self time is a span's duration minus that of its child spans.

Nothing under ``src/`` is edited: the wrappers exist only in the traced
process, and a forked pool worker inherits them switched off, so only the
parent is traced.
"""

from __future__ import annotations

import json
import os
import sys
import types
from array import array
from time import perf_counter

# (module, attribute path, span name). A dotted attribute path names a method.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("suites", "run_suite", "suites.run_suite"),
    ("suites", "run_case", "suites.run_case"),
    ("linalg", "snf", "linalg.snf"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "signature", "linalg.signature"),
    ("linalg", "is_diag_minus_one", "linalg.is_diag_minus_one"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "coker_invariants", "linalg.coker_invariants"),
    ("linalg", "IntMatrix.mul", "linalg.mul"),
    ("linalg", "IntMatrix.from_rows", "linalg.from_rows"),
    ("datum", "datum_hash", "datum.datum_hash"),
    ("datum", "canonical_json", "datum.canonical_json"),
    ("datum", "exponent_matrix", "datum.exponent_matrix"),
    ("datum", "full_linking_matrix", "datum.full_linking_matrix"),
    ("moves", "apply_move", "moves.apply_move"),
    ("moves", "replay", "moves.replay"),
    ("moves", "Recorder.apply", "moves.record"),
    ("moves", "blow_down", "moves.blow_down"),
    ("isomorphism", "datum_isomorphic", "isomorphism.datum_isomorphic"),
    ("presentations", "pi1_presentation", "presentations.pi1_presentation"),
    ("presentations", "tietze_simplify", "presentations.tietze_simplify"),
    ("invariants", "homology", "invariants.homology"),
    ("invariants", "boundary_h1", "invariants.boundary_h1"),
    ("invariants", "intersection_form", "invariants.intersection_form"),
    ("invariants", "char_numbers_from_datum", "invariants.char_numbers_from_datum"),
    ("families", "build_X", "families.build_X"),
    ("families", "build_W", "families.build_W"),
    ("families", "build_W_twisted", "families.build_W_twisted"),
    ("families", "build_Z", "families.build_Z"),
    ("families", "build_Z_twisted", "families.build_Z_twisted"),
    ("families", "build_Cm", "families.build_Cm"),
    ("families", "load_elliptic_surface", "families.load_elliptic_surface"),
    ("scripts", "deletion_script", "scripts.deletion_script"),
    ("scripts", "deletion_chain", "scripts.deletion_chain"),
    ("scripts", "verify_deletion", "scripts.verify_deletion"),
    ("scripts", "verify_chain", "scripts.verify_chain"),
    ("sequences", "period", "sequences.period"),
    ("sequences", "cork_order", "sequences.cork_order"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)


def _corkcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "corkcalc" or name.startswith("corkcalc."))]


def _lookup(module_name: str, path: str):
    """Return (owner, attribute, raw class-dict value or function)."""
    owner = sys.modules[f"corkcalc.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Holds the spans of one traced process."""

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.mul_macs = 0
        self.enabled = True
        self._stack = [-1]
        self.originals: dict[str, object] = {}

    # --- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self.name_ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        if name == "linalg.mul":
            def traced_mul(a, b):
                tracer.mul_macs += a.rows * a.cols * b.cols
                return traced(a, b)
            traced_mul.__wrapped__ = fn
            return traced_mul
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced target inside the loaded corkcalc modules."""
        replacements = {}
        for module_name, path, name in TARGETS:
            if name not in self.name_ids:
                continue
            owner, attr, raw = _lookup(module_name, path)
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                setattr(owner, attr, staticmethod(self._wrap(fn, name)))
            else:
                fn = raw
                setattr(owner, attr, self._wrap(fn, name))
            self.originals[name] = fn
            if isinstance(owner, types.ModuleType):
                replacements[id(fn)] = (fn, getattr(owner, attr))
        for module in _corkcalc_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = replacements.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # --- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Store the spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as f:
            header = {"names": list(self.names), "count": len(self.span_name),
                      "mul_macs": self.mul_macs}
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def read_spans(path: str):
    """Load spans written by ``Tracer.write``: (header, name, parent, start, end)."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(f, count)
            arrays.append(arr)
    return (header, *arrays)


def self_times(names, span_name, span_parent, span_start, span_end,
               keep_durations=("suites.run_case",)):
    """Aggregate spans per name.

    Returns ``(stats, top_level_s)``: ``stats[name]`` holds ``calls``,
    ``total_s``, ``self_s`` and, for names in ``keep_durations``, the list
    ``durations``; ``top_level_s`` sums the spans that have no parent.
    """
    count = len(span_name)
    child_time = [0.0] * count
    for i in range(count):
        p = span_parent[i]
        if p >= 0:
            child_time[p] += span_end[i] - span_start[i]
    stats = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for n in keep_durations:
        stats[n]["durations"] = []
    top_level_s = 0.0
    for i in range(count):
        duration = span_end[i] - span_start[i]
        s = stats[names[span_name[i]]]
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - child_time[i]
        if "durations" in s:
            s["durations"].append(duration)
        if span_parent[i] < 0:
            top_level_s += duration
    return stats, top_level_s
