"""Spans around carrychain's public functions, patched in from the benchmark.

Each wrapper records (name, start, end, parent span, request id). Spans stay
in memory and are written out when the run ends. A wrapper replaces the
function where it is defined and wherever a carrychain module imported it by
name, and ``ExactMatrix.__matmul__`` is replaced on the class. Results whose
coefficient sizes are measured (P, V, the characteristic polynomial) are only
kept by reference during a request and measured after it, so bit counting is
never charged to a span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from fractions import Fraction

# (span name, layer, defining module, attribute). Wrapping stops at these
# boundaries: numeration runs once per simulation step inside run_chain, and a
# wrapper there would distort the trace, so its cost stays in run_chain.
TARGETS = (
    ("exactmath.matmul", "exactmath", "carrychain.exactmath", "ExactMatrix.__matmul__"),
    ("exactmath.determinant", "exactmath", "carrychain.exactmath", "determinant"),
    ("exactmath.char_poly", "exactmath", "carrychain.exactmath", "char_poly"),
    ("eulerian.v_closed", "eulerian", "carrychain.eulerian", "v_closed"),
    ("eulerian.stationary", "eulerian", "carrychain.eulerian", "stationary"),
    ("eulerian.triangle_recurrence", "eulerian", "carrychain.eulerian", "triangle_recurrence"),
    ("carries.transition_matrix", "carries", "carrychain.carries", "transition_matrix"),
    ("carries.bruteforce", "carries", "carrychain.carries", "transition_matrix_bruteforce"),
    ("spectral.verify_diagonalization", "spectral", "carrychain.spectral", "verify_diagonalization"),
    ("spectral.eigen_matrix", "spectral", "carrychain.spectral", "eigen_matrix"),
    ("simulate.run_chain", "simulate", "carrychain.simulate", "run_chain"),
    ("uniformsum.interval_prob", "uniformsum", "carrychain.uniformsum", "interval_prob"),
    ("cli.build_parser", "cli", "carrychain.cli", "build_parser"),
    ("cli.render", "cli", "carrychain.cli", "render"),
    ("cli.main", "cli", "carrychain.cli", "main"),
)
LAYER = {name: layer for name, layer, _, _ in TARGETS}
LAYERS = ("exactmath", "eulerian", "carries", "spectral", "simulate",
          "uniformsum", "cli")

# Span name -> what to keep from a call: "P", "V" and "poly" feed the bit
# lengths; "matmul" and "steps" feed work counts.
_KEEP = {
    "carries.transition_matrix": "P",
    "carries.bruteforce": "P",
    "spectral.eigen_matrix": "V",
    "exactmath.char_poly": "poly",
    "exactmath.matmul": "matmul",
    "simulate.run_chain": "steps",
}


class Tracer:
    """Records spans while installed; ``request`` tags spans with an id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._kept: list[tuple[str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self._stack, _KEEP.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep == "matmul":
                a, b = args
                self.counts["exactmath.matmul_mults"] += a.rows * a.cols * b.cols
            elif keep == "steps":
                self.counts["simulate.steps"] += args[0].steps
            elif keep is not None:
                self._kept.append((keep, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every target in every loaded carrychain module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "carrychain" or n.startswith("carrychain.")]
        for name, _, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.rsplit(".", 1)[-1]
            fn = owner.__dict__.get(leaf)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            self._patch(owner, leaf, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def end_request(self) -> None:
        """Measure the sizes kept during the request and drop the references."""
        for kind, value in self._kept:
            if kind == "P":
                matrix = value[1] if isinstance(value, tuple) else value
                self.counts["carries.states_total"] += matrix.rows
                _bits(self.counts, _entries(matrix))
            elif kind == "V":
                _bits(self.counts, _entries(value))
            else:
                _bits(self.counts, value.coefficients)
        self._kept.clear()


def _entries(matrix) -> list:
    return [x for row in matrix.to_lists() for x in row]


def _bits(counts: Counter, values) -> None:
    num = max((abs(Fraction(x).numerator).bit_length() for x in values), default=0)
    den = max((Fraction(x).denominator.bit_length() for x in values), default=0)
    counts["exactmath.max_num_bits"] = max(counts["exactmath.max_num_bits"], num)
    counts["exactmath.max_den_bits"] = max(counts["exactmath.max_den_bits"], den)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
    return out


def layer_shares(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Share of traced in-process time (all of cli.main) spent in each layer."""
    total = summary.get("cli.main", {}).get("total_s", 0.0)
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        shares[LAYER[name]] += row["self_s"] / total if total else 0.0
    return shares
