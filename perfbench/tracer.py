"""Spans and counts around the public calls into each atlir module.

The tracer wraps module attributes from outside the program, so the
per-layer numbers need no change to ``atlir``.  A span is
``[name, start, end, parent, op]``: ``parent`` indexes the enclosing span
(-1 for none) and ``op`` names the benchmark op it belongs to.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  A function imported into several
# modules is patched at each place it is looked up.
TARGETS = (
    ("atlir.cli", "build_parser", "cli.build_parser"),
    ("atlir.cli", "load_cgs", "cgs.load_cgs"),
    ("atlir.cgs", "validate_cgs", "cgs.validate_cgs"),
    ("atlir.cli", "parse_formula", "formulas.parse_formula"),
    ("atlir.cli", "check", "mc.check"),
    ("atlir.cli", "load_tm", "turing.load_tm"),
    ("atlir.cli", "build_cgs", "reduction.build_cgs"),
    ("atlir.cli", "simulation_tree", "reduction.simulation_tree"),
    ("atlir.reduction", "simulation_tree", "reduction.simulation_tree"),
    ("atlir.reduction", "saturate", "comptree.saturate"),
    ("atlir.comptree", "level", "comptree.level"),
    ("atlir.reduction", "level", "comptree.level"),
    ("atlir.cli", "decode_level", "reduction.decode_level"),
    ("atlir.reduction", "decode_level", "reduction.decode_level"),
    ("atlir.cli", "verify_construction", "reduction.verify_construction"),
)

OP = "op"


def _count_verdict(verdict, counts: Counter) -> None:
    counts[f"mc.verdict_{verdict.value.value.lower()}"] += 1
    if isinstance(verdict.counterexample, list):
        counts["mc.cex_len"] += len(verdict.counterexample)


def _count_tree(tree, counts: Counter) -> None:
    counts["comptree.nodes"] += len(tree)


def _count_report(report, counts: Counter) -> None:
    counts["reduction.claim_entries"] += len(report.entries)
    counts["reduction.claims_failed"] += len(report.failures())


RESULT_COUNTERS = {
    "mc.check": _count_verdict,
    "comptree.saturate": _count_tree,
    "reduction.verify_construction": _count_report,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_result = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, self.counts)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_op(self, op_id: str, start: float) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP, start, 0.0, -1, op_id])

    def end_op(self, end: float) -> None:
        self.spans[self._stack.pop()][2] = end
        self._op = None

    def write(self, path, meta: dict) -> None:
        doc = dict(meta, fields=["name", "start", "end", "parent", "op"], spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_totals(
    spans: list[list], first: int, last: int, duration
) -> tuple[Counter, Counter, Counter]:
    """Per span name, from ``spans[first:last]``: total time, self time
    (time minus that of the spans directly inside) and call count.  A
    span's time is ``duration(start, end)``."""
    total, self_time, calls = Counter(), Counter(), Counter()
    took = [duration(start, end) for _, start, end, _, _ in spans[first:last]]
    inner = Counter()
    for (_, _, _, parent, _), seconds in zip(spans[first:last], took):
        if parent >= first:
            inner[parent] += seconds
    for index, seconds in enumerate(took, first):
        name = spans[index][0]
        total[name] += seconds
        self_time[name] += seconds - inner[index]
        calls[name] += 1
    return total, self_time, calls


def layer_metrics(spans, first: int, last: int, counts: Counter, payload_bytes: int,
                  duration) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    total, self_time, calls = layer_totals(spans, first, last, duration)
    checks = calls["mc.check"]
    decided = counts["mc.verdict_true"] + counts["mc.verdict_false"]
    ms = Counter({name: 1000 * seconds for name, seconds in total.items()})
    return {
        "cli.parser_ms": ms["cli.build_parser"],
        "cli.self_ms": 1000 * self_time[OP],
        "cli.payload_bytes": payload_bytes,
        "cgs.load_ms": ms["cgs.load_cgs"],
        "cgs.validate_ms": ms["cgs.validate_cgs"],
        "cgs.load_calls": calls["cgs.load_cgs"],
        "formulas.parse_ms": ms["formulas.parse_formula"],
        "formulas.parse_calls": calls["formulas.parse_formula"],
        "mc.check_ms": ms["mc.check"],
        "mc.check_calls": checks,
        "mc.share": total["mc.check"] / total[OP],
        "mc.verdict_true": counts["mc.verdict_true"],
        "mc.verdict_false": counts["mc.verdict_false"],
        "mc.verdict_unknown": counts["mc.verdict_unknown"],
        "mc.decided_share": decided / checks if checks else 0.0,
        "mc.cex_len": counts["mc.cex_len"],
        "comptree.saturate_ms": ms["comptree.saturate"],
        "comptree.level_ms": ms["comptree.level"],
        "comptree.nodes": counts["comptree.nodes"],
        "comptree.level_calls": calls["comptree.level"],
        "reduction.build_ms": ms["reduction.build_cgs"],
        "reduction.verify_ms": ms["reduction.verify_construction"],
        "reduction.decode_ms": ms["reduction.decode_level"],
        "reduction.claim_entries": counts["reduction.claim_entries"],
        "reduction.claims_failed": counts["reduction.claims_failed"],
        "turing.load_ms": ms["turing.load_tm"],
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
