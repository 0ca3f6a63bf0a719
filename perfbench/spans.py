"""In-memory span and counter recorder wrapped around gammacert's public calls.

The tracer replaces each public function listed in SPANS, in every loaded
``gammacert`` module that holds it (``from .balls import cert_le`` makes
``gammacert.verifier.cert_le`` the same object), with a wrapper that records
one span: name, start, end and the enclosing span.  A few calls are only
counted.  ``restore()`` puts every original back.  Nothing here changes an
argument, a result or an exception.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute) of every call a span is recorded around; the module
# names the layer.
# ``exact`` and ``errors`` are too fine-grained to wrap: their time lands in
# the caller's self time.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("planner", "make_plan"),
    ("planner", "schedule_X"),
    ("builder", "build"),
    ("builder", "enclose_u"),
    ("builder", "enclose_vw"),
    ("builder", "x_dot_u_lower"),
    ("stepper", "recursive_step"),
    ("cf", "locate_n"),
    ("cf", "ConvergentTable.extend_to"),
    ("cf", "ConvergentTable.extend_to_cover"),
    ("balls", "cert_le"),
    ("balls", "certified_compare"),
    ("verifier", "starred_ledger_audit"),
    ("verifier", "check_condition_iii"),
    ("verifier", "coeff_box_lemma3"),
    ("verifier", "dist_vw_upper"),
    ("verifier", "property_suites"),
    ("scan", "slab_scan_iv"),
    ("serialize", "dump_document"),
    ("serialize", "load_document"),
    ("serialize", "plan_body"),
    ("serialize", "state_body"),
    ("serialize", "report_body"),
)

# calls that are counted but get no span: each is too frequent and too
# small for a span not to distort the run
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("balls", "BallReal.refine"),
    ("cf", "ConvergentTable.__init__"),
)

LAYERS = ("balls", "cf", "stepper", "planner", "builder", "verifier", "scan",
          "serialize", "cli")

# span: (name, start, end, parent index or -1)
Span = Tuple[str, float, float, int]


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"gammacert.{module}")
    owner, _, name = attr.rpartition(".")
    return (getattr(mod, owner) if owner else mod), name


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.max_prec_bits = 0
        self._stack: List[int] = []
        self._tables: Dict[int, int] = {}  # id(live table) -> slot in _table_stats
        self._table_stats: List[Tuple[int, int]] = []  # (rows, bits of q_last)
        self._patched: List[Tuple[object, str, object]] = []
        balls = importlib.import_module("gammacert.balls")
        self._ball_type = balls.BallReal
        self._after: Dict[str, Callable] = {
            "balls.cert_le": self._after_cert_le,
            "cf.ConvergentTable.extend_to": self._after_extend,
            "cf.ConvergentTable.extend_to_cover": self._after_extend,
            "cf.ConvergentTable.__init__": self._after_table_init,
            "stepper.recursive_step": self._after_step,
            "builder.build": self._after_build,
            "verifier.coeff_box_lemma3": self._after_box,
            "scan.slab_scan_iv": self._after_slab,
            "serialize.dump_document": self._after_dump,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gammacert" or n.startswith("gammacert."))]
        for module, attr in SPANS:
            owner, name = _resolve(module, attr)
            orig = getattr(owner, name)
            wrapper = self._span_wrapper(f"{module}.{attr}", orig)
            if owner in modules:
                # every module that re-imported the name gets the wrapper too
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, name, wrapper)
        for module, attr in COUNTED:
            owner, name = _resolve(module, attr)
            self._patch(owner, name, self._count_wrapper(f"{module}.{attr}",
                                                         getattr(owner, name)))

    def restore(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        after = self._after.get(name)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return counted

    # -- counters read from arguments and results --------------------------

    def _after_cert_le(self, args, kwargs, result) -> None:
        self.counts["balls.cert_le"] += 1
        if result[0] is None:
            self.counts["balls.undecided"] += 1
        # the precision cert_le returns reads DEFAULT_MAX_PREC whenever one
        # side is exact, so take the precision each enclosure reached
        for operand in args[:2]:
            if isinstance(operand, self._ball_type) and not operand.is_exact:
                self.max_prec_bits = max(self.max_prec_bits, operand.prec)

    def _after_table_init(self, args, kwargs, result) -> None:
        # a new table may reuse the id of a freed one: give it a fresh slot
        self._tables.pop(id(args[0]), None)
        self._after_extend(args, kwargs, result)

    def _after_extend(self, args, kwargs, result) -> None:
        table = args[0]
        slot = self._tables.setdefault(id(table), len(self._table_stats))
        stats = (len(table), table.q[-1].bit_length())
        if slot == len(self._table_stats):
            self._table_stats.append(stats)
        else:
            self._table_stats[slot] = stats

    def _after_step(self, args, kwargs, result) -> None:
        self.counts["stepper.verdicts"] += len(result[1].verdicts)

    def _after_build(self, args, kwargs, result) -> None:
        self.counts["builder.ledger_verdicts"] += sum(len(e.verdicts) for e in result.ledger)

    def _after_box(self, args, kwargs, result) -> None:
        self.counts["verifier.box_in_window"] += result.in_window

    def _after_slab(self, args, kwargs, result) -> None:
        self.counts["scan.candidates"] += result.candidates
        self.counts["scan.fast_passed"] += result.fast_passed
        self.counts["scan.slow_checked"] += result.slow_checked

    def _after_dump(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["serialize.doc_bytes"] += os.path.getsize(path)

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start and end in seconds, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")

    def _inclusive(self, names: Tuple[str, ...]) -> float:
        """Total duration of spans of these names not nested in one another."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def self_times(self) -> Dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - inner
        return out

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        c, inc = self.counts, self._inclusive
        selfs = self.self_times()
        cert_calls = c["balls.cert_le"]
        box_s = inc(("verifier.coeff_box_lemma3",))
        candidates = c["scan.candidates"]
        rows = max((r for r, _ in self._table_stats), default=0)
        bits = max((b for _, b in self._table_stats), default=0)
        m = {
            "balls.cert_le_calls": (cert_calls, "count"),
            "balls.cert_le_s": (inc(("balls.cert_le",)), "s"),
            "balls.refines": (c["balls.BallReal.refine"], "count"),
            "balls.refines_per_cert": (c["balls.BallReal.refine"] / cert_calls
                                       if cert_calls else 0.0, "ratio"),
            "balls.max_prec_bits": (self.max_prec_bits, "bits"),
            "balls.undecided": (c["balls.undecided"], "count"),
            "cf.locate_n_s": (inc(("cf.locate_n",)), "s"),
            "cf.extend_s": (inc(("cf.ConvergentTable.extend_to",
                                 "cf.ConvergentTable.extend_to_cover")), "s"),
            "cf.table_rows": (rows, "rows"),
            "cf.q_bits": (bits, "bits"),
            "cf.tables_built": (c["cf.ConvergentTable.__init__"], "count"),
            "stepper.step_s": (inc(("stepper.recursive_step",)), "s"),
            "stepper.verdicts": (c["stepper.verdicts"], "count"),
            "planner.make_plan_s": (inc(("planner.make_plan",)), "s"),
            "planner.schedule_s": (inc(("planner.schedule_X",)), "s"),
            "builder.build_s": (inc(("builder.build",)), "s"),
            "builder.ledger_verdicts": (c["builder.ledger_verdicts"], "count"),
            "builder.x_dot_u_lower_calls": (self._calls("builder.x_dot_u_lower"), "count"),
            "verifier.audit_s": (inc(("verifier.starred_ledger_audit",)), "s"),
            "verifier.witness_s": (inc(("verifier.check_condition_iii",)), "s"),
            "verifier.box_s": (box_s, "s"),
            "verifier.box_in_window": (c["verifier.box_in_window"], "count"),
            "verifier.box_points_per_s": (c["verifier.box_in_window"] / box_s
                                          if box_s else 0.0, "1/s"),
            "verifier.dist_vw_upper_calls": (self._calls("verifier.dist_vw_upper"), "count"),
            "verifier.properties_s": (inc(("verifier.property_suites",)), "s"),
            "scan.slab_s": (inc(("scan.slab_scan_iv",)), "s"),
            "scan.candidates": (candidates, "count"),
            "scan.slow_checked": (c["scan.slow_checked"], "count"),
            "scan.fast_ratio": (c["scan.fast_passed"] / candidates
                                if candidates else 0.0, "ratio"),
            "serialize.dump_s": (inc(("serialize.dump_document",)), "s"),
            "serialize.load_s": (inc(("serialize.load_document",)), "s"),
            "serialize.doc_bytes": (c["serialize.doc_bytes"], "bytes"),
        }
        for layer, seconds in selfs.items():
            m[f"{layer}.self_s"] = (seconds, "s")
        return m

    def _calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)
