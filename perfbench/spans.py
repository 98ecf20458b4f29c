"""Span tracing for the benchmark's traced run.

Spans are recorded around calls into the public functions of each
`gdyn` module.  The library imports functions by name, so a function is
wrapped in the namespace of the module that calls it (for example
`gdyn.corpus.generate` and `gdyn.checkers.product_system`); constructors
are wrapped on their class.  Nothing under `src/` is edited.

A span is `[name, parent, group, start, end, failed]`: `parent` is the
index of the enclosing span (-1 at top level) and `group` ties together
the spans of one system or one command.  Spans stay in memory; the caller
writes them out when the run ends.  Counts are taken from returned values
(witness certificates, cache horizons, product carrier sizes).
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter

# attribute name -> span name, patched in every caller namespace below
SPAN_NAMES = {
    "parse": "sysfile.parse",
    "product": "topology.product",
    "product_group": "algebra.product_group",
    "product_action": "algebra.product_action",
    "quotient": "algebra.quotient",
    "product_system": "dynamics.product_system",
    "nfold_system": "dynamics.nfold",
    "precondition_flags": "checkers.preconditions",
    "is_g_transitive": "checkers.gt",
    "is_totally_g_transitive": "checkers.tgt",
    "is_weakly_g_mixing": "checkers.wgm",
    "_wgm_direct": "checkers.wgm_direct",
    "is_strongly_g_mixing": "checkers.sgm",
    "is_g_minimal": "checkers.gm",
    "minimality_cover_criterion": "checkers.cover",
    "g_minimal_sets": "checkers.minimal_sets",
    "is_n_fold_transitive": "checkers.nfold",
    "quotient_minimality": "checkers.quotient",
    "sgm_sufficient_condition": "checkers.sgm_condition",
    "generate": "corpus.generate",
    "enumerate_systems": "corpus.enumerate",
}

CALLER_MODULES = ("gdyn.algebra", "gdyn.dynamics", "gdyn.checkers",
                  "gdyn.corpus", "gdyn.cli")

# constructors wrapped on the class: (module, class, span name)
INIT_SPANS = (
    ("gdyn.algebra", "Group", "algebra.group"),
    ("gdyn.algebra", "Action", "algebra.action"),
    ("gdyn.dynamics", "IterateCache", "dynamics.cache"),
)

# spans whose returned PropertyReport carries certificates to the user
# (public wgm returns the direct route's report; n-fold returns the
# witness of its scan on the product)
_CERTIFYING = {"checkers.gt", "checkers.tgt", "checkers.wgm_direct", "checkers.sgm",
               "checkers.nfold"}
# checkers that run a transitivity scan of their own on a derived system;
# such an inner scan is reported as `checkers.gt_inner`, and its
# certificates are not counted (the caller discards or returns them)
_GT_CALLERS = {"checkers.wgm", "checkers.nfold", "checkers.sgm_condition"}


def is_inner_gt(spans: list[list], i: int) -> bool:
    name, parent = spans[i][0], spans[i][1]
    return name == "checkers.gt" and parent >= 0 and spans[parent][0] in _GT_CALLERS


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = 0
        self.on = False
        self.counts = {
            "checkers.certificates": 0,
            "dynamics.product_points": 0,
            "dynamics.cache_tables": 0,
            "dynamics.cache_bytes_computed": 0,
            "dynamics.horizon_max": 0,
        }

    def new_group(self) -> None:
        self.group += 1

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.group, perf_counter(), 0.0, False])
        self.stack.append(sid)
        return sid

    def _end(self, sid: int, failed: bool) -> None:
        span = self.spans[sid]
        span[4] = perf_counter()
        span[5] = failed
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if name == "corpus.generate":
                self.new_group()
            sid = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._end(sid, True)
                raise
            self._end(sid, False)
            self._count(sid, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """One span per produced item; each item starts a new group."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = None
                if self.on:
                    self.new_group()
                    sid = self._begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if sid is not None:
                        self._end(sid, False)
                yield item

        traced.__wrapped__ = fn
        return traced

    def _count(self, sid: int, args, out) -> None:
        c = self.counts
        name = self.spans[sid][0]
        if name in _CERTIFYING and not is_inner_gt(self.spans, sid):
            w = out.witness
            if w and "certificates" in w:
                c["checkers.certificates"] += len(w["certificates"])
        elif name == "dynamics.product_system":
            # n-fold products are built by product_system calls, counted here
            c["dynamics.product_points"] += out.space.n
        elif name == "dynamics.cache":
            cache = args[0]
            tables = len(cache.powers)
            c["dynamics.cache_tables"] += tables
            c["dynamics.cache_bytes_computed"] += tables * len(cache.powers[0]) * 8
            c["dynamics.horizon_max"] = max(c["dynamics.horizon_max"], cache.horizon)

    def install(self) -> None:
        """Wrap every listed function in every loaded caller namespace."""
        for modname in CALLER_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, name in SPAN_NAMES.items():
                fn = getattr(mod, attr, None)
                if fn is None or not callable(fn):
                    continue
                if name == "corpus.enumerate":
                    setattr(mod, attr, self.wrap_generator(name, fn))
                else:
                    setattr(mod, attr, self.wrap(name, fn))
        for modname, cls_name, name in INIT_SPANS:
            cls = getattr(importlib.import_module(modname), cls_name)
            cls.__init__ = self.wrap(name, cls.__init__)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def merge(parts: list[dict]) -> dict:
    """Concatenate exported traces (e.g. one per CLI process), keeping
    parent links and giving each part its own groups."""
    spans: list[list] = []
    counts: dict = {}
    group_base = 0
    for part in parts:
        base = len(spans)
        top = 0
        for name, parent, group, t0, t1, failed in part["spans"]:
            spans.append([name, parent + base if parent >= 0 else -1,
                          group + group_base, t0, t1, failed])
            top = max(top, group)
        group_base += top + 1
        for k, v in part["counts"].items():
            counts[k] = max(counts.get(k, 0), v) if k.endswith("_max") else counts.get(k, 0) + v
    return {"spans": spans, "counts": counts}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[4] - s[3]
    return out


def layer_metrics(trace: dict, passes: float) -> dict:
    """Per-layer figures from one traced phase.  Times and counts are per
    pass of the workload's work list, so they compare with `wall_s`."""
    spans = trace["spans"]
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    failures: dict[str, int] = {}
    route = 0.0
    checker_groups = set()
    for i, (name, parent, group, t0, t1, failed) in enumerate(spans):
        if is_inner_gt(spans, i):
            name = "checkers.gt_inner"
        if name.startswith("checkers."):
            checker_groups.add(group)
        by_name[name] = by_name.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        failures[name] = failures.get(name, 0) + bool(failed)
        if name == "checkers.wgm":
            route += t1 - t0
        elif (name == "checkers.wgm_direct" and parent >= 0
              and spans[parent][0] == "checkers.wgm"):
            route -= t1 - t0
    oracle_s = sum(v for k, v in by_name.items() if k.startswith("oracle."))
    oracle_calls = sum(v for k, v in calls.items() if k.startswith("oracle."))
    per = 1.0 / passes if passes else 0.0

    def t(name: str) -> float:
        return by_name.get(name, 0.0) * per

    gen_calls = calls.get("corpus.generate", 0)
    gen_fail = failures.get("corpus.generate", 0)
    counts = trace["counts"]
    systems = len(checker_groups)
    out = {
        "algebra.product_group_s": t("algebra.product_group"),
        "algebra.product_action_s": t("algebra.product_action"),
        "algebra.group_s": t("algebra.group"),
        "algebra.action_s": t("algebra.action"),
        "algebra.quotient_s": t("algebra.quotient"),
        "topology.product_s": t("topology.product"),
        "dynamics.product_system_s": t("dynamics.product_system"),
        "dynamics.product_points": counts.get("dynamics.product_points", 0) * per,
        "dynamics.nfold_s": t("dynamics.nfold"),
        "dynamics.cache_s": t("dynamics.cache"),
        "dynamics.cache_tables": counts.get("dynamics.cache_tables", 0) * per,
        "dynamics.cache_bytes_computed": counts.get("dynamics.cache_bytes_computed", 0) * per,
        "dynamics.horizon_max": counts.get("dynamics.horizon_max", 0),
        "checkers.wgm_product_route_s": route * per,
        "checkers.gt_s": t("checkers.gt"),
        "checkers.gt_inner_s": t("checkers.gt_inner"),
        "checkers.tgt_s": t("checkers.tgt"),
        "checkers.wgm_s": t("checkers.wgm") + t("checkers.wgm_direct"),
        "checkers.sgm_s": t("checkers.sgm"),
        "checkers.gm_s": t("checkers.gm"),
        "checkers.cover_s": t("checkers.cover"),
        "checkers.minimal_sets_s": t("checkers.minimal_sets"),
        "checkers.nfold_s": t("checkers.nfold"),
        "checkers.quotient_s": t("checkers.quotient"),
        "checkers.precondition_calls": (calls.get("checkers.preconditions", 0) / systems
                                        if systems else 0.0),
        "checkers.certificates": counts.get("checkers.certificates", 0) * per,
        "corpus.generate_s": t("corpus.generate"),
        "corpus.generate_calls": gen_calls * per,
        "corpus.generation_failures": gen_fail * per,
        "corpus.enumerate_s": t("corpus.enumerate"),
        "corpus.checked_ratio": (gen_calls - gen_fail) / gen_calls if gen_calls else 0.0,
        "sysfile.parse_s": t("sysfile.parse"),
        "oracle.s": oracle_s,
        "oracle.calls": oracle_calls,
    }
    return out


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0
