"""Spans around the calls each layer of the program makes into the next.

The tracer replaces, for the length of one traced round, the names that
each caller module of the program looks up at call time (for example
`accessory.bigF`, which the root finder's lambdas resolve on every call)
with wrappers that record a span.  Nothing inside the program changes.
Integrands handed to the quadrature are wrapped as well, to count the
nodes they are evaluated on and the time spent inside them.

A span is [name, start, end, parent, op, child, nodes, integrand]; times
are seconds on `clock` (the yardstick sampler's net clock during the timed
loop, so yardstick runs fall outside every span), parent is the index of
the enclosing span or -1, op the operation id (-1 during set-up).  Self
time is the span's duration minus child (its child spans) and integrand
(callbacks into the caller's integrand, which belong to no layer's self
time).
"""
from __future__ import annotations

import json
import time

import numpy as np

# (module, attribute, span name, what argument 0 is)
WRAPS = (
    ("accessory", "solve_family1", "accessory.solve_family1", None),
    ("accessory", "solve_family2", "accessory.solve_family2", None),
    ("accessory", "bigF", "accessory.bigF", None),
    ("accessory", "family2_integral", "accessory.family2_integral", None),
    ("accessory", "integrate_singular", "quadrature.integrate_singular", "f"),
    ("accessory", "modulus_of_k", "modulus.modulus_of_k", None),
    ("developing", "alpha_from_parts", "developing.alpha_from_parts", None),
    ("developing", "L_eval", "developing.L_eval", None),
    ("developing", "boundary_check", "developing.boundary_check", None),
    ("developing", "_run_pieces", "quadrature._run_pieces", "pieces"),
    ("developing", "integrate_arc", "quadrature.integrate_arc", "f"),
    ("developing", "integrate_segment", "quadrature.integrate_segment", "f"),
    ("modulus", "ellip_K", "elliptic.ellip_K", None),
    ("constants", "ellip_K", "elliptic.ellip_K", None),
    ("constants", "ellip_E", "elliptic.ellip_E", None),
    ("constants", "modulus_of_k", "modulus.modulus_of_k", None),
    ("constants", "critical_constants", "constants.critical_constants", None),
    ("cli", "main", "cli.main", None),
    ("cli", "solve_family1", "accessory.solve_family1", None),
    ("cli", "solve_family2", "accessory.solve_family2", None),
    ("cli", "critical_constants", "constants.critical_constants", None),
    ("belyi", "verify_belyi", "belyi.verify_belyi", None),
    ("belyi", "example2_conditions", "belyi.example2_conditions", None),
)

NAME, START, END, PARENT, OP, CHILD, NODES, INTEGRAND = range(8)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.clock = time.perf_counter
        self.originals = {(m, a): getattr(modules[m], a) for m, a, _, _ in WRAPS}
        self.wrapped = {(m, a): self._wrap(self.originals[(m, a)], name, arg)
                        for m, a, name, arg in WRAPS}

    def install(self) -> None:
        for (m, a), fn in self.wrapped.items():
            setattr(self.modules[m], a, fn)

    def remove(self) -> None:
        for (m, a), fn in self.originals.items():
            setattr(self.modules[m], a, fn)

    def _counted(self, f):
        spans, stack = self.spans, self.stack

        def integrand(x):
            t = self.clock()
            y = f(x)
            rec = spans[stack[-1]]
            rec[INTEGRAND] += self.clock() - t
            rec[NODES] += np.size(x)
            return y

        return integrand

    def _wrap(self, fn, name: str, arg: str | None):
        spans, stack, counted = self.spans, self.stack, self._counted

        def wrapper(*args, **kwargs):
            if arg == "f":
                args = (counted(args[0]),) + args[1:]
            elif arg == "pieces":
                args = ([(counted(f), a, b) for f, a, b in args[0]],) + args[1:]
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = self.clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += rec[END] - rec[START]

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start_s end_s parent op child_s nodes integrand_s\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[list], count_ops: set[int], time_ops: set[int],
                  scale: float) -> dict[str, float]:
    """Per-layer metrics from the spans.

    Counts are per operation over count_ops (a fixed, seeded set of
    operations, so they repeat exactly), except the functional evaluations,
    which are per solve of their family; times are reference-speed ms per
    operation over time_ops.  scale = Y0 / Y converts raw times.
    """
    nc, nt = max(len(count_ops), 1), max(len(time_ops), 1)
    counts: dict[str, float] = {}
    ms: dict[str, float] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for rec in spans:
        name, op = rec[NAME], rec[OP]
        layer = name.split(".")[0]
        dur = rec[END] - rec[START]
        if op in count_ops:
            add(counts, name, 1)
            add(counts, layer + ".calls", 1)
            add(counts, layer + ".nodes", rec[NODES])
        if op in time_ops:
            add(ms, name, dur)
            add(ms, layer + ".self", dur - rec[CHILD] - rec[INTEGRAND])
            if rec[PARENT] < 0 or spans[rec[PARENT]][NAME].split(".")[0] != layer:
                add(ms, layer + ".outer", dur)  # layer time, nested calls once
        elif op < 0:
            add(ms, "setup." + name, dur)

    def c(key, per=None):
        n = counts.get(key, 0.0)
        return n / (counts[per] if per else nc) if n else 0.0

    def t(key, per_op=True):
        return ms.get(key, 0.0) * 1e3 * scale / (nt if per_op else 1)

    return {
        "accessory.bigF_calls": c("accessory.bigF", "accessory.solve_family1"),
        "accessory.family2_calls": c("accessory.family2_integral",
                                     "accessory.solve_family2"),
        "quadrature.integrals": c("quadrature.calls"),
        "quadrature.nodes": c("quadrature.nodes"),
        "quadrature.self_ms": t("quadrature.self"),
        "developing.alpha_ms": t("developing.alpha_from_parts"),
        "developing.L_eval_ms": t("developing.L_eval"),
        "developing.boundary_ms": t("developing.boundary_check"),
        "developing.self_ms": t("developing.self"),
        "elliptic.calls": c("elliptic.calls"),
        "elliptic.ms": t("elliptic.outer"),
        "modulus.calls": c("modulus.calls"),
        "modulus.ms": t("modulus.outer"),
        "constants.critical_ms": t("setup.constants.critical_constants", per_op=False),
        "belyi.verify_ms": t("belyi.verify_belyi"),
        "belyi.conditions_ms": t("belyi.example2_conditions"),
        "cli.self_ms": t("cli.self"),
    }
