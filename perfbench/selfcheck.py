"""Show that the checks catch wrong answers.

    python3 perfbench/selfcheck.py

For each workload, runs the worker for a few seconds, confirms that the
checks pass on its real outputs, then perturbs the outputs one operation
at a time (c by 1e-6, L by 1e-6, a portrait point by 1e-6, a local
degree by one, ...) and confirms that the checks report every perturbed
operation.  Exits 1 if any wrong answer goes unreported.
"""
from __future__ import annotations

import copy
import os
import sys
from types import SimpleNamespace

import run

PER_KIND = 6  # perturbed operations per workload and perturbation


def _perturbations(workload: str):
    """(name, function that wrongs one record in place, or returns False
    when the record has nothing to perturb)."""
    def shift(key, by):
        def f(rec):
            rec[key] += by
        return f

    def sweep_c(rec):
        row = rec["rows"][len(rec["rows"]) // 3]
        row[1] = repr(float(row[1]) + 1e-6)

    def map_L(kind):
        def f(rec):
            if rec["kind"] != kind:
                return False
            rec["L"][0 if kind == "complex" else 1] += 1e-6
        return f

    def boundary_alpha(rec):
        if rec["kind"] != "boundary":
            return False
        rec["alpha"] += 1e-6

    def belyi_point(rec):
        if rec.get("points") is None:
            return False
        rec["points"][0][0] = [rec["points"][0][0][0] + 1e-6, 0.0] \
            if rec["points"][0][0] is not None else [1e-6, 0.0]

    def belyi_degree(rec):
        if rec.get("points") is None:
            return False
        rec["points"][0][1] += 1

    def printed_passes(rec):
        if rec.get("raised") is None:
            return False
        del rec["raised"]
        rec.update(degree=6, points=[])

    return {
        "solve-scatter": [("c + 1e-6", shift("c", 1e-6)),
                          ("modulus + 1e-9", shift("modulus", 1e-9))],
        "sweep-ordered": [("c + 1e-6 in one row", sweep_c)],
        "map-eval": [("complex L + 1e-6", map_L("complex")),
                     ("real L + 1e-6 i", map_L("real")),
                     ("boundary alpha + 1e-6", boundary_alpha)],
        "belyi-verify": [("portrait point + 1e-6", belyi_point),
                         ("local degree + 1", belyi_degree),
                         ("printed variant passes", printed_passes)],
    }[workload]


def main() -> int:
    ref = run.oracle.references()
    os.makedirs(run.OUT, exist_ok=True)
    missed = 0
    for workload in run.workloads.WORKLOADS:
        args = SimpleNamespace(workload=workload, seed=1, seconds=3.0, trace=0)
        res = run._worker(args, os.path.join(run.OUT, f"selfcheck-{workload}.json"))
        clean = run.check(workload, res, ref, 1)
        print(f"{workload}: {len(res['records'])} operations, "
              f"{len(clean)} problems on the real outputs")
        missed += bool(clean)
        for name, wrong in _perturbations(workload):
            tried = flagged = 0
            for rec in res["records"]:
                if tried == PER_KIND:
                    break
                one = copy.deepcopy(res)
                bad = copy.deepcopy(rec)
                if wrong(bad) is False:
                    continue
                one["records"] = [bad]
                tried += 1
                flagged += bool(run.check(workload, one, ref, 1))
            print(f"  {name}: {flagged} of {tried} wrong operations reported")
            missed += flagged != tried or tried == 0
        for key, by in (("k2_c", 1e-6), ("k2_alpha", 1e-6)):
            if key in res["fixed"]:
                one = copy.deepcopy(res)
                one["fixed"][key] += by
                one["records"] = []
                hit = bool(run.check(workload, one, ref, 1))
                print(f"  {key} + {by:g}: {'reported' if hit else 'MISSED'}")
                missed += not hit
    print("all wrong answers reported" if not missed else f"{missed} checks missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
