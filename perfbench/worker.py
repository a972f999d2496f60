"""One workload in one fresh interpreter: set-up, timed loop, results.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N [--part J]
        --seconds S --trace 0|1 --out RESULT.json [--probe]

Worker J of a run draws its inputs from the streams of (N, J), so no
two workers of a run share an input.  With --probe the process only
times its own set-up (import of the
program, critical_constants() and the workload's set-up) and exits.
Otherwise it runs whole rounds of operations as a closed loop, one call
at a time, until S seconds have passed, timing each call from outside,
while yardstick.Sampler runs the yardstick kernel every YARD_PERIOD
seconds (between calls and inside long ones).  It writes the raw timings
and (with --trace 1) the per-layer metrics to RESULT.json, and every
output the checks need to RESULT.json.records, one JSON line per call.
It checks nothing itself: run.py does, after it exits.
"""
import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

YARD_PERIOD = 0.01  # seconds between yardstick runs (about 6% of the time)
# rounds whose spans give the per-layer counts (the traced run finishes
# this many traced rounds even past its deadline, so counts repeat)
COUNT_ROUNDS = {"solve-scatter": 8, "sweep-ordered": 1, "map-eval": 4,
                "belyi-verify": 4}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    # ---- set-up, timed from before the program's first import
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sphrect
    from sphrect import accessory, belyi, cli, constants, developing, modulus
    mods = {"accessory": accessory, "developing": developing, "modulus": modulus,
            "constants": constants, "cli": cli, "belyi": belyi}
    tracer = None
    if args.trace and not args.probe:
        from tracer import Tracer
        tracer = Tracer(mods)
        tracer.install()
    k_crit = constants.critical_constants().k_crit
    workload = _setup(args.workload, (args.seed, args.part), k_crit, mods)
    setup_raw = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()

    result = {"workload": args.workload, "seed": args.seed,
              "program": os.path.dirname(os.path.abspath(sphrect.__file__)),
              "setup_raw_s": setup_raw}
    if args.probe:
        _write(args.out, result)
        return

    # ---- timed loop: whole rounds until the deadline
    import yardstick
    sampler = yardstick.Sampler(YARD_PERIOD)
    if tracer is not None:
        tracer.clock = sampler.net
    need = 2 * COUNT_ROUNDS[args.workload] if tracer else 1
    ops, op_traced = [], []
    rounds = 0
    # outputs go straight to disk, so memory does not grow with the run
    with open(args.out + ".records", "w", encoding="utf-8") as records:
        sampler.start()
        deadline = time.perf_counter() + args.seconds
        while rounds < need or time.perf_counter() < deadline:
            traced = tracer is not None and rounds % 2 == 0
            if traced:
                tracer.install()
            for run_op in workload.round():
                if traced:
                    tracer.op = len(ops)
                wall, net = time.perf_counter(), sampler.net()
                try:
                    out = run_op()
                except Exception as exc:  # counted as a failed operation
                    out = _error(exc)
                ops.append((wall, time.perf_counter(), sampler.net() - net))
                op_traced.append(traced)
                if callable(out):  # output still to collect, untimed
                    try:
                        out = out()
                    except Exception as exc:
                        out = _error(exc)
                records.write(json.dumps(out) + "\n")
            if traced:
                tracer.remove()
            rounds += 1
        sampler.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update(ops=ops, op_traced=op_traced, yard_t=sampler.start_s,
                  yard_s=sampler.dur_s, rounds=rounds,
                  peak_rss_mb=peak_rss_kb / 1024.0,
                  k_crit=k_crit, fixed=workload.fixed())
    if tracer is not None:
        from tracer import layer_metrics
        per_round = len(ops) // rounds
        traced_ops = {i for i, tr in enumerate(op_traced) if tr}
        count_ops = {i for i in traced_ops
                     if i // per_round < 2 * COUNT_ROUNDS[args.workload]}
        scale = yardstick.Y0 * len(sampler.dur_s) / sum(sampler.dur_s)
        result["layers"] = layer_metrics(tracer.spans, count_ops, traced_ops, scale)
        result["trace_file"] = args.out.replace(".json", ".spans.jsonl")
        tracer.dump(result["trace_file"])
    _write(args.out, result)


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


class _Workload:
    """round() returns the round's operations as zero-argument callables,
    each returning its output record (or a callable that collects it after
    the timing stops); fixed() the outputs of the fixed-input checks,
    computed untimed."""

    def __init__(self, mods, inputs):
        self.m, self.inputs = mods, inputs

    def fixed(self) -> dict:
        acc = self.m["accessory"]
        sol = acc.solve_family1(2.0)
        return {"k2_c": sol.c, "k2_alpha": sol.alpha}


class _Solve(_Workload):
    def round(self):
        acc = self.m["accessory"]

        def op(family, k):
            def run():
                fn = acc.solve_family1 if family == "first" else acc.solve_family2
                s = fn(k)
                return {"family": family, "k": k, "c": s.c, "alpha": s.alpha,
                        "residual": s.residual, "modulus": s.modulus}
            return run

        return [op(f, k) for f, k in self.inputs.round()]


class _Sweep(_Workload):
    def __init__(self, mods, inputs, csv_path):
        super().__init__(mods, inputs)
        self.csv = csv_path

    def round(self):
        from workloads import SWEEP_STEPS
        cli = self.m["cli"]

        def op(k_min, k_max):
            def run():
                code = cli.main(["sweep", "--k-min", repr(k_min), "--k-max",
                                 repr(k_max), "--steps", str(SWEEP_STEPS),
                                 "--out", self.csv])
                if code != 0:
                    raise RuntimeError(f"sphrect sweep exited {code}")
                return read_back

            def read_back():
                with open(self.csv, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                return {"k_min": k_min, "k_max": k_max, "header": lines[0],
                        "rows": [ln.split(",") for ln in lines[1:]]}
            return run

        return [op(a, b) for a, b in self.inputs.round()]


class _Map(_Workload):
    def __init__(self, mods, inputs, sols):
        super().__init__(mods, inputs)
        self.sols = sols

    def round(self):
        dev = self.m["developing"]

        def op(kind, i, arg):
            sol = self.sols[i]

            def run():
                if kind == "boundary":
                    r = dev.boundary_check(sol, samples_per_side=arg)
                    return {"kind": kind, "sol": i, "samples": arg,
                            "alpha": r.alpha,
                            "sides": [[s.side, s.target, s.samples,
                                       s.max_dist_assigned] for s in r.sides]}
                return {"kind": kind, "sol": i, "z": _pair(complex(arg)),
                        "L": _pair(dev.L_eval(sol, arg))}
            return run

        return [op(*o) for o in self.inputs.round()]

    def fixed(self):
        out = super().fixed()
        out["solutions"] = [
            {"family": s.param.family.value, "k": s.k, "c": s.c, "A": s.A,
             "alpha": s.alpha, "residual": s.residual, "modulus": s.modulus,
             "L1": _pair(self.m["developing"].L_eval(s, 1.0))}
            for s in self.sols]
        return out


class _Belyi(_Workload):
    def round(self):
        bel = self.m["belyi"]

        def op(kind, n, variant):
            def run():
                rec = {"kind": kind, "example": n, "variant": variant}
                if kind == "conditions":
                    rec["conditions"] = bel.example2_conditions(variant)
                    return rec
                try:
                    portrait = bel.verify_belyi(bel.example_map(n, variant))
                except bel.BelyiViolationError as exc:
                    rec["raised"] = type(exc).__name__
                    return rec
                rec["degree"] = portrait.degree
                rec["points"] = [
                    [None if q.point is None else _pair(complex(q.point)),
                     q.local_degree, "inf" if q.critical_value == float("inf")
                     else q.critical_value] for q in portrait.points]
                return rec
            return run

        return [op(*o) for o in self.inputs.round()]

    def fixed(self):
        return {}


def _setup(name: str, seed: tuple[int, int], k_crit: float,
           mods: dict) -> _Workload:
    # imported here, not at the top: numpy must first load inside the
    # program's import, which set-up time covers
    import workloads as wl
    if name == "solve-scatter":
        return _Solve(mods, wl.SolveInputs(seed, k_crit))
    if name == "sweep-ordered":
        csv = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                           "sweep-%d-%d.csv" % seed)
        return _Sweep(mods, wl.SweepInputs(seed, k_crit), csv)
    if name == "map-eval":
        acc = mods["accessory"]
        sols = [(acc.solve_family1 if f == "first" else acc.solve_family2)(k)
                for f, k in wl.map_solution_ks(seed)]
        return _Map(mods, wl.MapInputs(seed, [(s.k, s.c) for s in sols]), sols)
    if name == "belyi-verify":
        bel = mods["belyi"]
        for _, n, variant in wl.BELYI_OPS:
            bel.example_map(n, variant)
        return _Belyi(mods, wl.BelyiInputs(seed))
    raise SystemExit(f"unknown workload {name!r}")


if __name__ == "__main__":
    main()
