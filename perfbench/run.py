"""Benchmark of sphrect: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding src/sphrect.  The run

1. starts fresh interpreters that only set up (worker.py --probe), to
   time set-up: import, critical_constants() and the workload's set-up;
2. starts MEASURE_PROCS more fresh interpreters, one after another, that
   set up and then run the workload's operations one at a time, S /
   MEASURE_PROCS seconds each (worker.py; one process for S seconds
   when tracing);
3. checks every output against the mpmath oracle and the properties in
   README.md, here, after the workers have exited;
4. prints a detail line (raw timings beside the scaled ones) and, last,
   {"correct", "attempted", "failed", "metrics"}.

Every timing is in reference-speed units: raw time * Y0 / Y, with Y the
mean time of the yardstick kernel (yardstick.py) around that timing: over
the kernel's runs during an operation (at least the nearest MIN_YARD), and
over runs just before and after a set-up probe.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics, from a run whose even rounds are traced.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

import oracle
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 6          # measured probes; one more runs first to warm caches
MEASURE_PROCS = 4         # processes that share a run's measured seconds
SETUP_YARD_REPS = 20      # yardstick runs before and after each probe
MIN_YARD = 10             # yardstick runs behind each operation's scale, at least
SAMPLE = 2                # per family and process: checked by the 30-digit oracle
FP_SAMPLE = 1000          # map targets per process checked by the fp oracle
C_STEP = 1e-9             # the 30-digit functional changes sign across c -+ this
FUNCTIONAL_TOL = 1e-10    # |functional(c)| from either oracle
RESIDUAL_TOL = 1e-9       # the program's own residual gate
MODULUS_RTOL = 1e-11
CIRCLE_TOL = 1e-8         # distance of exp L from its side's circle, log scale
L_TOL = 1e-8              # program L against the double-precision oracle
L_TOL_30 = 1e-10          # program L against the 30-digit oracle
K2_C_TOL, K2_ALPHA_TOL, K_CRIT_TOL = 1e-11, 1e-9, 1e-10
SWEEP_HEADER = "k,c,alpha,modulus,residual,family"
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sphrect", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/sphrect is missing",
              file=sys.stderr)
        return 2
    if yardstick.kernel()[1] != yardstick.EXPECTED_PANELS:
        print("error: the yardstick kernel no longer does its fixed work",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    # set-up samples: (raw seconds, scale) per fresh interpreter, scaled by
    # the yardstick timed here just before and just after the probe
    setups = []
    for i in range(SETUP_PROBES + 1):
        before = _yard_times(SETUP_YARD_REPS)
        probe = _worker(args, os.path.join(OUT, f"{tag}.probe.json"), probe=True)
        if i > 0:
            around = before + _yard_times(SETUP_YARD_REPS)
            setups.append((probe["setup_raw_s"], _scale(around)))
    # the measured work is split over fresh processes run one after another:
    # a process's own speed offset (a few per cent) then averages out
    parts = 1 if args.trace else MEASURE_PROCS
    results = [_worker(args, os.path.join(OUT, f"{tag}.{j}.json"), part=j,
                       seconds=args.seconds / parts) for j in range(parts)]

    ref = oracle.references()
    problems = [p for res in results for p in check(args.workload, res, ref, args.seed)]
    records = [r for res in results for r in res["records"]]
    failed = sum(1 for r in records if "error" in r)
    net = np.concatenate([[op[2] for op in res["ops"]] for res in results])
    scaled = net * np.concatenate([_op_scales(res) for res in results])
    untraced = ~np.concatenate([res["op_traced"] for res in results]).astype(bool)
    timed, raw = scaled[untraced], net[untraced]
    yard = [y for res in results for y in res["yard_s"]]
    e2e = {
        "ops_per_s": len(timed) / timed.sum(),
        "latency_p50_ms": statistics.median(timed) * 1e3,
        "latency_p90_ms": _p90(timed) * 1e3,
        "setup_s": statistics.median(raw_s * sc for raw_s, sc in setups),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "processes": parts, "rounds": sum(res["rounds"] for res in results),
        "ops_timed": len(timed), "yardstick_ms": statistics.fmean(yard) * 1e3,
        "yardstick_runs": len(yard), "Y0_ms": yardstick.Y0 * 1e3,
        "raw": {"ops_per_s": len(raw) / raw.sum(),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_p90_ms": _p90(raw) * 1e3,
                "setup_s": statistics.median(raw_s for raw_s, _ in setups)},
        "scaled": e2e, "setup_samples": setups,
        "problems": problems[:20], "problem_count": len(problems),
    }
    if args.trace:
        res = results[0]
        layers = dict(res["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            scaled[~untraced].mean() / timed.mean() - 1.0)
        detail["trace_file"] = os.path.relpath(res["trace_file"], ROOT)
        detail["layers"] = layers
        wanted, values = bench["per_layer"], layers
    else:
        wanted, values = bench["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


def _scale(yard_s: list[float]) -> float:
    return yardstick.Y0 / statistics.fmean(yard_s)


def _op_scales(res: dict) -> np.ndarray:
    """Y0 / Y per operation, Y the yardstick's mean over its runs during
    the operation, widened to the nearest MIN_YARD runs for short ones."""
    t, d = np.array(res["yard_t"]), np.array(res["yard_s"])
    if len(t) < MIN_YARD:
        raise SystemExit(f"only {len(t)} yardstick runs")
    csum = np.concatenate([[0.0], np.cumsum(d)])
    ops = np.array([op[:2] for op in res["ops"]])
    lo = np.searchsorted(t, ops[:, 0])
    hi = np.searchsorted(t, ops[:, 1])
    short = hi - lo < MIN_YARD
    mid = (lo + hi) // 2
    lo = np.where(short, np.clip(mid - MIN_YARD // 2, 0, len(t) - MIN_YARD), lo)
    hi = np.where(short, lo + MIN_YARD, hi)
    return yardstick.Y0 * (hi - lo) / (csum[hi] - csum[lo])


def _yard_times(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t = time.perf_counter()
        yardstick.kernel()
        out.append(time.perf_counter() - t)
    return out


def _p90(xs: np.ndarray) -> float:
    if len(xs) < 2:
        return float(xs[0])
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def _worker(args, out: str, probe: bool = False, part: int = 0,
            seconds: float | None = None) -> dict:
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--part", str(part), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", out] + (["--probe"] if probe else [])
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    for stale in (out, out + ".records"):
        if os.path.exists(stale):
            os.remove(stale)
    with open(os.path.join(OUT, "worker.log"), "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                              timeout=60 if probe else seconds + 60)
    if proc.returncode != 0 or not os.path.exists(out):
        with open(os.path.join(OUT, "worker.log"), encoding="utf-8") as log:
            tail = log.read()[-2000:]
        raise SystemExit(f"worker failed (exit {proc.returncode}):\n{tail}")
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    if not probe:
        with open(out + ".records", encoding="utf-8") as fh:
            res["records"] = [json.loads(line) for line in fh]
    src = os.path.join(ROOT, "src", "sphrect")
    if os.path.realpath(res["program"]) != os.path.realpath(src):
        raise SystemExit(f"worker measured {res['program']}, not {src}")
    return res


# ------------------------------------------------------------------ checks

def check(workload: str, res: dict, ref: dict, seed: int) -> list[str]:
    """Every problem found in one run's outputs; empty when all is right."""
    bad: list[str] = []
    if abs(res["k_crit"] - ref["k_crit"]) > K_CRIT_TOL:
        bad.append(f"k_crit {res['k_crit']!r} != mpmath root {ref['k_crit']!r}")
    fixed = res["fixed"]
    if "k2_c" in fixed:
        if abs(fixed["k2_c"] - ref["k2_c"]) > K2_C_TOL:
            bad.append(f"k=2 gives c={fixed['k2_c']!r}, not sqrt(3)-1")
        if abs(fixed["k2_alpha"] - 0.5) > K2_ALPHA_TOL:
            bad.append(f"k=2 gives alpha={fixed['k2_alpha']!r}, not 1/2")
    rng = np.random.default_rng([seed, 99])
    ok = [r for r in res["records"] if "error" not in r]
    if workload == "solve-scatter":
        bad += _check_solutions(ok) + _sample30(ok, rng)
    elif workload == "sweep-ordered":
        bad += _check_sweeps(ok, res["k_crit"], rng)
    elif workload == "map-eval":
        bad += _check_map(ok, fixed["solutions"], rng)
    else:
        bad += _check_belyi(ok, ref)
    return bad


def _check_solutions(sols: list[dict]) -> list[str]:
    """Solve outputs: domain, alpha, residual, modulus against mpmath.ellipk,
    the double-precision oracle functional at c, and c increasing in k
    within each family."""
    bad = []
    for s in sols:
        fam, k, c = s["family"], s["k"], s["c"]
        where = f"{fam} k={k!r} c={c!r}"
        if not (0.0 < c < 1.0 if fam == "first" else 1.0 < c < k):
            bad.append(f"{where}: c outside its family's interval")
            continue
        if not 0.0 < s["alpha"] < 1.0:
            bad.append(f"{where}: alpha={s['alpha']!r} outside (0, 1)")
        if not abs(s["residual"]) <= RESIDUAL_TOL:
            bad.append(f"{where}: residual {s['residual']!r}")
        want = oracle.modulus(k)
        if not abs(s["modulus"] - want) <= MODULUS_RTOL * want:
            bad.append(f"{where}: modulus {s['modulus']!r} != {want!r}")
        val = oracle.functional(mp.fp, fam, k, c)
        if not abs(val) <= FUNCTIONAL_TOL:
            bad.append(f"{where}: oracle functional {val!r} at c")
    for fam in ("first", "second"):
        seq = sorted((s["k"], s["c"]) for s in sols if s["family"] == fam)
        for (k0, c0), (k1, c1) in zip(seq, seq[1:]):
            if not c1 > c0:
                bad.append(f"{fam}: c not increasing from k={k0!r} to k={k1!r}")
    return bad


def _sample30(sols: list[dict], rng) -> list[str]:
    """The 30-digit oracle on SAMPLE seeded solutions of each family:
    |functional(c)| small and a sign change across c -+ C_STEP."""
    bad = []
    for fam in ("first", "second"):
        pool = [s for s in sols if s["family"] == fam]
        for i in rng.permutation(len(pool))[:SAMPLE]:
            k, c = pool[i]["k"], pool[i]["c"]
            with mp.workdps(oracle.DPS):
                at = oracle.functional(mp.mp, fam, k, c)
                lo = oracle.functional(mp.mp, fam, k, c - C_STEP)
                hi = oracle.functional(mp.mp, fam, k, c + C_STEP)
            if not abs(at) <= FUNCTIONAL_TOL:
                bad.append(f"{fam} k={k!r}: 30-digit functional {float(at)!r} at c={c!r}")
            if not lo * hi < 0:
                bad.append(f"{fam} k={k!r}: no sign change across c={c!r} -+ {C_STEP}")
    return bad


def _check_sweeps(sweeps: list[dict], k_crit: float, rng) -> list[str]:
    """Each sweep: header, every grid point present, family labels, and
    the solve checks along it (so c increases along each sweep)."""
    bad, every = [], []
    steps = workloads.SWEEP_STEPS
    for sw in sweeps:
        where = f"sweep from k={sw['k_min']!r}"
        if sw["header"] != SWEEP_HEADER:
            bad.append(f"{where}: header {sw['header']!r}")
        if len(sw["rows"]) != steps:
            bad.append(f"{where}: {len(sw['rows'])} rows, not {steps}")
            continue
        sols = []
        for i, (k, c, alpha, mod, resid, fam) in enumerate(sw["rows"]):
            k = float(k)
            grid = sw["k_min"] + (sw["k_max"] - sw["k_min"]) * i / (steps - 1)
            if abs(k - grid) > 1e-12 * grid:
                bad.append(f"{where}: row {i} has k={k!r}, not {grid!r}")
            if fam != ("first" if k < k_crit else "second"):
                bad.append(f"{where}: k={k!r} labelled {fam}")
            sols.append({"family": fam, "k": k, "c": float(c), "alpha": float(alpha),
                         "modulus": float(mod), "residual": float(resid)})
        bad += _check_solutions(sols)
        every += sols
    return bad + _sample30(every, rng)


def _side(x: float, k: float) -> str:
    if -1.0 < x < 1.0:
        return "(-1,1)"
    if abs(x) > k:
        return "outer"
    return "(1,k)" if x > 0 else "(-k,-1)"


def _mod_pi(v: float) -> float:
    """Distance of v from the nearest multiple of pi."""
    return abs(math.remainder(v, math.pi))


def _check_map(ops: list[dict], sols: list[dict], rng) -> list[str]:
    """Developing map: L at FP_SAMPLE seeded targets against the oracle
    along the default polyline (real targets reached from above); exp L on
    its side's circle at every real target; boundary reports against the
    same circles."""
    bad = _check_solutions(sols) + _sample30(sols, rng)
    for s in sols:
        if abs(s["A"] - oracle.amplitude(s["k"], s["c"])) > 1e-12 * s["A"]:
            bad.append(f"k={s['k']!r}: amplitude {s['A']!r}")
    targets = []
    fp_checked = set(rng.permutation(len(ops))[:FP_SAMPLE].tolist())
    for i, op in enumerate(ops):
        s = sols[op["sol"]]
        k, c, first = s["k"], s["c"], s["family"] == "first"
        theta = s["L1"][1]
        if op["kind"] == "boundary":
            if abs(op["alpha"] - s["alpha"]) > K2_ALPHA_TOL:
                bad.append(f"boundary k={k!r}: alpha {op['alpha']!r} != {s['alpha']!r}")
            for side, target, n, dist in op["sides"]:
                if not 0 < n <= op["samples"]:
                    bad.append(f"boundary k={k!r} {side}: {n} samples")
                if (first or target != "unit_circle") and not dist <= CIRCLE_TOL:
                    bad.append(f"boundary k={k!r} {side}: {dist!r} from {target}")
            continue
        z = complex(*op["z"])
        L = complex(*op["L"])
        if not (math.isfinite(L.real) and math.isfinite(L.imag)):
            bad.append(f"k={k!r} z={z!r}: L={L!r}")
            continue
        if i in fp_checked:
            want = complex(oracle.L_polyline(mp.fp, k, c, s["A"], z))
            if not abs(L - want) <= L_TOL * max(1.0, abs(want)):
                bad.append(f"k={k!r} z={z!r}: L={L!r}, oracle {want!r}")
        targets.append((s, z, L))
        if op["kind"] == "complex":
            continue
        x, side, tol = z.real, _side(z.real, k), CIRCLE_TOL * max(1.0, abs(L))
        if side == "(-1,1)":
            dist = _mod_pi(L.imag - theta)    # on the line at the corner angle
        elif side == "outer":
            dist = _mod_pi(L.imag)            # on the real line
        elif first:
            dist = abs(L.real)                # on the unit circle
        else:                                 # the unit circle or a rescaling
            dist = min(abs(L.real), abs(abs(L.real) - math.pi))
        if not dist <= tol:
            bad.append(f"k={k!r} x={x!r} on {side}: exp L is {dist!r} off its circle")
    for i in rng.permutation(len(targets))[:SAMPLE]:
        s, z, L = targets[i]
        with mp.workdps(oracle.DPS):
            want = complex(oracle.L_polyline(mp.mp, s["k"], s["c"], s["A"], z))
        if not abs(L - want) <= L_TOL_30 * max(1.0, abs(want)):
            bad.append(f"k={s['k']!r} z={z!r}: L={L!r}, 30-digit oracle {want!r}")
    return bad


def _same_fibre(got: list, want: list) -> bool:
    """Multisets of (point or None, local degree) agree to 1e-8."""
    if len(got) != len(want):
        return False
    rest = list(want)
    for pt, e in got:
        for j, (wp, we) in enumerate(rest):
            if we == e and (pt is None) == (wp is None) and (
                    pt is None or abs(complex(*pt) - complex(*wp))
                    <= 1e-8 * max(1.0, abs(complex(*wp)))):
                del rest[j]
                break
        else:
            return False
    return True


def _check_belyi(ops: list[dict], ref: dict) -> list[str]:
    """Portraits against the closed forms, the fibre over 1 against
    polyroots, Riemann-Hurwitz; the printed variant must raise; the
    corrected example 2 meets its defining conditions."""
    bad = []
    for op in ops:
        n, variant = op["example"], op["variant"]
        where = f"example {n} ({variant})"
        if op["kind"] == "conditions":
            cond = op["conditions"]
            if abs(cond["w"] - ref["example2_w"]) > 1e-9 * abs(ref["example2_w"]):
                bad.append(f"{where}: w={cond['w']!r}")
            over = {k: v for k, v in cond.items() if k != "w" and not v <= 1e-10}
            if over:
                bad.append(f"{where}: conditions {over}")
            continue
        if variant == "printed":
            if op.get("raised") != "BelyiViolationError":
                bad.append(f"{where}: did not raise BelyiViolationError")
            continue
        if "raised" in op:
            bad.append(f"{where}: raised {op['raised']}")
            continue
        want = ref["belyi"][str(n)]
        d = op["degree"]
        if d != want["degree"]:
            bad.append(f"{where}: degree {d}")
        if sum(e - 1 for _, e, _ in op["points"]) != 2 * d - 2:
            bad.append(f"{where}: Riemann-Hurwitz sum is not 2d - 2")
        for value in ("0", "1", "inf"):
            got = [[pt, e] for pt, e, v in op["points"] if str(v) in (value, value + ".0")]
            if not _same_fibre(got, want[value]):
                bad.append(f"{where}: fibre over {value} is {got}")
    return bad


if __name__ == "__main__":
    sys.exit(main())
