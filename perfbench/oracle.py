"""Independent oracle: every formula written anew with mpmath tanh-sinh.

Nothing here imports the program.  Each function takes an mpmath context:
`mp.mp` under workdps(30) for the 30-digit oracle on a seeded sample of
operations, and `mp.fp` (tanh-sinh in double precision, about 1e-12 here)
for the check every operation gets.  Endpoint square-root singularities
are removed by zeta = -1 + s^2 and zeta = 1 - s^2, with every factor
written as an offset from its end, so c close to 1 keeps its digits.
"""
from __future__ import annotations

import mpmath as mp

DPS = 30


def bigF(ctx, k, c):
    """F(k, c): the first-family functional (root in c gives the solution).

    Integral over (-1, 1) of (g(c, zeta) - 1)/(zeta - c), plus
    log((1-c)/(1+c)), with
    g = (c + k/c)/(zeta + k/c) sqrt((1-c)(k+c)(k-zeta)/((1+c)(k-c)(k+zeta)))
        sqrt((1+zeta)/(1-zeta)).
    """
    k, c = ctx.mpf(k), ctx.mpf(c)
    kc = k / c
    pre = (c + kc) * ctx.sqrt((1 - c) * (k + c) / ((1 + c) * (k - c)))

    def left(s):   # zeta = -1 + s^2, d zeta = 2 s ds
        s2 = s * s
        z = s2 - 1
        g2s = pre / (z + kc) * ctx.sqrt((k - z) / (k + z)) * 2 * s2 / ctx.sqrt(2 - s2)
        return (g2s - 2 * s) / (s2 - (1 + c))

    def right(s):  # zeta = 1 - s^2
        s2 = s * s
        z = 1 - s2
        g2s = pre / (z + kc) * ctx.sqrt((k - z) / (k + z)) * 2 * ctx.sqrt(2 - s2)
        return (g2s - 2 * s) / ((1 - c) - s2)

    return (ctx.quad(left, [0, ctx.sqrt(1 + c)])
            + ctx.quad(right, [0, ctx.sqrt(1 - c)])
            + ctx.log((1 - c) / (1 + c)))


def family2(ctx, k, c):
    """The second-family integral plus pi (zero at the solution).

    Integral over (-1, 1) of (c^2+k)/(cx+k)
    sqrt((c-1)(k+c)(1+x)(k-x)/((c+1)(k-c)(1-x)(k+x))) / (x - c).
    """
    k, c = ctx.mpf(k), ctx.mpf(c)
    amp = (c * c + k) * ctx.sqrt((c - 1) * (k + c) / ((c + 1) * (k - c)))

    def left(s):
        s2 = s * s
        x = s2 - 1
        return (amp / (c * x + k) * ctx.sqrt((k - x) / (k + x))
                * 2 * s2 / ctx.sqrt(2 - s2) / (x - c))

    def right(s):
        s2 = s * s
        x = 1 - s2
        return (amp / (c * x + k) * ctx.sqrt((k - x) / (k + x))
                * 2 * ctx.sqrt(2 - s2) / (-(c - 1) - s2))

    return ctx.quad(left, [0, 1]) + ctx.quad(right, [0, 1]) + ctx.pi


def functional(ctx, family: str, k, c):
    return bigF(ctx, k, c) if family == "first" else family2(ctx, k, c)


def amplitude(k: float, c: float) -> float:
    """A = (c + k/c) sqrt(|1-c| (k+c) / ((1+c)(k-c))), both families."""
    k, c = mp.mpf(k), mp.mpf(c)
    return float((c + k / c) * mp.sqrt(abs(1 - c) * (k + c) / ((1 + c) * (k - c))))


def L_polyline(ctx, k, c, A, z: complex):
    """Log of the developing map at z along k -> k+ih -> Re z+ih -> z,
    h = max(1/2, Im z), so a real z is reached from above: the integral of
    A sqrt(w+1) sqrt(w-k) / (sqrt(w-1) sqrt(w+k) (w-c)(w+k/c))."""
    k, c, A = ctx.mpf(k), ctx.mpf(c), ctx.mpf(A)
    kc = k / c

    def f(w):
        sig = ctx.sqrt(w + 1) * ctx.sqrt(w - k) / (ctx.sqrt(w - 1) * ctx.sqrt(w + k))
        return A * sig / ((w - c) * (w + kc))

    h = max(0.5, z.imag)
    # break the horizontal leg above each singular point, so each one sits
    # under a node cluster at a leg end instead of under a leg's middle
    x0, x1 = float(k), z.real
    marks = sorted((x for x in (-k, -1, 1, c, -kc) if min(x0, x1) < x < max(x0, x1)),
                   reverse=x1 < x0)
    pts = [ctx.mpc(k, 0)] + [ctx.mpc(x, h) for x in [x0, *marks, x1]]
    if z.imag < h:
        pts.append(ctx.mpc(z.real, z.imag))
    return ctx.quad(f, pts)


def modulus(k: float) -> float:
    """Conformal modulus K(sqrt(1 - 1/k^2)) / (2 K(1/k)) via mpmath.ellipk
    (which takes the parameter m = modulus^2)."""
    with mp.workdps(DPS):
        k = mp.mpf(k)
        return float(mp.ellipk(1 - 1 / k ** 2) / (2 * mp.ellipk(1 / k ** 2)))


def k_crit() -> float:
    """k_crit = (1 + kappa)/(1 - kappa), kappa' the root of K = 2E."""
    with mp.workdps(DPS):
        xp = mp.findroot(lambda x: mp.ellipk(x * x) - 2 * mp.ellipe(x * x),
                       (0.5, 0.99), solver="illinois")
        kappa = mp.sqrt(1 - xp * xp)
        return float((1 + kappa) / (1 - kappa))


def _poly(roots_exps, lead=1):
    """Descending coefficients of lead * prod (z - r)^e."""
    p = [mp.mpf(lead)]
    for r, e in roots_exps:
        for _ in range(e):
            p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    return p


def _cluster(roots, radius=1e-8):
    out = []
    for r in roots:
        for item in out:
            if abs(r - item[0]) <= radius * max(1, abs(item[0])):
                item[1].append(r)
                break
        else:
            out.append([r, [r]])
    return [(sum(rs) / len(rs), len(rs)) for _, rs in out]


def _closed_forms():
    """(num factors, num lead, den factors, den lead) per example."""
    eps = mp.cbrt(2)
    a = mp.mpf(5) / 4 * eps ** 2 + mp.mpf(3) / 2 * eps + 3
    x = -eps ** 2 / 10 - 3 * eps / 10 + mp.mpf(3) / 5
    half = (eps ** 2 + eps + 3) / 2
    root = mp.sqrt(8 * eps ** 2 + 10 * eps + 13)
    s = mp.mpf(33) / 4 * eps ** 2 + mp.mpf(21) / 2 * eps + 13
    r3 = mp.sqrt(3)
    return {
        # -(z+2)(z-2)^3 / (3 (z^2+2z-2)^2)
        "1": ([(-2, 1), (2, 3)], -1, [(-1 + r3, 2), (-1 - r3, 2)], 3),
        # s (z-x)^2 (z-a) / ((z-y)^3 (z-t)^3), y = half - root/2, t = half + root/2
        "2": ([(x, 2), (a, 1)], s, [(half - root / 2, 3), (half + root / 2, 3)], 1),
        # 64 (135 + 78 sqrt 3) (z-1)^3 / ((z - 4 - 2 sqrt 3)^3 (3 z + 2 sqrt 3)^3)
        "3": ([(1, 3)], 64 * (135 + 78 * r3), [(4 + 2 * r3, 3), (-2 * r3 / 3, 3)], 27),
    }


def _pt(z):
    return [float(mp.re(z)), float(mp.im(z))]


def references() -> dict:
    """The seed-independent references, from the paper's closed forms:

    - k_crit from the mpmath root of K = 2E, and c = sqrt(3) - 1 at k = 2;
    - the ramification portrait of each Belyi map: the fibres over 0 and
      infinity from the exponents of its closed form, the fibre over 1 from
      mpmath polyroots of num - den, clustered into multiple roots;
    - w, the double point over 1 of the corrected example 2.
    """
    ref = {"k_crit": k_crit()}
    with mp.workdps(DPS):
        ref["k2_c"] = float(mp.sqrt(3) - 1)
        belyi = {}
        for n, (nf, nl, df, dl) in _closed_forms().items():
            num, den = _poly(nf, nl), _poly(df, dl)
            dn, dd = len(num) - 1, len(den) - 1
            degree = max(dn, dd)
            fib0 = [[_pt(r), e] for r, e in nf]
            fibinf = [[_pt(r), e] for r, e in df]
            if dn < dd:
                fib0.append([None, dd - dn])
            elif dn > dd:
                fibinf.append([None, dn - dd])
            width = max(dn, dd) + 1
            diff = ([0] * (width - len(num)) + num)
            diff = [p - q for p, q in zip(diff, [0] * (width - len(den)) + den)]
            with mp.workdps(4 * DPS):
                roots = mp.polyroots(diff, maxsteps=400, extraprec=8 * DPS)
            fib1 = [[_pt(r), m] for r, m in _cluster(roots)]
            belyi[n] = {"degree": degree, "0": fib0, "1": fib1, "inf": fibinf}
        ref["belyi"] = belyi
        doubles = [p for p, m in belyi["2"]["1"] if m == 2]
        ref["example2_w"] = doubles[0][0]
    return ref
