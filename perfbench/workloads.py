"""The four benchmark workloads and the closed-form references that check them.

Each workload is a list of operations.  An operation is one call into the
package's public API (an estimator, or ``cli.main`` with one argv) at a fixed
configuration taken from the acceptance criteria; only its seed changes from
round to round.  Building a workload constructs its classes and fills their
member-matrix caches; with one warm-up call per operation that is the set-up
the runner times, so that a round times steady-state work only.

References are computed here from the published formulas, never by calling
the package, so a defect in the package cannot move its own reference.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from combidetect import classes, cli, core, risk

#: z-level for one-sided checks whose closed form leaves slack, as in the
#: acceptance gate
Z_BOUND = 3.0
#: z-level for two-sided checks against an exact value; at 3 a run of a dozen
#: such checks fails by chance about once in thirty runs
Z_EXACT = 5.0

#: one mu grid shared by the four structured-scan cases
SCAN_GRID = (0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8)


@dataclass
class Op:
    """One timed call.  ``call(seed, workers, size)`` returns the raw result;
    ``size`` is its trial (or pair) count, and set-up warms up at a tiny one.
    An operation with no such knob has ``size`` None and is not warmed up."""

    name: str
    size: int | None
    trials: int  # observations drawn and decided per call at ``size``, both arms
    call: Callable[[int, int, int | None], object]
    # problems with the results of distinct seeds, pooled; [] when they pass
    check: Callable[[list], list[str]]


def _scaled(n: int, scale: float, floor: int = 2) -> int:
    return max(floor, int(round(n * scale)))


# -- closed forms --------------------------------------------------------


def _upper_tail(t: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in t])


@functools.cache
def disjoint21_optimal(mu: float) -> tuple[float, float]:
    """Exact (type I, type II) of the likelihood-ratio rule on DisjointSets(2,1).

    The rule rejects iff exp(mu x1) + exp(mu x2) > 2 exp(mu^2/2).  For fixed
    x1 the event is a half-line in x2, so each error is a 1-D integral.
    """
    c = 2.0 * math.exp(mu * mu / 2.0)
    x = np.linspace(-12.0, 12.0 + mu, 48_001)
    room = c - np.exp(mu * x)
    t = np.where(room > 0, np.log(np.where(room > 0, room, 1.0)) / mu, -np.inf)
    reject_given_x1 = np.where(room > 0, _upper_tail(t), 1.0)
    phi0 = np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    phi1 = np.exp(-(x - mu) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    type1 = float(np.trapezoid(phi0 * reject_given_x1, x))
    # under the mixture the shifted block is x1 by symmetry
    type2 = float(np.trapezoid(phi1 * (1.0 - reject_given_x1), x))
    return type1, type2


def universal_mu(K: int) -> float:
    return math.sqrt(4.0 / K * math.log(4.0 / 3.0))


def averaging_mu(n: int, K: int, delta: float) -> float:
    return math.sqrt(8.0 * n / K**2 * math.log(2.0 / delta))


def max_test_mu(emax0: float, K: int, delta: float) -> float:
    return emax0 / K + 2.0 * math.sqrt(2.0 / K * math.log(2.0 / delta))


def gaussian_cap(K: int, N: int) -> float:
    return math.sqrt(2.0 * K * math.log(N))


# -- pooling over rounds -------------------------------------------------


def _pooled_risk(results) -> tuple[float, float, float, float, int]:
    """(type1, type2, total, se_total, trials) over independent estimates."""
    n = sum(e.trials for e in results)
    rej = sum(round(e.type1 * e.trials) for e in results)
    acc = sum(round(e.type2 * e.trials) for e in results)
    t1, t2 = rej / n, acc / n
    se = math.sqrt(t1 * (1 - t1) / n + t2 * (1 - t2) / n)
    return t1, t2, t1 + t2, se, n


def check_risk_at_most(limit: float):
    def check(results):
        _, _, total, se, n = _pooled_risk(results)
        if total > limit + Z_BOUND * se:
            return [f"risk {total:.4f} > {limit} + {Z_BOUND}se ({se:.4f}) over {n} trials"]
        return []

    return check


def check_risk_at_least(limit: float):
    def check(results):
        _, _, total, se, n = _pooled_risk(results)
        if total < limit - Z_BOUND * se:
            return [f"risk {total:.4f} < {limit} - {Z_BOUND}se ({se:.4f}) over {n} trials"]
        return []

    return check


def check_disjoint21_risk(mu: float):
    def check(results):
        type1, type2 = disjoint21_optimal(mu)
        _, _, total, _, n = _pooled_risk(results)
        se = math.sqrt(type1 * (1 - type1) / n + type2 * (1 - type2) / n)
        if abs(total - (type1 + type2)) > Z_EXACT * se:
            return [f"risk {total:.5f} vs exact {type1 + type2:.5f} beyond {Z_EXACT}se ({se:.5f})"]
        return []

    return check


def check_disjoint21_bayes(mu: float, trials: int):
    def check(results):
        # per-trial value v = 1 - |L - 1|/2 has mean R, the optimal risk, and
        # E v^2 = 1 - 2(1 - R) + (E L^2 - 1)/4, with E L^2 = (1 + e^{mu^2})/2
        R = sum(disjoint21_optimal(mu))
        second = 1.0 - 2.0 * (1.0 - R) + 0.25 * (0.5 * (1.0 + math.exp(mu * mu)) - 1.0)
        sd = math.sqrt(second - R * R)
        est = float(np.mean([r[0] for r in results]))
        n = len(results) * trials
        tol = Z_EXACT * sd / math.sqrt(n)
        if est > R + tol:
            return [f"bayes {est:.5f} > exact {R:.5f} + {tol:.5f}"]
        # v has a heavy lower tail once mu^2 is large (E L^4 = O(e^{6 mu^2})),
        # so the sample mean undershoots far more often than a normal law says
        if mu <= 1.0 and est < R - tol:
            return [f"bayes {est:.5f} < exact {R:.5f} - {tol:.5f}"]
        return []

    return check


def check_emax(cap: float):
    def check(results):
        est = float(np.mean([r.emax for r in results]))
        se = math.sqrt(sum(r.std_error**2 for r in results)) / len(results)
        problems = []
        if any(not math.isclose(r.gaussian_cap, cap, rel_tol=1e-12) for r in results):
            problems.append(f"gaussian cap differs from sqrt(2 K log N) = {cap}")
        if not 0.0 < est <= cap + Z_BOUND * se:
            problems.append(f"emax0 {est:.4f} outside (0, {cap:.4f} + {Z_BOUND}se ({se:.4f})]")
        return problems

    return check


def _first_half_crossing(grid, totals) -> float | None:
    for i in range(len(grid) - 1):
        a, b = totals[i], totals[i + 1]
        if a >= 0.5 >= b:
            return grid[i] if a == b else grid[i] + (a - 0.5) / (a - b) * (grid[i + 1] - grid[i])
    return None


def check_crossing(lo: float, hi: float):
    def check(results):
        totals = [_pooled_risk([c.estimates[i] for c in results])[2] for i in range(len(SCAN_GRID))]
        crit = _first_half_crossing(SCAN_GRID, totals)
        if crit is None or not lo <= crit <= hi:
            return [f"pooled critical mu {crit} outside [{lo:.4f}, {hi:.4f}]"]
        return []

    return check


# -- workloads -----------------------------------------------------------


def draw_heavy(scale: float) -> list[Op]:
    """Cheap kernels, so deriving substreams and sampling members dominate.

    More than 1024 trials per call gives two chunks, so ``workers=2`` really
    fans out.
    """
    d21 = classes.DisjointSets(2, 1)
    stars = classes.Stars(50)
    ksets = classes.KSets(100, 10)
    t = _scaled(2048, scale)
    ops = []
    for mu in (0.5, 1.0, 2.0):
        inst = core.ProblemInstance(d21, mu)
        ops.append(Op(
            f"bayes-disjoint21-mu{mu}", t, t,
            lambda s, w, n, inst=inst: risk.estimate_bayes_risk(inst, n, core.SeededRng(s), workers=w),
            check_disjoint21_bayes(mu, t),
        ))
        ops.append(Op(
            f"optimal-disjoint21-mu{mu}", t, 2 * t,
            lambda s, w, n, inst=inst: risk.estimate_risk("optimal", inst, n, core.SeededRng(s), workers=w),
            check_disjoint21_risk(mu),
        ))
    # A2 with the analytic cap as emax0, an admissible upper bound on E max
    cap = gaussian_cap(stars.K, stars.m)
    inst = core.ProblemInstance(stars, max_test_mu(cap, stars.K, 0.2))
    ops.append(Op(
        "maximum-stars50", t, 2 * t,
        lambda s, w, n: risk.estimate_risk("maximum", inst, n, core.SeededRng(s), emax0=cap, workers=w),
        check_risk_at_most(0.2),
    ))
    inst_a1 = core.ProblemInstance(ksets, averaging_mu(100, 10, 0.2))
    ops.append(Op(
        "averaging-ksets100-10", t, 2 * t,
        lambda s, w, n: risk.estimate_risk("averaging", inst_a1, n, core.SeededRng(s), workers=w),
        check_risk_at_most(0.2),
    ))
    return ops


def enum_heavy(scale: float) -> list[Op]:
    """A9 on Cliques(63,4): every row enumerates 595,665 members."""
    m, k = 63, 4
    spec = classes.Cliques(m, k)
    spec.member_matrix()
    N, K = math.comb(m, k), math.comb(k, 2)
    mu_lo = math.sqrt(math.log(m / (2.0 * k)) / k)
    mu_hi = 2.0 * math.sqrt(math.log(m * math.e / k) / (k - 1)) + 4.0 * math.sqrt(
        math.log(2.0 / 0.2) / (k * (k - 1))
    )
    cap = gaussian_cap(K, N)
    t = _scaled(8, scale)
    low = core.ProblemInstance(spec, mu_lo)
    high = core.ProblemInstance(spec, mu_hi)
    return [
        Op(
            "optimal-cliques63-4-lo", t, 2 * t,
            lambda s, w, n: risk.estimate_risk("optimal", low, n, core.SeededRng(s), workers=w),
            check_risk_at_least(0.5),
        ),
        Op(
            "maximum-cliques63-4-hi", t, 2 * t,
            lambda s, w, n: risk.estimate_risk("maximum", high, n, core.SeededRng(s), emax0=cap, workers=w),
            check_risk_at_most(0.2),
        ),
        Op(
            "emax0-cliques63-4", t, t,
            lambda s, w, n: risk.estimate_emax0(spec, n, core.SeededRng(s), workers=w),
            check_emax(cap),
        ),
    ]


def structured_scan(scale: float) -> list[Op]:
    """The paper's question, the critical mu, on the two structured families.

    Trial counts balance the four cases at a few hundred ms each.
    """
    pm8 = classes.PerfectMatchings(8)
    st7 = classes.SpanningTrees(7)
    st12 = classes.SpanningTrees(12)
    pm8.member_matrix()
    st7.member_matrix()
    cases = (
        # class, test, trials per grid point, class size (m! and Cayley's m^(m-2))
        (pm8, "optimal", 8, math.factorial(8)),
        (pm8, "maximum", 32, math.factorial(8)),
        (st7, "optimal", 20, 7**5),
        (st12, "maximum", 96, 12**10),
    )
    ops = []
    for spec, test, base, N in cases:
        t = _scaled(base, scale)
        emax0 = None
        lo = universal_mu(spec.K)
        if test == "maximum":
            emax0 = gaussian_cap(spec.K, N)
            hi = max_test_mu(emax0, spec.K, 0.5)
        else:
            hi = averaging_mu(spec.n, spec.K, 0.5)
        ops.append(Op(
            f"scan-{test}-{spec.family}{spec.m}", t, 2 * t * len(SCAN_GRID),
            lambda s, w, n, spec=spec, test=test, emax0=emax0: risk.scan_critical_mu(
                spec, test, SCAN_GRID, n, core.SeededRng(s), emax0=emax0, workers=w
            ),
            check_crossing(lo, hi),
        ))
    return ops


# -- cli-mix ---------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``cli.main`` call: (exit code, stdout + stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue() + err.getvalue()


def _kv(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        if line.startswith("#") and "=" in line:
            key, _, value = line[1:].partition("=")
            pairs[key] = value
        elif "," in line:
            key, _, value = line.partition(",")
            pairs[key] = value
    return pairs


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def _each(check_one):
    """A check of every call's own output."""
    return lambda kvs: [p for kv in kvs for p in check_one(kv)]


def _cli_scan(kv):
    crit = kv.get("critical_mu", "none")
    lo, hi = universal_mu(8), averaging_mu(64, 8, 0.5)
    return _expect(crit != "none" and lo <= float(crit) <= hi, f"scan critical mu {crit} outside [{lo:.4f}, {hi:.4f}]")


def _cli_universal(kv):
    ref = universal_mu(8)
    return _expect(math.isclose(float(kv["value"]), ref, rel_tol=1e-15), f"universal {kv['value']} != {ref!r}")


def _cli_type1(kv):
    # canonical distance between two stars of K_50 is sqrt(96) > sqrt(49)/2
    return _expect(kv["extras.cover_size"] == "50" and float(kv["value"]) > 0, f"type1-cover {kv}")


def _cli_dudley(kv):
    return _expect(math.isfinite(float(kv["value"])) and float(kv["value"]) > 0, f"dudley {kv['value']}")


def _cli_cover(kv):
    return _expect(int(kv.get("cover_size", "0")) >= 1, f"cover size {kv.get('cover_size')}")


def _cli_nonmono(kv):
    ref = math.sqrt(math.log(4.0 * 51 * 0.35**2) / 51)
    return _expect(math.isclose(float(kv["mu"]), ref, rel_tol=1e-15), f"nonmono mu {kv['mu']} != {ref!r}")


def _pooled_mean(kvs, value: str, se: str) -> tuple[float, float]:
    means = [float(kv[value]) for kv in kvs]
    return sum(means) / len(means), math.sqrt(sum(float(kv[se]) ** 2 for kv in kvs)) / len(means)


def _cli_overlap(kvs):
    # |S ∩ S'| of two uniform 5-subsets of 30 points is hypergeometric
    ref = sum(
        math.comb(5, z) * math.comb(25, 5 - z) / math.comb(30, 5) * math.exp(0.36 * z) for z in range(6)
    )
    mgf, se = _pooled_mean(kvs, "mgf", "mgf_se")
    return _expect(abs(mgf - ref) <= Z_EXACT * se, f"overlap mgf {mgf} vs exact {ref} beyond {Z_EXACT}se ({se})")


def _cli_emax(kvs):
    cap = gaussian_cap(6, math.comb(63, 4))
    est, se = _pooled_mean(kvs, "emax0", "se")
    return _expect(
        all(math.isclose(float(kv["gaussian_cap"]), cap, rel_tol=1e-12) for kv in kvs)
        and 0 < est <= cap + Z_BOUND * se,
        f"emax {est} (se {se}) vs cap {cap}",
    )


def cli_mix(scale: float) -> list[Op]:
    """The README's command lines, trials scaled down, plus a dudley bound."""
    table = [
        # name, argv with {n} for the size, size, observations drawn per unit
        # of size, check of the parsed outputs of distinct seeds
        ("risk", "risk --class stars --m 50 --test maximum --mu 0.9 --trials {n}", _scaled(500, scale), 2, None),
        ("scan", "scan --class disjoint --N 8 --K 8 --test optimal --mu-grid 0.3:2.2:12 --trials {n}",
         _scaled(150, scale, 20), 2 * 12, _each(_cli_scan)),
        ("bounds-universal", "bounds --prop universal --K 8", None, 0, _each(_cli_universal)),
        ("bounds-type1-cover", "bounds --prop type1-cover --class stars --m 50 --delta 0.1 --trials {n}",
         _scaled(500, scale), 1, _each(_cli_type1)),
        # 220 members: greedy covers at 64 radii dominate
        ("bounds-dudley", "bounds --prop dudley --class ksets --n 12 --K 3 --constant 1", None, 0, _each(_cli_dudley)),
        ("overlap", "overlap --class ksets --n 30 --K 5 --mu 0.6 --pairs {n}", _scaled(1000, scale), 0, _cli_overlap),
        ("emax", "emax --class cliques --m 63 --k 4 --trials {n}", _scaled(2, scale), 1, _cli_emax),
        ("cover", "cover --class matchings --m 4 --radius 2.0", None, 0, _each(_cli_cover)),
        # two risk estimates and the witness rule, both arms each
        ("nonmono", "nonmono --K 50 --epsilon 0.35 --trials {n}", _scaled(50, scale, 10), 6, _each(_cli_nonmono)),
    ]
    ops = []
    for name, template, size, per_unit, parse_check in table:
        def call(s, w, n, template=template):
            return run_cli(template.format(n=n).split() + ["--seed", str(s), "--workers", str(w)])

        def check(results, name=name, parse_check=parse_check):
            problems = [f"{name} exited {code}: {text.strip()[-200:]}" for code, text in results if code != 0]
            if problems or parse_check is None:
                return problems
            return parse_check([_kv(text) for _, text in results])

        ops.append(Op(f"cli-{name}", size, per_unit * (size or 0), call, check))
    return ops


WORKLOADS = {
    "draw-heavy": draw_heavy,
    "enum-heavy": enum_heavy,
    "structured-scan": structured_scan,
    "cli-mix": cli_mix,
}
