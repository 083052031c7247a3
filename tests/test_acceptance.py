"""Acceptance gate: thirteen end-to-end criteria, one recorded line each.

Every criterion pins the configuration (class, contamination, trial count,
seed) and a tolerance of three standard errors around the closed-form value
it exercises, plus a wall-clock budget that must hold on the reference
machine, a 2-core cloud VM.  Seeds are fixed so a green run stays green.
"""

import math
import subprocess
import sys
import time

import mpmath
import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.stats import chisquare, hypergeom

from combidetect import (
    ProblemInstance,
    SeededRng,
    estimate_bayes_risk,
    estimate_emax0,
    estimate_risk,
    exact_overlap_mgf,
    log_likelihood_ratio,
    make_class,
    monotonicity_check,
    scan_critical_mu,
)
from combidetect.bounds import (
    averaging_threshold,
    clique_bounds,
    max_test_threshold,
    negass_threshold,
    pairs_risk_lower_bound,
    type1_bound_threshold,
    universal_threshold,
)
from combidetect.risk import emax_upper_cap


def test_a01_averaging_test_bound(check):
    t0 = time.perf_counter()
    spec = make_class("ksets", n=100, K=10)
    delta = 0.2
    mu = averaging_threshold(100, 10, delta)
    assert mu == math.sqrt(8.0 * 100 / 10**2 * math.log(2.0 / delta))
    est = estimate_risk("averaging", ProblemInstance(spec, mu), 10_000, SeededRng(8101))
    elapsed = time.perf_counter() - t0
    limit = delta + 3.0 * est.se_total
    check(
        "A1",
        est.total <= limit and elapsed < 10.0,
        f"averaging on KSets(100,10) at mu={mu:.4f}: total {est.total:.4f} "
        f"<= {limit:.4f} (delta+3se), {elapsed:.1f}s",
    )


def test_a02_maximum_test_bound(check):
    t0 = time.perf_counter()
    spec = make_class("stars", m=50)
    delta = 0.2
    rng = SeededRng(8201)
    em = estimate_emax0(spec, 10_000, rng.child(0))
    mu = max_test_threshold(em.emax, spec.K, delta)
    est = estimate_risk(
        "maximum", ProblemInstance(spec, mu), 10_000, rng.child(1), emax0=em.emax
    )
    elapsed = time.perf_counter() - t0
    limit = delta + 3.0 * est.se_total
    check(
        "A2",
        est.total <= limit and elapsed < 30.0,
        f"maximum on Stars(50), emax0 {em.emax:.3f}, mu={mu:.4f}: total "
        f"{est.total:.4f} <= {limit:.4f}, {elapsed:.1f}s",
    )


def test_a03_universal_lower_bound(check):
    t0 = time.perf_counter()
    spec = make_class("disjoint", N=8, K=8)
    mu = universal_threshold(8)
    est = estimate_risk("optimal", ProblemInstance(spec, mu), 10_000, SeededRng(8301))
    elapsed = time.perf_counter() - t0
    floor = 0.5 - 3.0 * est.se_total
    check(
        "A3",
        est.total >= floor and elapsed < 10.0,
        f"optimal on DisjointSets(8,8) at mu={mu:.5f}: total {est.total:.4f} "
        f">= {floor:.4f} (1/2-3se), {elapsed:.1f}s",
    )


def test_a04_disjoint_critical_mu_bracket(check):
    t0 = time.perf_counter()
    N, K = 8, 8
    spec = make_class("disjoint", N=N, K=K)
    lo = math.sqrt(math.log(4.0 * N * 0.25) / K)
    hi = math.sqrt(2.0 * math.log(N) / K) + 2.0 * math.sqrt(2.0 / K * math.log(4.0))
    curve = scan_critical_mu(
        spec, "optimal", np.linspace(0.3, 2.2, 12), 5_000, SeededRng(8401)
    )
    elapsed = time.perf_counter() - t0
    crit = curve.critical_mu
    check(
        "A4",
        crit is not None and lo <= crit <= hi and elapsed < 120.0,
        f"critical mu {crit:.4f} in [{lo:.5f}, {hi:.5f}] for DisjointSets(8,8), "
        f"{elapsed:.1f}s",
    )


def test_a05_matchings_transition(check):
    t0 = time.perf_counter()
    spec = make_class("matchings", m=5)
    mu_lo = negass_threshold(spec.n, spec.K, 0.5)
    # m-free form: n = K^2 for perfect matchings
    assert math.isclose(
        mu_lo, math.sqrt(math.log(1.0 + math.log(1.0 + 4.0 * 0.25))), rel_tol=1e-15
    )
    mu_hi = math.sqrt(8.0 * math.log(10.0))
    assert mu_hi == averaging_threshold(spec.n, spec.K, 0.2)
    low = estimate_risk("optimal", ProblemInstance(spec, mu_lo), 10_000, SeededRng(8501))
    high = estimate_risk(
        "averaging", ProblemInstance(spec, mu_hi), 10_000, SeededRng(8502)
    )
    elapsed = time.perf_counter() - t0
    floor = 0.5 - 3.0 * low.se_total
    cap = 0.2 + 3.0 * high.se_total
    check(
        "A5",
        low.total >= floor and high.total <= cap and elapsed < 60.0,
        f"PerfectMatchings(5): optimal {low.total:.4f} >= {floor:.4f} at "
        f"mu={mu_lo:.4f}; averaging {high.total:.4f} <= {cap:.4f} at "
        f"mu={mu_hi:.4f}; {elapsed:.1f}s",
    )


def test_a06_symmetric_monotonicity(check):
    t0 = time.perf_counter()
    spec = make_class("ksets", n=10, K=2)
    report = monotonicity_check(
        spec, 22 / 45, np.linspace(0.4, 3.2, 8), 10_000, SeededRng(8601)
    )
    elapsed = time.perf_counter() - t0
    assert report.subclass_size == 22
    check(
        "A6",
        not report.any_violation and elapsed < 120.0,
        f"KSets(10,2) vs random 22-member subclass over 8 grid points: "
        f"violations {sum(report.violated)}, {elapsed:.1f}s",
    )


def test_a07_spanning_tree_sampler(check):
    t0 = time.perf_counter()
    spec4 = make_class("trees", m=4)
    gen = SeededRng(870).generator()
    draws = 16_000
    rows4 = spec4.sample_rows(gen, draws)
    counts: dict[tuple, int] = {}
    for row in rows4.tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    edge_hits4 = np.bincount(rows4.ravel(), minlength=spec4.n)
    n_trees = spec4.cardinality()
    assert n_trees == 16
    _, p_value = chisquare(list(counts.values()))
    uniform_ok = len(counts) == n_trees and p_value >= 0.01

    def worst_edge_dev(spec, seed, n_draws):
        g = SeededRng(seed).generator()
        hits = np.bincount(spec.sample_rows(g, n_draws).ravel(), minlength=spec.n)
        target = 2.0 / spec.m
        se = math.sqrt(target * (1.0 - target) / n_draws)
        return float(np.max(np.abs(hits / n_draws - target))) / se

    dev4 = float(np.max(np.abs(edge_hits4 / draws - 0.5))) / math.sqrt(
        0.5 * 0.5 / draws
    )
    dev5 = worst_edge_dev(make_class("trees", m=5), 871, 16_000)
    elapsed = time.perf_counter() - t0
    check(
        "A7",
        uniform_ok and dev4 <= 3.0 and dev5 <= 3.0 and elapsed < 10.0,
        f"trees m=4: chi-square p {p_value:.3f} over 16 trees; worst edge-"
        f"frequency deviation {dev4:.2f}se (m=4), {dev5:.2f}se (m=5); "
        f"{elapsed:.1f}s",
    )


def test_a08_estimator_cross_validation(check):
    t0 = time.perf_counter()
    spec = make_class("disjoint", N=2, K=1)
    nodes, weights = hermgauss(80)
    xx = math.sqrt(2.0) * nodes
    pair_w = weights[:, None] * weights[None, :]
    worst_quad = 0.0
    worst_cross = -math.inf
    # the |L - 1| integrand has heavy tails for larger mu; spend trials there
    for mu, trials in ((0.5, 300_000), (1.0, 300_000), (2.0, 1_000_000)):
        L = 0.5 * (
            np.exp(mu * xx[:, None] - mu * mu / 2.0)
            + np.exp(mu * xx[None, :] - mu * mu / 2.0)
        )
        quad = 1.0 - 0.5 * float((pair_w * np.abs(L - 1.0)).sum()) / math.pi
        inst = ProblemInstance(spec, mu)
        bayes, bayes_se = estimate_bayes_risk(inst, trials, SeededRng(8801, (int(mu * 10),)))
        risk = estimate_risk("optimal", inst, 20_000, SeededRng(8802, (int(mu * 10),)))
        worst_quad = max(worst_quad, abs(bayes - quad))
        combined = 3.0 * math.sqrt(bayes_se**2 + risk.se_total**2)
        worst_cross = max(worst_cross, abs(bayes - risk.total) - combined)
    elapsed = time.perf_counter() - t0
    check(
        "A8",
        worst_quad <= 0.01 and worst_cross <= 0.0 and elapsed < 30.0,
        f"DisjointSets(2,1) at mu in (0.5, 1, 2): |bayes MC - quadrature| <= "
        f"{worst_quad:.4f} (tol 0.01); MC cross-check margin "
        f"{worst_cross:+.4f} <= 0; {elapsed:.1f}s",
    )


def test_a09_clique_two_sided(check):
    t0 = time.perf_counter()
    spec = make_class("cliques", m=63, k=4)
    assert spec.cardinality() == 595_665
    mu_hi, mu_lo = clique_bounds(63, 4, 0.2)
    assert math.isclose(mu_lo, math.sqrt(0.25 * math.log(63 / 8)), rel_tol=1e-15)
    low = estimate_risk("optimal", ProblemInstance(spec, mu_lo), 2_000, SeededRng(8901))
    high = estimate_risk(
        "maximum",
        ProblemInstance(spec, mu_hi),
        2_000,
        SeededRng(8902),
        emax0=emax_upper_cap(spec),
    )
    elapsed = time.perf_counter() - t0
    floor = 0.5 - 3.0 * low.se_total
    cap = 0.2 + 3.0 * high.se_total
    check(
        "A9",
        low.total >= floor and high.total <= cap and elapsed < 600.0,
        f"Cliques(63,4): optimal {low.total:.4f} >= {floor:.4f} at "
        f"mu={mu_lo:.4f}; maximum {high.total:.4f} <= {cap:.4f} at "
        f"mu={mu_hi:.4f}; {elapsed:.0f}s",
    )


def test_a10_type1_bound(check):
    t0 = time.perf_counter()
    spec = make_class("stars", m=50)
    delta = 0.1
    report = type1_bound_threshold(spec, delta, 10_000, SeededRng(9001))
    est = estimate_risk(
        "optimal", ProblemInstance(spec, report.value), 10_000, SeededRng(9002)
    )
    elapsed = time.perf_counter() - t0
    limit = delta + 3.0 * est.se_type1
    check(
        "A10",
        est.type1 <= limit and elapsed < 60.0,
        f"Stars(50) at mu={report.value:.4f} (cover size "
        f"{report.extras['cover_size']}): type-I {est.type1:.4f} <= "
        f"{limit:.4f}, {elapsed:.1f}s",
    )


def test_a11_overlap_bound_consistency(check):
    t0 = time.perf_counter()
    spec = make_class("ksets", n=30, K=5)
    worst = math.inf
    details = []
    for i, mu in enumerate((0.3, 0.6)):
        # overlap of two 5-sets in 30 points is hypergeometric(30, 5, 5)
        mgf = float(
            sum(hypergeom.pmf(z, 30, 5, 5) * math.exp(mu * mu * z) for z in range(6))
        )
        assert math.isclose(mgf, exact_overlap_mgf(spec, mu), rel_tol=1e-12)
        bound = pairs_risk_lower_bound(mgf)
        est = estimate_risk("optimal", ProblemInstance(spec, mu), 10_000, SeededRng(9101, (i,)))
        worst = min(worst, est.total - (bound - 3.0 * est.se_total))
        details.append(f"mu={mu}: {est.total:.4f} >= {bound - 3.0 * est.se_total:.4f}")
    elapsed = time.perf_counter() - t0
    check(
        "A11",
        worst >= 0.0 and elapsed < 120.0,
        f"KSets(30,5) optimal vs pairs bound: {'; '.join(details)}; {elapsed:.1f}s",
    )


def test_a12_parallel_byte_identity(check, tmp_path):
    t0 = time.perf_counter()
    mu = averaging_threshold(100, 10, 0.2)
    outputs = []
    for tag, workers in (("w1", 1), ("w4", 4), ("w1-again", 1)):
        out = tmp_path / f"risk-{tag}.csv"
        cmd = [
            sys.executable,
            "-m",
            "combidetect",
            "risk",
            "--class",
            "ksets",
            "--n",
            "100",
            "--K",
            "10",
            "--test",
            "averaging",
            "--mu",
            repr(mu),
            "--trials",
            "10000",
            "--seed",
            "8101",
            "--workers",
            str(workers),
            "--out",
            str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    check(
        "A12",
        outputs[0] == outputs[1] == outputs[2],
        f"risk command byte-identical across workers 1/4 and rerun "
        f"({len(outputs[0])} bytes), {elapsed:.1f}s",
    )


def test_a13_loglik_numerical_stability(check):
    t0 = time.perf_counter()
    spec = make_class("ksets", n=6, K=2)
    members = spec.member_matrix()
    gen = SeededRng(913).generator()
    worst = 0.0
    for _ in range(100):
        mu = float(gen.uniform(0.01, 50.0))
        x = gen.standard_normal(6)
        got = log_likelihood_ratio(x, ProblemInstance(spec, mu))
        with mpmath.workdps(50):
            m_mu = mpmath.mpf(mu)
            terms = [
                mpmath.e ** (m_mu * (mpmath.mpf(x[r[0]]) + mpmath.mpf(x[r[1]])))
                for r in members
            ]
            ref = float(mpmath.log(mpmath.fsum(terms) / len(terms)) - m_mu**2)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    elapsed = time.perf_counter() - t0
    check(
        "A13",
        worst <= 1e-9 and elapsed < 10.0,
        f"log-likelihood vs 50-digit reference on 100 KSets(6,2) draws, mu up "
        f"to 50: worst relative error {worst:.2e} <= 1e-09, {elapsed:.1f}s",
    )
