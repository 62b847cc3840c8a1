"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every tolerance is stated inline; failures carry the worst observed
deviation.
"""

import math
import time

import numpy as np
import pytest

from telematch import protocol
from telematch.channel import PureInputState, TwoQubitChannel
from telematch.measurement import generalized_bell, standard_bell
from telematch.protocol import (
    KOutOfRangeError,
    KPolicy,
    analytic_report,
    fig1_columns,
    fig1_grid,
    matched_unitary,
    monte_carlo,
    simulate_report,
)

H = 1.0 / math.sqrt(2.0)


def _crit(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {desc}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _unitarity_error(u):
    return np.max(np.abs(u @ u.conj().T - np.eye(len(u))))


def _angle_pair(rng, lo=0.05, hi=math.pi / 2 - 0.05):
    theta = rng.uniform(lo, hi)
    return math.cos(theta), math.sin(theta)


def test_criterion_01_perfect_channel_teleports_deterministically():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(H, H)
    policy = KPolicy.fixed(math.sqrt(2.0))
    analytic_report(inp, ch, standard_bell(), policy)  # warmup
    t0 = time.perf_counter()
    ana = analytic_report(inp, ch, standard_bell(), policy)
    elapsed = time.perf_counter() - t0
    sim = simulate_report(inp, ch, standard_bell(), policy)
    ok = abs(ana.total - 1.0) <= 1e-12
    ok = ok and all(abs(o.fidelity - 1.0) <= 1e-9 for o in sim.outcomes)
    ok = ok and elapsed < 1e-3
    _crit(
        1, ok,
        "maximally entangled channel at K=sqrt(2): total 1 (1e-12), "
        "fidelity 1 (1e-9), analytic path under 1 ms",
        f"total={ana.total!r} elapsed={elapsed:.2e}s",
    )


def test_criterion_02_bell_total_closed_form():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        a, b = _angle_pair(rng)
        ch = TwoQubitChannel.diagonal(a, b)
        inp = PureInputState(H, H)
        for _ in range(20):
            k = rng.uniform(0.02, 1.0) / max(a, b)
            expected = 2.0 * (k * a * b) ** 2
            ana = analytic_report(inp, ch, standard_bell(), KPolicy.fixed(k))
            sim = simulate_report(inp, ch, standard_bell(), KPolicy.fixed(k))
            worst = max(worst, abs(ana.total - expected), abs(sim.total - expected))
    _crit(
        2, worst <= 1e-12,
        "Bell-basis total equals 2(K|ab|)^2 on 100 channels x 20 K values (1e-12)",
        f"worst={worst:.2e}",
    )


def test_criterion_03_generalized_total_closed_form():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        a, b = _angle_pair(rng)
        ap, bp = _angle_pair(rng)
        ch = TwoQubitChannel.diagonal(a, b)
        basis = generalized_bell(ap, bp)
        k = rng.uniform(0.02, 1.0) / max(a * ap, a * bp, b * ap, b * bp)
        expected = 4.0 * (k * a * b * ap * bp) ** 2
        ana = analytic_report(PureInputState(H, H), ch, basis, KPolicy.fixed(k))
        sim = simulate_report(PureInputState(H, H), ch, basis, KPolicy.fixed(k))
        worst = max(worst, abs(ana.total - expected), abs(sim.total - expected))
    _crit(
        3, worst <= 1e-12,
        "generalized-basis total equals 4(K|aba'b'|)^2 on 100 random sets (1e-12)",
        f"worst={worst:.2e}",
    )


def test_criterion_04_per_outcome_optimum_case_orderings():
    rng = np.random.default_rng(1004)
    worst = 0.0
    inp = PureInputState(H, H)
    for _ in range(50):
        # |a| >= |a'| >= |b'| >= |b|: optimum 2|b|^2
        tb = rng.uniform(0.1, math.pi / 4 - 0.01)
        ta = rng.uniform(0.05, tb)
        a, b = math.cos(ta), math.sin(ta)
        ap, bp = math.cos(tb), math.sin(tb)
        rep = analytic_report(
            inp, TwoQubitChannel.diagonal(a, b), generalized_bell(ap, bp),
            KPolicy.max_per_outcome(),
        )
        worst = max(worst, abs(rep.total - 2.0 * b * b))
    for _ in range(50):
        # |a'| >= |a| >= |b| >= |b'|: optimum 2|b'|^2
        ta = rng.uniform(0.1, math.pi / 4 - 0.01)
        tb = rng.uniform(0.05, ta)
        a, b = math.cos(ta), math.sin(ta)
        ap, bp = math.cos(tb), math.sin(tb)
        rep = analytic_report(
            inp, TwoQubitChannel.diagonal(a, b), generalized_bell(ap, bp),
            KPolicy.max_per_outcome(),
        )
        worst = max(worst, abs(rep.total - 2.0 * bp * bp))
    _crit(
        4, worst <= 1e-12,
        "per-outcome optimum totals 2|b|^2 and 2|b'|^2 under the two "
        "case orderings, 50 sets each (1e-12)",
        f"worst={worst:.2e}",
    )


def test_criterion_05_matched_unitary_goldens():
    u1 = matched_unitary(0.8, 0.6, 1.0)
    golden1 = np.array(
        [
            [0.6, 0, 0.8, 0],
            [0, 0.8, 0, 0.6],
            [0.8, 0, -0.6, 0],
            [0, 0.6, 0, -0.8],
        ]
    )
    dev1 = float(np.max(np.abs(u1 - golden1)))
    u2 = matched_unitary(0.8, 0.6, 1.25)
    golden2 = np.array(
        [
            [0.75, 0, math.sqrt(1 - 0.75**2), 0],
            [0, 1, 0, 0],
            [math.sqrt(1 - 0.75**2), 0, -0.75, 0],
            [0, 0, 0, -1],
        ]
    )
    dev2 = float(np.max(np.abs(u2 - golden2)))
    ok = dev1 <= 1e-15 and dev2 <= 1e-12
    _crit(
        5, ok,
        "matched unitaries for (0.8, 0.6) at K=1 (1e-15) and K=1.25 (1e-12) "
        "match their closed forms entrywise",
        f"dev_k1={dev1:.2e} dev_kmax={dev2:.2e}",
    )


def test_criterion_06_optimal_curve_strictly_dominates_fixed_k():
    _, p_opt, p_k1, _ = fig1_columns(fig1_grid(1000))
    ok = bool(np.all(p_opt > p_k1))
    worst = float(np.min(p_opt - p_k1))
    _crit(
        6, ok,
        "per-outcome optimum strictly beats the K=1 total across a "
        "1000-point grid of b",
        f"smallest gap={worst:.2e}",
    )


def test_criterion_07_success_total_is_input_independent():
    rng = np.random.default_rng(1007)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    policy = KPolicy.fixed(1.0)
    totals = []
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        inp = PureInputState(v[0], v[1])
        totals.append(simulate_report(inp, ch, standard_bell(), policy).total)
    spread = max(totals) - min(totals)
    _crit(
        7, spread <= 1e-12,
        "total success probability invariant across 50 random inputs (1e-12)",
        f"spread={spread:.2e}",
    )


def test_criterion_08_outcome_probabilities_close():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(200):
        a, b = _angle_pair(rng)
        ap, bp = _angle_pair(rng)
        ch = TwoQubitChannel.diagonal(a, b)
        basis = generalized_bell(ap, bp) if rng.random() < 0.5 else standard_bell()
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        rep = analytic_report(
            PureInputState(v[0], v[1]), ch, basis, KPolicy.max_global()
        )
        worst = max(worst, abs(sum(o.p_alice for o in rep.outcomes) - 1.0))
    golden = analytic_report(
        PureInputState(0.6, 0.8),
        TwoQubitChannel.diagonal(0.8, 0.6),
        standard_bell(),
        KPolicy.fixed(1.0),
    )
    expected = [0.2304, 0.2304, 0.2696, 0.2696]
    dev = max(
        abs(o.p_alice - e) for o, e in zip(golden.outcomes, expected)
    )
    ok = worst <= 1e-12 and dev <= 1e-12
    _crit(
        8, ok,
        "outcome probabilities sum to 1 on 200 random configurations and "
        "match 0.2304/0.2696 on the reference set (1e-12)",
        f"worst_closure={worst:.2e} worst_golden={dev:.2e}",
    )


def test_criterion_09_monte_carlo_agreement_and_determinism():
    inp = PureInputState(H, H)
    ch = TwoQubitChannel.diagonal(0.8, 0.6)
    policy = KPolicy.fixed(1.0)
    t0 = time.perf_counter()
    mc = monte_carlo(inp, ch, standard_bell(), policy, 200000, 42)
    elapsed = time.perf_counter() - t0
    rerun = monte_carlo(inp, ch, standard_bell(), policy, 200000, 42)
    ok = abs(mc.p_hat - 0.4608) <= 3.0 * mc.std_err
    ok = ok and mc == rerun
    ok = ok and elapsed < 5.0
    _crit(
        9, ok,
        "200000-trial sampler lands within 3 standard errors of 0.4608, "
        "reruns bit-identically, finishes under 5 s",
        f"p_hat={mc.p_hat!r} std_err={mc.std_err:.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_10_k_bound_enforcement():
    rng = np.random.default_rng(1010)
    ok = True
    detail = ""
    for _ in range(100):
        c0 = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        c1 = rng.uniform(0.05, 1.2) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        bound = float(protocol._k_bounds(np.diag([c0, c1])))  # min(1/|c0|, 1/|c1|)
        try:
            matched_unitary(c0, c1, bound * (1 + 1e-6))
            ok = False
            detail = f"accepted K above bound for ({c0!r}, {c1!r})"
            break
        except KOutOfRangeError:
            pass
        u = matched_unitary(c0, c1, bound)
        if _unitarity_error(u) > 1e-9:
            ok = False
            detail = f"not unitary at the bound for ({c0!r}, {c1!r})"
            break
    _crit(
        10, ok,
        "K above its bound by 1e-6 is rejected and K at the bound yields "
        "a unitary (1e-9), over 100 random coefficient pairs",
        detail,
    )
