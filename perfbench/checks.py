"""Correctness checks that the benchmark computes itself.

Nothing here imports telematch. Expected values come from the closed
forms of the paper (PAPER.md), written out again below, and from plain
numpy for the channel parameter matrix. Each check returns a list of
problems; an empty list means the operation was correct.

Closed forms for a channel a|00> + b|11> (moduli |a|, |b|) and a basis
that is either Bell or generalized with real (a', b'):

* Bell, fixed K:            2 (K |a b|)^2
* gbm, fixed K:             4 (K |a b a' b'|)^2
* max-global K:             the fixed-K form at K = 1 / max(|a|,|b|)
                            (times 1 / max(|a'|,|b'|) for gbm)
* Bell, per-outcome K:      2 min(|a|,|b|)^2, i.e. 2|b|^2 for |b| <= |a|
* gbm, per-outcome K:       2 (min(|a a'|,|b b'|)^2 + min(|a b'|,|b a'|)^2)
* fig1 columns, a = sqrt(1 - b^2):  2 b^2,  2 (a b)^2,  4 (a b)^2

The checks deliberately avoid the parts of the surface slated to
change: no error class and no exit code beyond "non-zero", and no
sampler stream or exact count, only a z-score and rerun identity.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-12
Z_MAX = 5.0
CLASSIFY_TOL = 1e-9
FIELDS = ("p_alice", "p_bob", "p_joint", "fidelity")


def k_bound(a: complex, b: complex, basis) -> float:
    """Largest K valid for every outcome."""
    m = max(abs(a), abs(b))
    if basis is not None:
        m *= max(abs(basis[0]), abs(basis[1]))
    return 1.0 / m


def expected_total(a: complex, b: complex, basis, policy) -> float:
    """Total success probability from the closed forms above."""
    ma, mb = abs(a), abs(b)
    if policy == "per-outcome":
        if basis is None:
            return 2.0 * min(ma, mb) ** 2
        ap, bp = abs(basis[0]), abs(basis[1])
        return 2.0 * (min(ma * ap, mb * bp) ** 2 + min(ma * bp, mb * ap) ** 2)
    k = k_bound(a, b, basis) if policy == "max" else policy
    if basis is None:
        return 2.0 * (k * ma * mb) ** 2
    return 4.0 * (k * ma * mb * abs(basis[0] * basis[1])) ** 2


def _op_total(op: dict) -> float:
    return expected_total(complex(*op["a"]), complex(*op["b"]), op["basis"], op["policy"])


def check_pair(op: dict, ana, sim) -> list[str]:
    """Analytic and simulated reports of one request against each other
    and against the closed form."""
    problems = []
    want = _op_total(op)
    for name, rep in (("analytic", ana), ("simulated", sim)):
        if len(rep.outcomes) != 4:
            problems.append(f"{name}: {len(rep.outcomes)} outcomes, want 4")
            return problems
        if not abs(rep.total - want) <= TOL:
            problems.append(f"{name} total {rep.total!r} != closed form {want!r}")
        if not abs(sum(o.p_joint for o in rep.outcomes) - rep.total) <= TOL:
            problems.append(f"{name} total is not the sum of p_joint")
        if not abs(sum(o.p_alice for o in rep.outcomes) - 1.0) <= TOL:
            problems.append(f"{name} p_alice does not sum to 1")
        for o in rep.outcomes:
            if o.p_joint > 0 and not abs(o.fidelity - 1.0) <= TOL:
                problems.append(f"{name} outcome {o.lam}: fidelity {o.fidelity!r}")
    if not abs(ana.total - sim.total) <= TOL:
        problems.append(f"analytic vs simulated total: {ana.total!r} vs {sim.total!r}")
    for x, y in zip(ana.outcomes, sim.outcomes):
        for field in FIELDS:
            if not abs(getattr(x, field) - getattr(y, field)) <= TOL:
                problems.append(f"outcome {x.lam} {field}: analytic vs simulated differ")
    return problems


def check_refusal(refused: bool, name: str) -> list[str]:
    return [] if refused else [f"{name} accepted a request that must be refused"]


def check_classify(op: dict, cls, conc: float, x) -> list[str]:
    """classify / concurrence / cpm of a general channel against numpy."""
    amp = [complex(*z) for z in op["x"]]
    want_x = math.sqrt(2.0) * np.array([[amp[0], amp[2]], [amp[1], amp[3]]])
    problems = []
    got_x = np.asarray(x)
    if got_x.shape != (2, 2) or not np.max(np.abs(got_x - want_x)) <= TOL:
        problems.append("cpm differs from sqrt(2) [[x00, x10], [x01, x11]]")
    want_c = 2.0 * abs(amp[0] * amp[3] - amp[1] * amp[2])
    if not abs(conc - want_c) <= TOL:
        problems.append(f"concurrence {conc!r} != {want_c!r}")
    if np.max(np.abs(want_x @ want_x.conj().T - np.eye(2))) <= CLASSIFY_TOL:
        want_cls = "Perfect"
    elif abs(np.linalg.det(want_x)) <= CLASSIFY_TOL:
        want_cls = "Unteleportable"
    else:
        want_cls = "Probabilistic"
    if str(cls) != want_cls:
        problems.append(f"class {cls} != {want_cls}")
    return problems


def _parse_csv(text: str, header: str, ncols: int) -> tuple[list[list[float]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"header {lines[:1]!r} != {header!r}"]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != ncols:
            return rows, [f"bad row {line!r}"]
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            return rows, [f"bad row {line!r}"]
    return rows, []


def check_sweep(op: dict, code: int, out: str) -> tuple[int, list[str]]:
    """A `sweep` CSV: grid, closed-form totals, analytic vs simulated.

    Returns (cross-checked points, problems).
    """
    if code != 0:
        return 0, [f"exit code {code}"]
    rows, problems = _parse_csv(out, f"{op['param']},analytic_total,simulated_total", 3)
    if problems:
        return 0, problems
    if len(rows) != op["steps"]:
        return 0, [f"{len(rows)} rows, want {op['steps']}"]
    grid = np.linspace(op["start"], op["stop"], op["steps"])
    for g, (value, ana, sim) in zip(grid, rows):
        g = float(g)
        if op["param"] == "b":
            want = expected_total(math.sqrt(max(0.0, 1.0 - g * g)), g, op["basis"], op["k"])
        else:
            ch = op["channel"]
            want = expected_total(complex(*ch["a"]), complex(*ch["b"]), op["basis"], g)
        if not abs(value - g) <= TOL:
            problems.append(f"grid value {value!r} != {g!r}")
        elif not abs(ana - want) <= TOL:
            problems.append(f"{op['param']}={value!r}: analytic {ana!r} != closed form {want!r}")
        elif not abs(ana - sim) <= TOL:
            problems.append(f"{op['param']}={value!r}: analytic {ana!r} vs simulated {sim!r}")
        if problems:
            return 0, problems
    return len(rows), []


def check_fig1(op: dict, code: int, out: str) -> list[str]:
    """`fig1` CSV: columns 2b^2, 2(ab)^2, 4(ab)^2 over b from ~0 to 1/sqrt(2)."""
    if code != 0:
        return [f"exit code {code}"]
    rows, problems = _parse_csv(out, "b,p_opt,p_k1,p_ksqrt2", 4)
    if problems:
        return problems
    if len(rows) != op["steps"]:
        return [f"{len(rows)} rows, want {op['steps']}"]
    bs = [r[0] for r in rows]
    if not (0.0 < bs[0] < 0.01 and abs(bs[-1] - 1.0 / math.sqrt(2.0)) <= TOL):
        return [f"grid runs from {bs[0]!r} to {bs[-1]!r}"]
    if any(y <= x for x, y in zip(bs, bs[1:])):
        return ["grid is not increasing"]
    for b, p_opt, p_k1, p_ksqrt2 in rows:
        ab2 = (1.0 - b * b) * b * b
        if not (abs(p_opt - 2 * b * b) <= TOL and abs(p_k1 - 2 * ab2) <= TOL
                and abs(p_ksqrt2 - 4 * ab2) <= TOL):
            return [f"b={b!r}: row {p_opt!r}, {p_k1!r}, {p_ksqrt2!r} off the closed forms"]
    return []


def mc_signature(rep) -> tuple:
    return (tuple(rep.outcome_counts), tuple(rep.success_counts), rep.p_hat)


def check_montecarlo(op: dict, rep, previous) -> list[str]:
    """Sampler counts: consistent, within Z_MAX standard errors of the
    closed form, and identical to the previous run of the same seed."""
    n = op["trials"]
    problems = []
    if sum(rep.outcome_counts) != n or len(rep.outcome_counts) != 4:
        problems.append(f"outcome counts {rep.outcome_counts} do not sum to {n}")
    if any(not 0 <= s <= c for s, c in zip(rep.success_counts, rep.outcome_counts)):
        problems.append("a success count exceeds its outcome count")
    if not abs(sum(rep.success_counts) / n - rep.p_hat) <= TOL:
        problems.append("p_hat is not successes / trials")
    p = _op_total(op)
    sd = math.sqrt(p * (1.0 - p) / n)
    z = (rep.p_hat - p) / sd if sd > 0 else (0.0 if rep.p_hat == p else math.inf)
    if not abs(z) <= Z_MAX:
        problems.append(f"z = {z!r} (p_hat {rep.p_hat!r}, closed form {p!r}, n {n})")
    if previous is not None and mc_signature(rep) != previous:
        problems.append("rerunning the same sampler seed gave different counts")
    return problems
