"""Seeded inputs for the benchmark's three operation streams.

A stream is a list of operations written as plain data (dicts of
numbers, strings and lists), so that a seed fixes the inputs byte for
byte and `digest` can prove it. Complex numbers are stored as
[re, im] pairs. Nothing here imports telematch; `materialize` turns the
plain data into package objects once, before any timing starts.

Streams:

* `sweep`: `telematch.cli.main` argument lists (`sweep --param b`,
  `sweep --param k`, `fig1`);
* `point`: single library calls (an analytic + simulated report pair,
  a classification of a general channel, or a request that must be
  refused);
* `montecarlo`: `monte_carlo` calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import checks

STREAMS = ("sweep", "point", "montecarlo")

# One pass of a workload runs its own stream at full size and the other
# two streams as small probes. The contract of the benchmark asks every
# workload to report every end-to-end metric, and the probes are what
# define the other streams' metrics there while most of each pass still
# goes to the workload's own stream.
FULL = {
    "sweep": {"steps": 250, "fig1_steps": 20000},
    "point": {"ops": 1600},
    "montecarlo": {"calls": 24, "max_trials": 2_000_000},
}
PROBE = {
    "sweep": {"steps": 25, "fig1_steps": 2000},
    "point": {"ops": 160},
    # Probe calls stay small so that the sampler's O(trials) buffers do
    # not set the peak memory of the sweep and point workloads.
    "montecarlo": {"calls": 12, "max_trials": 100_000},
}
MIN_TRIALS = 1000

# Shares of the point stream (the rest are report pairs).
REFUSE_SHARE = 0.05
CLASSIFY_SHARE = 0.20

HALF_PI = math.pi / 2


def plan(workload: str, seed: int, scale: float = 1.0) -> dict[str, list[dict]]:
    """Operations of one pass of `workload`, per stream.

    `scale` shrinks every size (tests use a tiny pass); the benchmark
    itself always runs at scale 1.
    """
    if workload not in STREAMS:
        raise ValueError(f"unknown workload {workload!r}")
    out = {}
    for stream in STREAMS:
        sizes = FULL[stream] if stream == workload else PROBE[stream]
        # A string seed is hashed with SHA-512, so each stream's inputs
        # depend only on (seed, stream, size), not on the other streams.
        rng = random.Random(f"{seed}:{stream}:{sorted(sizes.items())}:{scale}")
        out[stream] = GENERATORS[stream](rng, sizes, scale)
    return out


def digest(ops: dict[str, list[dict]]) -> str:
    """SHA-256 of the canonical JSON form of a pass's inputs."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _scaled(n: int, scale: float, least: int) -> int:
    return max(least, round(n * scale))


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _phase(rng: random.Random) -> complex:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(t), math.sin(t))


def _qubit(rng: random.Random, theta: float) -> tuple[complex, complex]:
    """cos(theta) e^{i p} |0> + sin(theta) e^{i q} |1>, random phases."""
    return math.cos(theta) * _phase(rng), math.sin(theta) * _phase(rng)


def _angle(rng: random.Random, lo: float, hi: float) -> float:
    """Angle in [lo, hi] or its mirror about pi/4, so |a| < |b| happens too."""
    t = rng.uniform(lo, hi)
    return HALF_PI - t if rng.random() < 0.5 else t


def _input(rng: random.Random) -> dict:
    alpha, beta = _qubit(rng, rng.uniform(0.0, HALF_PI))
    return {"alpha": _cx(alpha), "beta": _cx(beta)}


def _diag(rng: random.Random, lo: float, hi: float) -> dict:
    a, b = _qubit(rng, _angle(rng, lo, hi))
    return {"a": _cx(a), "b": _cx(b)}


def _gbm(rng: random.Random, lo: float, hi: float) -> list[float]:
    """Real generalized-basis coefficients [a', b']."""
    phi = _angle(rng, lo, hi)
    sign = -1.0 if rng.random() < 0.25 else 1.0
    return [sign * math.cos(phi), math.sin(phi)]


def _basis(rng: random.Random, lo: float, hi: float):
    """None for the Bell basis (half the time), else gbm coefficients."""
    return None if rng.random() < 0.5 else _gbm(rng, lo, hi)


def _policy(rng: random.Random, bound: float, k_lo: float):
    r = rng.random()
    if r < 1 / 3:
        return "max"
    if r < 2 / 3:
        return "per-outcome"
    return rng.uniform(k_lo, 1.0) * bound


def _literal(z: complex) -> str:
    """Complex literal in the CLI's 're+imi' form, exact to the last bit."""
    return f"{z.real!r}{'+' if math.copysign(1.0, z.imag) > 0 else ''}{z.imag!r}i"


def _state_args(basis, k, inp: dict) -> list[str]:
    # '--opt=value' keeps argparse from reading '-0.3+0.1i' as an option.
    argv = [f"--basis={'bell' if basis is None else 'gbm:%r,%r' % tuple(basis)}"]
    argv.append(f"--alpha={_literal(complex(*inp['alpha']))}")
    argv.append(f"--beta={_literal(complex(*inp['beta']))}")
    argv.append(f"--k={k if isinstance(k, str) else repr(k)}")
    return argv


def gen_sweep(rng: random.Random, sizes: dict, scale: float) -> list[dict]:
    steps = _scaled(sizes["steps"], scale, 2)
    ops = []
    # b grids stay inside (0, 0.71): sweep --param b tabulates diag(sqrt(1-b^2), b).
    for basis_kind in ("bell", "gbm"):
        for k in ("max", "per-outcome"):
            basis = None if basis_kind == "bell" else _gbm(rng, 0.2, 0.75)
            start, stop = rng.uniform(0.02, 0.1), rng.uniform(0.6, 0.7)
            argv = ["sweep", "--param=b", f"--start={start!r}", f"--stop={stop!r}",
                    f"--steps={steps}"] + _state_args(basis, k, _input(rng))
            ops.append({"kind": "sweep", "param": "b", "basis": basis, "k": k,
                        "start": start, "stop": stop, "steps": steps, "argv": argv})
    ch = _diag(rng, 0.2, 0.75)
    basis = _basis(rng, 0.2, 0.75)
    bound = checks.k_bound(complex(*ch["a"]), complex(*ch["b"]), basis)
    start, stop = rng.uniform(0.05, 0.3) * bound, rng.uniform(0.8, 1.0) * bound
    channel = f"diag:{_literal(complex(*ch['a']))},{_literal(complex(*ch['b']))}"
    argv = ["sweep", "--param=k", f"--start={start!r}", f"--stop={stop!r}",
            f"--steps={steps}", f"--channel={channel}"] + _state_args(basis, "max", _input(rng))
    ops.append({"kind": "sweep", "param": "k", "basis": basis, "channel": ch,
                "start": start, "stop": stop, "steps": steps, "argv": argv})
    fig1_steps = _scaled(sizes["fig1_steps"], scale, 2)
    ops.append({"kind": "fig1", "steps": fig1_steps,
                "argv": ["fig1", f"--steps={fig1_steps}"]})
    return ops


def gen_point(rng: random.Random, sizes: dict, scale: float) -> list[dict]:
    ops = []
    for _ in range(_scaled(sizes["ops"], scale, 8)):
        r = rng.random()
        if r < REFUSE_SHARE:
            ops.append(_refusal(rng))
        elif r < REFUSE_SHARE + CLASSIFY_SHARE:
            ops.append(_general_channel(rng))
        else:
            op = {"kind": "pair", **_input(rng), **_diag(rng, 0.05, HALF_PI / 2)}
            op["basis"] = _basis(rng, 0.1, HALF_PI / 2)
            bound = checks.k_bound(complex(*op["a"]), complex(*op["b"]), op["basis"])
            op["policy"] = _policy(rng, bound, 0.2)
            ops.append(op)
    return ops


def _refusal(rng: random.Random) -> dict:
    """A pair request that must be refused: K above its bound, or diag:1,0."""
    op = {"kind": "refuse", **_input(rng), "basis": _basis(rng, 0.1, HALF_PI / 2)}
    if rng.random() < 0.5:
        op.update(a=[1.0, 0.0], b=[0.0, 0.0], policy="max")
    else:
        op.update(_diag(rng, 0.05, HALF_PI / 2))
        bound = checks.k_bound(complex(*op["a"]), complex(*op["b"]), op["basis"])
        op["policy"] = rng.uniform(1.05, 2.0) * bound
    return op


def _general_channel(rng: random.Random) -> dict:
    """A 4-amplitude channel for classify/concurrence/cpm.

    Mostly generic (complex Gaussian), plus maximally entangled
    (amplitude matrix = unitary / sqrt 2) and product states, so that
    all three classes occur.
    """
    r = rng.random()
    if r < 0.1:
        t, p, q, d = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        e = complex(math.cos(d), math.sin(d)) / math.sqrt(2.0)
        u = [
            e * complex(math.cos(p), math.sin(p)) * math.cos(t),
            e * complex(math.cos(q), math.sin(q)) * math.sin(t),
            -e * complex(math.cos(q), -math.sin(q)) * math.sin(t),
            e * complex(math.cos(p), -math.sin(p)) * math.cos(t),
        ]
    elif r < 0.2:
        u0, u1 = _qubit(rng, rng.uniform(0.0, HALF_PI))
        v0, v1 = _qubit(rng, rng.uniform(0.0, HALF_PI))
        u = [u0 * v0, u0 * v1, u1 * v0, u1 * v1]
    else:
        u = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in u))
        u = [z / norm for z in u]
    return {"kind": "classify", "x": [_cx(z) for z in u]}


def gen_montecarlo(rng: random.Random, sizes: dict, scale: float) -> list[dict]:
    calls = _scaled(sizes["calls"], scale, 2)
    top = max(MIN_TRIALS + 1, round(sizes["max_trials"] * min(1.0, scale)))
    # Stratified log-uniform trial counts with the top stratum pinned to
    # the range's end, largest first. Peak memory then is the same for
    # every seed: it follows the largest call, and with the calls in a
    # seeded order it also followed the allocator's history of sizes
    # (103 to 115 MB over ten seeds).
    span = math.log(top / MIN_TRIALS)
    trials = [round(MIN_TRIALS * math.exp(span * (i + rng.random()) / calls))
              for i in range(calls - 1)] + [top]
    trials.sort(reverse=True)
    ops = []
    for n in trials:
        # Channels and bases keep the success probability above ~0.07,
        # so that even the smallest call expects dozens of successes and
        # the z-score check stays a fair normal test.
        op = {"kind": "mc", **_input(rng), **_diag(rng, 0.4, 0.7)}
        op["basis"] = _basis(rng, 0.5, 0.75)
        bound = checks.k_bound(complex(*op["a"]), complex(*op["b"]), op["basis"])
        op["policy"] = _policy(rng, bound, 0.7)
        op["trials"] = n
        op["seed"] = rng.randrange(2**32)
        ops.append(op)
    return ops


GENERATORS = {"sweep": gen_sweep, "point": gen_point, "montecarlo": gen_montecarlo}


def materialize(tm, ops: dict[str, list[dict]]) -> dict[str, list[tuple]]:
    """Pair every operation with the package objects it needs.

    Built once per run, before timing, so that the timed interval holds
    only the call under test.
    """
    bell = tm.standard_bell()

    def basis(spec):
        return bell if spec is None else tm.generalized_bell(*spec)

    def policy(spec):
        if spec == "max":
            return tm.KPolicy.max_global()
        if spec == "per-outcome":
            return tm.KPolicy.max_per_outcome()
        return tm.KPolicy.fixed(spec)

    def protocol_args(op):
        return (
            tm.PureInputState(complex(*op["alpha"]), complex(*op["beta"])),
            tm.TwoQubitChannel.diagonal(complex(*op["a"]), complex(*op["b"])),
            basis(op["basis"]),
            policy(op["policy"]),
        )

    out = {}
    for stream, stream_ops in ops.items():
        built = []
        for op in stream_ops:
            if op["kind"] in ("pair", "refuse", "mc"):
                built.append((op, protocol_args(op)))
            elif op["kind"] == "classify":
                built.append((op, tm.TwoQubitChannel(*(complex(*z) for z in op["x"]))))
            else:
                built.append((op, None))
        out[stream] = built
    return out
