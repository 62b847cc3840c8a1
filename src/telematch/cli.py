"""Command line front end.

Exit codes follow the class of the error, wherever it is raised: 0 on
success; 2 when the request is impossible physics, that is
KOutOfRangeError, UnteleportableChannelError or DegenerateBasisError;
1 for any other ValueError (a bad literal or inconsistent options) and
for OSError. `run` and `montecarlo` take any pure channel and print
the library's reports; numbers print with 15 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import sys

import numpy as np

from .channel import (
    UnteleportableChannelError,
    PureInputState,
    classify,
    concurrence,
    cpm,
    format_complex,
    parse_channel,
    parse_complex,
)
from .measurement import DegenerateBasisError, parse_basis
from .protocol import (
    MAX_TRIALS,
    KOutOfRangeError,
    KPolicy,
    analytic_batch,
    analytic_report,
    b_axis_channels,
    fig1_columns,
    fig1_grid,
    monte_carlo,
    points,
    simulate_batch,
    simulate_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

SEED_ENV = "TELEMATCH_SEED"

# Impossible physics: the errors that exit EXIT_DOMAIN.
_DOMAIN_ERRORS = (KOutOfRangeError, UnteleportableChannelError, DegenerateBasisError)

# Largest grid `sweep` and `fig1` accept. Both compute in blocks; a
# sweep holds its CSV text, about 55 bytes per point, until the last
# block and then joins it: 12 MB peak under tracemalloc at the cap.
MAX_STEPS = 100_000

# Grid points computed and formatted per kernel call by `sweep` and
# `fig1`. Blocks keep the kernels' arrays and the formatter's temporaries
# small whatever --steps is: a 20000-point sweep over the whole grid at
# once peaked at 59.5 MB under tracemalloc.
GRID_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    # refuse a bad argument as a bad literal is refused: main's one error line and exit 1,
    # not argparse's usage block and exit 2, which this tool keeps for domain errors
    def error(self, message):
        raise ValueError(message)


def _check_steps(steps: int, least: int) -> None:
    if not least <= steps <= MAX_STEPS:
        raise ValueError(f"--steps must be between {least} and {MAX_STEPS}, got {steps}")


def _input_state(args) -> PureInputState:
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is None:
        h = 1.0 / math.sqrt(2.0)
        return PureInputState(h, h)
    return PureInputState(parse_complex(args.alpha), parse_complex(args.beta))


def _resolve_seed(args) -> int:
    name, seed = "--seed", args.seed
    if seed is None:
        name, raw = SEED_ENV, os.environ.get(SEED_ENV, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _literals(args):
    """The input state, channel, basis and K policy that run and montecarlo name."""
    return _input_state(args), parse_channel(args.channel), parse_basis(args.basis), KPolicy.parse(args.k)


def cmd_analyze(args) -> int:
    ch = parse_channel(args.channel)
    x = cpm(ch)
    cls = classify(ch)
    c = concurrence(ch)
    entries = [format_complex(z) for z in x.reshape(-1)]
    if args.format == "csv":
        print("cpm00,cpm01,cpm10,cpm11,class,concurrence")
        print(",".join(entries + [str(cls), format_complex(c)]))
    else:
        print("cpm:")
        print(f"  [{entries[0]}, {entries[1]}]")
        print(f"  [{entries[2]}, {entries[3]}]")
        print(f"class: {cls}")
        print(f"concurrence: {format_complex(c)}")
    return EXIT_OK


# The numbers `run` prints per outcome, after lam.
_outcome_row = operator.attrgetter("k_used", "p_alice", "p_bob", "p_joint", "fidelity")


def _numbers(report):
    """Every number of a report: the outcome rows, then the total."""
    return [x for o in report.outcomes for x in _outcome_row(o)] + [report.total]


def cmd_run(args) -> int:
    inp, ch, basis, policy = _literals(args)
    ana, sim = analytic_report(inp, ch, basis, policy), simulate_report(inp, ch, basis, policy)
    diff = float(np.max(np.abs(np.subtract(_numbers(ana), _numbers(sim)))))
    reports = (("analytic", ana), ("simulated", sim))
    if args.format == "csv":
        print("source,lam,k_used,p_alice,p_bob,p_joint,fidelity,total,max_abs_diff")
        for name, report in reports:
            for o in report.outcomes:
                numbers = (*_outcome_row(o), report.total, diff)
                print(",".join([name, str(o.lam), *map(format_complex, numbers)]))
    else:
        header = f"{'outcome':>7}  {'k_used':>17}  {'p_alice':>17}  {'p_bob':>17}  {'p_joint':>17}  {'fidelity':>17}"
        for name, report in reports:
            print(f"{name}:")
            print(header)
            for o in report.outcomes:
                print(f"{o.lam:>7}  " + "  ".join(f"{format_complex(x):>17}" for x in _outcome_row(o)))
            print(f"total success probability: {format_complex(report.total)}")
        print(f"max |analytic - simulated|: {format_complex(diff)}")
        print("note: total success probability does not depend on the input state")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    seed = _resolve_seed(args)
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValueError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    inp, ch, basis, policy = _literals(args)
    total = analytic_report(inp, ch, basis, policy).total
    mc = monte_carlo(inp, ch, basis, policy, args.trials, seed)  # on the point just resolved
    diff, std_err = mc.p_hat - total, mc.std_err
    if std_err == 0.0:
        # p_hat is 0 or 1: its plug-in std err of 0 would blow a last-bit gap up to
        # inf, so weigh the gap to the total, clamped to [0, 1], by the null std err
        p0 = min(max(total, 0.0), 1.0)
        diff, std_err = mc.p_hat - p0, math.sqrt(p0 * (1.0 - p0) / mc.trials)
    if diff == 0.0:
        z = 0.0
    elif std_err == 0.0:
        z = math.copysign(math.inf, diff)
    else:
        z = diff / std_err
    if args.format == "csv":
        print("analytic,empirical,stderr,z")
        print(",".join(map(format_complex, (total, mc.p_hat, mc.std_err, z))))
    else:
        print(f"trials: {mc.trials}")
        print(f"seed: {mc.seed}")
        print(f"sampler: {mc.sampler}")
        print(f"outcome counts: {' '.join(str(n) for n in mc.outcome_counts)}")
        print(f"success counts: {' '.join(str(n) for n in mc.success_counts)}")
        print(f"analytic total: {format_complex(total)}")
        print(f"empirical total: {format_complex(mc.p_hat)}")
        print(f"std err: {format_complex(mc.std_err)}")
        print(f"z: {format_complex(z)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    basis = parse_basis(args.basis)
    inp = _input_state(args)
    _check_steps(args.steps, 1)
    for flag, value in (("--start", args.start), ("--stop", args.stop)):
        if not math.isfinite(value):
            # a non-finite K is out of range (exit 2), a non-finite b bad input (exit 1)
            error = KOutOfRangeError if args.param == "k" else ValueError
            raise error(f"{flag} must be finite, got {value!r}")
        if args.param == "b" and not -1.0 <= value <= 1.0:
            raise ValueError(f"{flag} must lie in [-1, 1] for a b sweep, got {value!r}")
    if args.param == "k":
        if args.channel is None:
            raise ValueError("sweeping k needs --channel")
        if KPolicy.parse(args.k) != KPolicy.max_global():  # a K sweep ignores the default
            raise ValueError("sweeping k takes K from the grid; drop --k")
        x = parse_channel(args.channel).vector().reshape(1, 2, 2)

        def block_points(g):
            return points(x.repeat(len(g), axis=0), basis, "fixed", g)
    else:
        if args.channel is not None:
            raise ValueError("sweeping b derives the channel; drop --channel")
        policy = KPolicy.parse(args.k)

        def block_points(g):
            return points(b_axis_channels(g), basis, policy.mode, policy.k)

    def columns(g):
        pts = block_points(g)
        return g, analytic_batch(inp, pts).total, simulate_batch(inp, pts).total

    grid = np.linspace(args.start, args.stop, args.steps)
    # joined first, so a failing point in any block leaves stdout empty
    sys.stdout.write("".join(_csv(f"{args.param},analytic_total,simulated_total", grid, columns)))
    return EXIT_OK


def cmd_fig1(args) -> int:
    _check_steps(args.steps, 2)
    text = _csv("b,p_opt,p_k1,p_ksqrt2", fig1_grid(args.steps), fig1_columns)
    if args.out is None:
        sys.stdout.writelines(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(text)
    return EXIT_OK


def _csv(header: str, grid: np.ndarray, columns):
    """The CSV text of a grid, piece by piece: the header line, then the rows of
    columns(g) for each GRID_BLOCK slice g of grid."""
    from .csvtext import rows_text  # its tables are built on first use, not at startup

    yield f"{header}\n"
    for start in range(0, len(grid), GRID_BLOCK):
        yield rows_text(columns(grid[start:start + GRID_BLOCK]))


def _add_state_options(sub, k_default_note: str = "default max") -> None:
    sub.add_argument("--basis", default="bell", help="measurement basis: bell or gbm:a,b")
    sub.add_argument("--alpha", default=None, help="input amplitude of |0> (default 1/sqrt(2))")
    sub.add_argument("--beta", default=None, help="input amplitude of |1> (default 1/sqrt(2))")
    sub.add_argument(
        "--k",
        default="max",
        help=f"matching parameter: a number, 'max', or 'per-outcome' ({k_default_note})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="telematch",
        description="Probabilistic teleportation through partially entangled channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="classify a channel and print its parameter matrix")
    p.add_argument("--channel", required=True, help="channel literal: diag:a,b or x00,x01,x10,x11")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="analytic and simulated per-outcome report")
    p.add_argument("--channel", required=True, help="channel literal: diag:a,b or x00,x01,x10,x11")
    _add_state_options(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("montecarlo", help="sample the protocol with a seeded generator")
    p.add_argument("--channel", required=True, help="channel literal: diag:a,b or x00,x01,x10,x11")
    _add_state_options(p)
    p.add_argument("--trials", type=int, default=100000, help="number of samples (default 100000)")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: ${SEED_ENV} or 0)",
    )
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("sweep", help="tabulate success probability along a parameter grid")
    p.add_argument("--param", choices=("k", "b"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--channel", default=None, help="channel literal (k sweeps only)")
    _add_state_options(p, "default max; b sweeps only")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fig1", help="success-probability comparison curves over b")
    p.add_argument("--steps", type=int, default=100, help="grid size (default 100)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_fig1)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    # the class of an error sets the exit code, wherever it was raised
    except (ValueError, OSError) as exc:
        print(f"telematch: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, _DOMAIN_ERRORS) else EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
