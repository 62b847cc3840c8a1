"""telematch benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {sweep,point,montecarlo} \\
        --seed N --seconds S --trace {0,1}

Drives the package in process, closed loop: one single-threaded caller
waits for each reply. The inputs come from the seed (see inputs.py);
every result is checked by checks.py, outside the timed intervals, and
an operation that fails a check counts as failed.

A pass runs the workload's own stream at full size and the other two
streams as small probes. The benchmark first runs one warm-up pass,
then repeats passes until --seconds have gone by. With --trace 0 it
reports the end-to-end metrics, from each operation's median time over
the passes at the nominal speed of reference kernels (see hostspeed.py);
with --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py), writing the trace to perfbench/out/. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import checks
import hostspeed
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_STATEMENT = "import telematch.cli"
SETUP_REPEATS = 7
IMPORT_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "sweep_points_per_s": "1/s",
    "report_p50_us": "us",
    "report_p99_us": "us",
    "mc_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
CALLS_PER_POINT = ("qlinalg.as_vector", "qlinalg.is_unitary", "channel.classify",
                   "measurement.project")
# Request kinds whose results are the cross-checked points: report pairs
# and sweep rows.
POINT_KINDS = ("pair", "sweep")
MAX_PROBLEMS_SHOWN = 10


def load_package():
    """Import telematch from this checkout's src/, never from elsewhere."""
    if not (SRC / "telematch" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no telematch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import telematch
    import telematch.cli

    if SRC not in Path(telematch.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported telematch from {telematch.__file__}, not {SRC}")
    return telematch


def cold_starts(statements: tuple[str, ...], repeats: int, importtime: bool = False) -> list[list]:
    """Run each statement in fresh interpreters, `repeats` rounds.

    Returns, per statement, the wall seconds of each run, or with
    importtime the parsed `-X importtime` table of each run
    ({module: (self_us, cumulative_us)}). The statements alternate, so
    they see the same host state. A first, untimed round writes bytecode
    caches and warms the file cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    results = [[] for _ in statements]
    for i in range(repeats + 1):
        for stmt, out in zip(statements, results):
            argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", stmt]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=IMPORT_TIMEOUT_S)
            dt = time.perf_counter() - t0
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {stmt!r} failed in a fresh interpreter:\n{proc.stderr}")
            if i:
                out.append(_parse_importtime(proc.stderr) if importtime else dt)
    return results


def _parse_importtime(text: str) -> dict:
    table = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            table[parts[2].strip()] = (int(parts[0].split(":")[1]), int(parts[1]))
    return table


class Tally:
    """Counts of one pass, and the time of each timed operation at its
    index in its stream: NaN where none is taken (other kinds of
    operation, the first report pair, a call that raised)."""

    def __init__(self, prepared: dict) -> None:
        self.busy_s = 0.0
        self.points = 0
        self.sweep_points = 0
        self.mc_trials = 0
        self.sweep_s = array("d", [math.nan]) * len(prepared["sweep"])  # sweep and fig1 calls
        self.pair_s = array("d", [math.nan]) * len(prepared["point"])  # report pairs but the first
        self.mc_s = array("d", [math.nan]) * len(prepared["montecarlo"])


class Runner:
    """Runs passes of one workload and keeps a tally of each pass."""

    def __init__(self, tm, prepared: dict) -> None:
        self.tm = tm
        self.cli = sys.modules["telematch.cli"]
        self.prepared = prepared
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.mc_seen: dict[int, tuple] = {}
        self.tallies: list[Tally] = []
        # The first report pair of each pass follows the other streams and
        # takes about twice the median to refill the caches: a cost of the
        # benchmark's switch between streams, not of the request. It is
        # run and checked but kept out of the latency samples, where it
        # would be one request in about a hundred on the sweep and
        # montecarlo workloads.
        self.warmup_pair = next((i for i, (op, _) in enumerate(prepared["point"])
                                 if op["kind"] == "pair"), None)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Tally:
        """One pass over every stream; its tally is also kept in `tallies`."""
        self.tally = Tally(self.prepared)
        self.tallies.append(self.tally)
        for stream in inputs.STREAMS:
            for index, (op, args) in enumerate(self.prepared[stream]):
                self._run_op((stream, index), op, args, tracer.request if tracer else None)
        return self.tally

    def run_memory_pass(self) -> int:
        """The montecarlo stream once more, checked, each call under
        tracemalloc; returns the sum of the calls' peak traced bytes."""
        peaks = []

        @contextlib.contextmanager
        def traced_memory(kind):
            tracemalloc.start()
            try:
                yield
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self.tally = Tally(self.prepared)
        for index, (op, args) in enumerate(self.prepared["montecarlo"]):
            self._run_op(("montecarlo", index), op, args, traced_memory)
        return sum(peaks)

    def _run_op(self, key, op: dict, args, span=None) -> None:
        """Run, time and check one operation; `span(kind)`, if given, is a
        context manager around the call."""
        kind = op["kind"]
        self.attempted += 1
        with span(kind) if span else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = getattr(self, f"_call_{kind}")(op, args)
                error = None
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                result, error = None, exc
            dt = time.perf_counter() - t0
        self.tally.busy_s += dt
        if error is not None:
            problems = [f"raised {error!r}"]
        else:
            try:
                problems = getattr(self, f"_check_{kind}")(key, op, result, dt)
            except Exception as exc:  # a malformed result is one failed operation
                problems = [f"result could not be checked: {exc!r}"]
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.extend(f"{kind} {key}: {p}" for p in problems)

    # Calls under test. Each looks its target up at call time, through
    # the package or module attribute, so that the tracer's wrappers apply.

    def _call_pair(self, op, args):
        return self.tm.analytic_report(*args), self.tm.simulate_report(*args)

    def _call_refuse(self, op, args):
        refused = []
        for fn in (self.tm.analytic_report, self.tm.simulate_report):
            try:
                fn(*args)
                refused.append(False)
            except Exception:  # any refusal counts; the error taxonomy is not pinned
                refused.append(True)
        return refused

    def _call_classify(self, op, ch):
        return self.tm.classify(ch), self.tm.concurrence(ch), self.tm.cpm(ch)

    def _call_mc(self, op, args):
        return self.tm.monte_carlo(*args, op["trials"], op["seed"])

    def _call_cli(self, op, args=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(op["argv"])
        return code, out.getvalue()

    _call_sweep = _call_fig1 = _call_cli

    # Checks and accounting, outside the timed interval.

    def _check_pair(self, key, op, result, dt):
        if key[1] != self.warmup_pair:
            self.tally.pair_s[key[1]] = dt
        problems = checks.check_pair(op, *result)
        self.tally.points += not problems
        return problems

    def _check_refuse(self, key, op, result, dt):
        return (checks.check_refusal(result[0], "analytic_report")
                + checks.check_refusal(result[1], "simulate_report"))

    def _check_classify(self, key, op, result, dt):
        return checks.check_classify(op, *result)

    def _check_mc(self, key, op, result, dt):
        self.tally.mc_trials += op["trials"]
        self.tally.mc_s[key[1]] = dt
        problems = checks.check_montecarlo(op, result, self.mc_seen.get(key[1]))
        self.mc_seen[key[1]] = checks.mc_signature(result)
        return problems

    def _check_sweep(self, key, op, result, dt):
        points, problems = checks.check_sweep(op, *result)
        self.tally.points += points
        self.tally.sweep_points += points
        self.tally.sweep_s[key[1]] = dt
        return problems

    def _check_fig1(self, key, op, result, dt):
        self.tally.sweep_s[key[1]] = dt
        return checks.check_fig1(op, *result)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)] if sorted_values else 0.0


def timed(times) -> list[float]:
    """The times that were taken."""
    return [x for x in times if not math.isnan(x)]


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when the base is empty (every operation failed)."""
    return a / b if b else 0.0


def end_to_end(tallies: list[Tally], setup_s: float, setup_factor: float,
               factors: list[float], sampler_factors: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics, with notes that give the measured values and
    sample counts.

    Passes repeat the same operations. Each operation's time is its
    median over the passes, each pass's time scaled by that pass's host
    speed factor (see hostspeed.py; `sampler_factors` for monte_carlo
    calls). The host's own stalls, which hit a few calls in a hundred
    for up to several times their length, drop out. Pooled over the
    passes, they alone set the p99: over 19 runs it was 1.3 to 5.1
    times the p50, while the slowest request's median was at most 1.26
    times the p50.
    """

    def typical(attr: str, fs: list[float]) -> list[float]:
        columns = (timed(x * f for x, f in zip(op, fs))
                   for op in zip(*(getattr(t, attr) for t in tallies)))
        return [statistics.median(xs) for xs in columns if xs]

    def metrics(fs, sampler_fs):
        lat = sorted(typical("pair_s", fs))
        return {
            "setup_s": setup_s,
            "sweep_points_per_s": ratio(statistics.fmean(t.sweep_points for t in tallies),
                                        sum(typical("sweep_s", fs))),
            "report_p50_us": percentile(lat, 0.50) * 1e6,
            "report_p99_us": percentile(lat, 0.99) * 1e6,
            "mc_trials_per_s": ratio(statistics.fmean(t.mc_trials for t in tallies),
                                     sum(typical("mc_s", sampler_fs))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    ones = [1.0] * len(tallies)
    measured = metrics(ones, ones)
    reported = metrics(factors, sampler_factors)
    reported["setup_s"] *= setup_factor
    n = len(timed(tallies[0].pair_s))
    notes = [
        f"sweep: {tallies[0].sweep_points} points in {len(timed(tallies[0].sweep_s))} cli.main calls per pass",
        f"report pairs: {n} requests per pass, median latency of each over {len(tallies)} passes "
        f"({n - math.ceil(0.99 * n)} requests beyond p99)",
        f"montecarlo: {tallies[0].mc_trials} trials in {len(timed(tallies[0].mc_s))} calls per pass",
        f"host speed factor: {setup_factor:.4f} for cold starts, {statistics.fmean(factors):.4f} "
        f"and {statistics.fmean(sampler_factors):.4f} (sampler) mean over passes; measured: "
        + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
    ]
    return {k: (v, END_TO_END[k]) for k, v in reported.items()}, notes


def per_layer(tracer: tracing.Tracer, traced_s: float, untraced: list[Tally], points: int,
              trials: int, mc_peak_bytes: int, imports: list[dict]) -> dict:
    """Per-layer metrics from as many traced passes as untraced ones;
    `points`, `trials` and `mc_peak_bytes` are per pass."""
    stats = tracer.stats
    passes = len(untraced)
    untraced_s = sum(t.busy_s for t in untraced)
    m = {}
    for name, st in stats.items():
        m[f"{name}.calls"] = (st.calls / passes, "calls/pass")
        m[f"{name}.self_s"] = (st.self_s / passes, "s/pass")
    for layer in tracing.LAYERS:
        own = sum(st.self_s for n, st in stats.items() if n.startswith(layer + "."))
        m[f"{layer}.self_share"] = (ratio(own, traced_s), "share")
    m["cli.main.self_share"] = (ratio(stats["cli.main"].self_s, traced_s), "share")
    for name in CALLS_PER_POINT:
        calls = sum(stats[name].calls_by_kind.get(kind, 0) for kind in POINT_KINDS)
        m[f"{name}.calls_per_point"] = (ratio(calls / passes, points), "calls/point")
    sim = stats["protocol.simulate_report"]
    m["protocol.simulate_report.self_us"] = (ratio(sim.self_s, sim.calls) * 1e6, "us")
    # A montecarlo operation is one monte_carlo call, so the untraced
    # passes time the function without the tracer in the way.
    m["protocol.monte_carlo.s_per_1e6_trials"] = (
        ratio(sum(math.fsum(timed(t.mc_s)) for t in untraced),
              sum(t.mc_trials for t in untraced)) * 1e6, "s")
    m["protocol.monte_carlo.peak_bytes_per_trial"] = (ratio(mc_peak_bytes, trials), "B/trial")
    m["import.numpy_s"] = (statistics.median(t.get("numpy", (0, 0))[1] for t in imports) / 1e6, "s")
    m["import.telematch_s"] = (statistics.median(
        sum(s for mod, (s, _) in t.items() if mod.split(".")[0] == "telematch") for t in imports) / 1e6, "s")
    m["trace.overhead"] = (ratio(traced_s, untraced_s), "ratio")
    m["trace.absent"] = (len(tracer.absent), "count")
    m["bench.points_per_pass"] = (points, "count")
    m["bench.trials_per_pass"] = (trials, "count")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: float = 1.0, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; prints a summary and returns the result object."""
    tm = load_package()
    if trace:
        [imports] = cold_starts((SETUP_STATEMENT,), setup_repeats, importtime=True)
    else:
        setup_runs, numpy_runs = cold_starts((SETUP_STATEMENT, "import numpy"), setup_repeats)
        setup_s = statistics.median(setup_runs)
        setup_factor = hostspeed.NUMPY_IMPORT_NOMINAL_S / statistics.median(numpy_runs)
    ops = inputs.plan(workload, seed, scale)
    print(f"workload {workload} seed {seed}: inputs sha256 {inputs.digest(ops)}, "
          + ", ".join(f"{len(v)} {k} ops" for k, v in ops.items()))
    runner = Runner(tm, inputs.materialize(tm, ops))
    runner.run_pass()  # warm-up, checked but not measured
    runner.tallies.clear()
    deadline = time.perf_counter() + seconds
    if not trace:
        speed = hostspeed.Speedometer(max(op["trials"] for op in ops["montecarlo"]))
        speed.sample()
        while not runner.tallies or time.perf_counter() < deadline:
            runner.run_pass()
            speed.sample()
        passes = len(runner.tallies)
        metrics, notes = end_to_end(runner.tallies, setup_s, setup_factor, *speed.interval_factors())
    else:
        tracer = tracing.Tracer()
        untraced, traced_s = [], 0.0
        while not untraced or time.perf_counter() < deadline:
            untraced.append(runner.run_pass())
            tracer.install()
            try:
                tally = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_s += tally.busy_s
        passes = len(untraced)
        metrics = per_layer(tracer, traced_s, untraced, tally.points, tally.mc_trials,
                            runner.run_memory_pass(), imports)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed, "traced_passes": passes,
                                    **tracer.dump()}))
        notes = [f"{passes} untraced + {passes} traced passes; trace written to {path.relative_to(ROOT)}"]
        if tracer.absent:
            notes.append("absent (no longer in the package): " + ", ".join(tracer.absent))
    notes.append(f"{passes} measured passes, {runner.attempted} operations, {runner.failed} failed")
    for line in notes:
        print(line)
    for problem in runner.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None, **sizes) -> int:
    """Command-line entry; `sizes` (scale, setup_repeats) shrink a run for tests."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.STREAMS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), **sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
