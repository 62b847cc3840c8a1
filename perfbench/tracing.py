"""In-memory tracing of telematch's layers from outside the package.

`Tracer.install` replaces each listed public function with a timing
wrapper at every name a caller looks it up by: the defining module's
attribute (which `qlinalg.as_vector` and same-module calls resolve to)
and every other telematch module that imported the name (for example
`telematch.cli.analytic_report`, `telematch.protocol.project` and the
package's own re-exports). `uninstall` puts the originals back, so
untraced passes run the package unmodified.

Per function the tracer keeps calls, inclusive time and self time
(inclusive minus the time of wrapped callees), and the calls made under
each kind of request, where a request is one benchmark operation and
its root span is named `bench.<kind>`. It keeps the first SPAN_LIMIT
spans in memory: (request id, name, parent span, start, end). A listed
function that the package no longer has is reported as absent.
"""

from __future__ import annotations

import contextlib
import sys
import time

LAYERS = ("cli", "protocol", "measurement", "channel", "qlinalg")

FUNCTIONS = {
    "cli": ("main",),
    "protocol": (
        "analytic_report", "simulate_report", "monte_carlo", "fig1_data",
        "branch_coefficients", "matched_unitary", "attach_ancilla",
        "evolve_and_measure", "pauli_correction", "k_bound",
    ),
    "measurement": ("project",),
    "channel": ("classify", "concurrence", "cpm"),
    "qlinalg": ("as_vector", "as_matrix", "tensor", "apply", "norm2", "is_unitary"),
}

SPAN_LIMIT = 20_000


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "calls_by_kind")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.calls_by_kind: dict[str, int] = {}


class Tracer:
    def __init__(self) -> None:
        self.stats = {f"{m}.{f}": Stat() for m, fs in FUNCTIONS.items() for f in fs}
        self.absent: list[str] = []
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._request = 0
        self._kind = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "telematch" or n.startswith("telematch."))]
        self.absent = []
        for name in self.stats:
            layer, fn = name.split(".")
            original = getattr(sys.modules.get(f"telematch.{layer}"), fn, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _reserve(self) -> int:
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(None)
            return len(self.spans) - 1
        self.spans_dropped += 1
        return -1

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        by_kind = stat.calls_by_kind
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = self._reserve()
            parent = stack[-1][1] if stack else -1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                by_kind[self._kind] = by_kind.get(self._kind, 0) + 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx] = (self._request, name, parent, t0, t1)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def request(self, kind: str):
        """Root span of one benchmark operation."""
        self._request += 1
        self._kind = kind
        idx = self._reserve()
        frame = [0.0, idx]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._kind = None
            if idx >= 0:
                self.spans[idx] = (self._request, f"bench.{kind}", -1, t0, t1)

    def dump(self) -> dict:
        return {
            "functions": {n: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                          for n, s in self.stats.items()},
            "absent": self.absent,
            "span_fields": ["request", "name", "parent", "start_s", "end_s"],
            "spans": [list(s) for s in self.spans if s is not None],
            "spans_dropped": self.spans_dropped,
        }
