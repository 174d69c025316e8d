"""Span recorder and call ledger for the benchmark.

Spans are taken only in the benchmark's own code, around its calls into the
public functions of each pseudosurv module; nothing is instrumented inside
the package. A span is (name, start, end, parent, pass id). Spans are kept
in memory and written out once, when the run ends. With the recorder off,
``span`` costs one attribute check and records nothing.

The ledger counts every public call a pass attempts, the failures by
exception type, and counts read from public result fields. A failed call
stops its pass: it raises ``PassStopped``, which the workload catches at the
pass (or pipeline) boundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from collections import Counter

import numpy as np

from pseudosurv import PseudosurvError
from pseudosurv.km import PseudoVector


class PassStopped(Exception):
    """A call failed, so the rest of its pass is not attempted."""


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.pass_id = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.pass_id)

    @staticmethod
    def seconds_per_span(samples: int = 20000) -> float:
        """What one span costs the recorder, timed on a throwaway recorder."""
        probe = Recorder(True)
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - start) / samples

    def self_times(self) -> Counter:
        """Seconds per span name, each span less the time its children cover.

        Calls are sequential, so children never overlap and their union is
        the sum of their durations.
        """
        child_time = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[index]
        return out

    def write(self, path):
        rows = [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent, "pass": pass_id}
            for i, (name, start, end, parent, pass_id) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class Ledger:
    """Attempted and failed calls, failures by type, and result counts."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.attempted = 0
        self.failures = Counter()
        self.counts = Counter()
        self.gaps = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run one public call inside a span named after its layer.

        A typed PseudosurvError, or a pseudo vector holding NaN or flagged
        values, counts as a failed call and stops the pass.
        """
        self.attempted += 1
        with self.rec.span(name):
            try:
                out = fn(*args, **kwargs)
            except PseudosurvError as exc:
                layer = name.split(".")[0]
                self.fail(type(exc).__name__)
                self.counts[layer + ".fail"] += 1
                if getattr(exc, "iterations", None) is not None:
                    self.counts[layer + ".iterations"] += exc.iterations
                raise PassStopped(name) from exc
        if isinstance(out, PseudoVector):
            if out.flagged is not None:
                self.counts["jackknife.flagged"] += int(out.flagged.sum())
                self.fail("FlaggedPseudo")
                raise PassStopped(name)
            if not np.all(np.isfinite(out.values)):
                self.fail("NaNPseudo")
                raise PassStopped(name)
        return out

    def call_cli(self, name: str, main, argv):
        """Run ``pseudosurv.cli.main``; exit code 3 is a typed failure.

        The CLI catches its own errors and names the type on stderr as
        ``error:<Type>: message``. Any other nonzero exit is a usage error,
        which means the benchmark itself is wrong, so it raises.
        """
        self.attempted += 1
        err = io.StringIO()
        with self.rec.span(name), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            return
        found = re.search(r"^error:(\w+):", err.getvalue(), re.MULTILINE)
        if code != 3 or found is None:
            raise RuntimeError(f"{name} exited {code}: {err.getvalue().strip()}")
        self.fail(found.group(1))
        self.counts["cli.fail"] += 1
        raise PassStopped(name)

    def fail(self, kind: str):
        self.failures[kind] += 1

    def gap(self, name: str, value: float):
        self.gaps[name] = max(self.gaps[name], float(value))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def signature(self):
        """What must repeat exactly when the same inputs run again."""
        return (self.attempted, sorted(self.failures.items()), sorted(self.counts.items()))
