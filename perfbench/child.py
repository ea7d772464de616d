"""Run one hptsums CLI operation in this process and report when it started.

Usage: python3 perfbench/child.py MODE [CLI ARG ...]

MODE is one of
  setup  import hptsums.cli, record the time, and exit without running it;
  run    also run cli.main on the arguments;
  trace  as run, with spans and counters recorded around the layers.

The CLI's own stdout and stderr pass through unchanged.  After them, the
last stderr line is RECORD_PREFIX followed by a JSON object:
  entered  CLOCK_MONOTONIC seconds when cli.main was about to be entered
           (the parent subtracts its spawn time to get the set-up time);
  spans    (trace only) per span name: calls, failures, s, self_s;
  counts   (trace only) exact counters, see Tracer.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can compare it.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

RECORD_PREFIX = "perfbench-record "
SRC = Path(__file__).resolve().parent.parent / "src"


def monotonic_now() -> float:
    """CLOCK_MONOTONIC, shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _entries(row) -> int:
    return len(getattr(row, "entries", ()))


def _count_next_row(t, args, result):
    t.counts["triangle.entries_generated"] += _entries(result)


def _count_power_sum(t, args, result):
    t.counts["sums.entries_scanned"] += _entries(args[0])


def _count_type_power_sums(t, args, result):
    # Two generator passes over the row, one per tag.
    t.counts["sums.entries_scanned"] += 2 * _entries(args[0])


def _count_pair_sum(t, args, result):
    t.counts["sums.pair_sum.calls"] += 1
    t.counts["sums.entries_scanned"] += max(0, _entries(args[0]) - 1)


def _count_charpoly_int(t, args, result):
    # Faddeev-LeVerrier does n products of n x n matrices: n**4 scalar
    # multiplications, computed from the dimension rather than counted.
    n = len(args[0])
    t.counts["exactalg.charpoly_int.mults_computed"] += n**4


# (module, function, timed, counter).  Timed functions get a span; the
# others are only counted, so that their time stays in the caller's self
# time (pair_sum and type_power_sums are the body of state_vector).
TARGETS = [
    ("triangle", "next_row", True, _count_next_row),
    ("sums", "power_sum", True, _count_power_sum),
    ("sums", "type_power_sums", False, _count_type_power_sums),
    ("sums", "pair_sum", False, _count_pair_sum),
    ("sums", "state_vector", True, None),
    ("exactalg", "charpoly_int", True, _count_charpoly_int),
    ("exactalg", "charpoly_q", True, None),
    ("exactalg", "lagrange_interpolate", True, None),
    ("systembuilder", "recurrence_for_k", True, None),
    ("systembuilder", "initial_values_symbolic", True, None),
    ("verify", "verify_recurrence", True, None),
    ("verify", "verify_system_steps", True, None),
    ("verify", "verify_counting", True, None),
]


class Tracer:
    """Spans and counters around the public functions of the layers.

    Every module attribute of the hptsums package that is bound to a target
    function is replaced by the wrapper, so calls through names imported
    with ``from .exactalg import ...`` are traced too.  Spans are kept in
    memory as [name, start, end, parent index, raised] and summed by
    totals().  A target that a later version of the package no longer has
    is skipped and reports zero.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for name in (
            "triangle.entries_generated", "sums.entries_scanned",
            "sums.pair_sum.calls", "exactalg.charpoly_int.mults_computed")}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hptsums" or name.startswith("hptsums.")]
        for mod_name, fn_name, timed, counter in TARGETS:
            mod = sys.modules.get(f"hptsums.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, timed,
                                 counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn, timed, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
                counter(tracer, args, result)
                return result
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, monotonic_now(), None, parent, False]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = monotonic_now()
                tracer.stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    def totals(self) -> dict:
        """Per span name: calls, failures (calls that raised), inclusive
        seconds (a span nested in one of the same name is not added twice)
        and self seconds (duration minus the part covered by its child
        spans, which run one after another inside it)."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out = {}
        for i, (name, start, end, parent, raised) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "failures": 0, "s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["failures"] += raised
            agg["self_s"] += (end - start) - child_cover[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                agg["s"] += end - start
        return out


def main(argv: list) -> int:
    mode, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import hptsums.cli as cli
    record = {"entered": monotonic_now()}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    try:
        if mode == "setup":
            return 0
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            record["spans"] = tracer.totals()
            record["counts"] = tracer.counts
        sys.stderr.write(RECORD_PREFIX + json.dumps(record) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
