"""hptsums benchmark: one workload as a series of CLI operations.

Usage:
  python3 perfbench/run.py --workload {derive,probe,grid} --seed N \
      --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  Each
operation is one `hptsums` CLI call in a fresh child process (so with
empty lru_caches, as a user pays it), run one at a time.  The workload's
operations are repeated in passes, each pass in an order shuffled by
--seed, until --seconds is used up.  After each operation its exit code and
JSON output are checked.

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the operations of each one's median wall time,
               spawn to exit;
  cpu_s        the same for user+sys CPU time of the child (os.wait4);
  peak_rss_mb  largest peak RSS of any single operation (os.wait4);
  setup_s      median time from spawning a child to entering cli.main,
               over set-up-only spawns and every operation.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (see child.Tracer), medians over passes,
plus the tracing overhead: traced wall_s minus untraced wall_s.
Every time is scaled to a reference speed (see REFERENCE_S); the
unscaled end-to-end times are printed too.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Failed operations (unexpected exit code or a failed
output check) count against attempted ones.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from child import RECORD_PREFIX, monotonic_now  # noqa: E402
from oracle import Oracle, grid_coverage  # noqa: E402

DERIVE_KS = range(2, 13)
WORKLOADS = {
    "derive": [("recurrence", "--k", str(k), "--format", "json")
               for k in DERIVE_KS],
    "probe": [("conjecture", "--k-min", "2", "--k-max", "32",
               "--format", "json")],
    "grid": [("verify", "--k-range", "2..11", "--format", "json")],
}
SETUP_PROBES = 10
# The machine the benchmark was defined on shares its cores with other
# tenants: the speed of a core drifts by up to 2x within seconds, for wall
# and CPU time alike.  Between consecutive operations this process times a
# fixed integer loop of REFERENCE_LOOP iterations.  An operation's times
# are multiplied by REFERENCE_S / the mean of the loop times just before
# and after it, so they are reported at the speed at which the loop takes
# REFERENCE_S, its median time on that machine.
REFERENCE_LOOP = 300_000
REFERENCE_S = 0.023
# Every operation is killed once the run has lasted this long, so that a
# run ends within its 180-second limit even if the program hangs.
HARD_LIMIT_S = 165.0

LAYER_SPANS = [
    ("triangle.next_row", ("calls", "self_s")),
    ("sums.power_sum", ("self_s",)),
    ("sums.state_vector", ("self_s",)),
    ("exactalg.charpoly_int", ("calls", "self_s")),
    ("exactalg.charpoly_q", ("s", "self_s")),
    ("exactalg.lagrange_interpolate", ("calls", "failures", "self_s")),
    ("systembuilder.recurrence_for_k", ("s", "self_s")),
    ("systembuilder.initial_values_symbolic", ("s", "self_s")),
    ("verify.verify_recurrence", ("s",)),
    ("verify.verify_system_steps", ("s",)),
    ("verify.verify_counting", ("s",)),
]
LAYER_COUNTS = ["triangle.entries_generated", "sums.entries_scanned",
                "sums.pair_sum.calls", "exactalg.charpoly_int.mults_computed"]


@dataclass
class OpResult:
    """One operation: what ran, how long it took, and what went wrong."""

    args: tuple
    mode: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup: float = 0.0
    speed: float = 1.0  # REFERENCE_S / reference time around this operation
    stdout: str = ""
    record: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(args, mode: str, kill_at: float) -> OpResult:
    """Run child.py MODE ARGS in a fresh process and time it from outside."""
    res = OpResult(args, mode)
    cmd = [sys.executable, str(CHILD), mode, *args]
    start = monotonic_now()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(0.0, kill_at - monotonic_now()), proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        res.stdout = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    res.wall = monotonic_now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    res.cpu = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    lines = err[0].splitlines() if err else []
    if lines and lines[-1].startswith(RECORD_PREFIX):
        res.record = json.loads(lines.pop()[len(RECORD_PREFIX):])
        res.setup = res.record["entered"] - start
    else:
        res.problems.append("no timing record from the child")
    if proc.returncode != 0:
        tail = " | ".join(lines[-3:])
        res.problems.append(f"exit code {proc.returncode}: {tail}")
    return res


def reference_time() -> float:
    """Seconds this process takes for a fixed integer loop right now."""
    start = monotonic_now()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return monotonic_now() - start


class Speedometer:
    """Sets OpResult.speed from reference loops timed between operations."""

    def __init__(self):
        self.last = reference_time()

    def rate(self, res: OpResult) -> None:
        now = reference_time()
        res.speed = REFERENCE_S / ((self.last + now) / 2)
        self.last = now


def check(res: OpResult, oracle: Oracle) -> None:
    if res.problems:
        return
    try:
        out = json.loads(res.stdout)
    except ValueError as exc:
        res.problems.append(f"output is not JSON: {exc}")
        return
    command = res.args[0]
    if command == "recurrence":
        res.problems += oracle.check_derive(int(res.args[2]), out)
    elif command == "conjecture":
        res.problems += oracle.check_probe(out)
    else:
        res.problems += oracle.check_grid(out)
        res.record["coverage"] = grid_coverage(out)


def per_op_median(passes: list, attr: str, scaled: bool = True) -> float:
    """Sum over the workload's operations of each one's median value,
    scaled to the reference speed unless scaled is False."""
    by_op = {}
    for results in passes:
        for r in results:
            value = getattr(r, attr) * (r.speed if scaled else 1.0)
            by_op.setdefault(r.args, []).append(value)
    return sum(statistics.median(v) for v in by_op.values())


def layer_metrics(results: list) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations,
    times scaled to the reference speed."""
    m = {}
    for name, fields in LAYER_SPANS:
        for f in fields:
            timed = f in ("s", "self_s")
            m[f"{name}.{f}"] = sum(
                r.record["spans"].get(name, {}).get(f, 0)
                * (r.speed if timed else 1) for r in results)
    for name in LAYER_COUNTS:
        m[name] = sum(r.record["counts"][name] for r in results)
    m["verify.rows_checked"] = sum(r.record.get("coverage", (0, 0))[0]
                                   for r in results)
    m["verify.checks_uncovered"] = sum(r.record.get("coverage", (0, 0))[1]
                                       for r in results)
    return m


def traced_metrics(good: dict) -> dict:
    """Per-layer metrics, medians over the traced passes, plus the tracing
    overhead."""
    layers = [layer_metrics(p) for p in good["trace"]]
    metrics = {}
    for name in layers[0]:
        values = [x[name] for x in layers]
        if name.rsplit(".", 1)[1] in ("s", "self_s"):
            metrics[name] = (statistics.median(values), "s")
        else:  # counts repeat exactly; median_low keeps them whole
            metrics[name] = (statistics.median_low(values), "count")
    scanned = metrics["sums.entries_scanned"][0]
    generated = metrics["triangle.entries_generated"][0]
    metrics["sums.scan_amplification"] = (
        scanned / generated if generated else 0.0, "ratio")
    calls = metrics["exactalg.lagrange_interpolate.calls"][0]
    failures = metrics["exactalg.lagrange_interpolate.failures"][0]
    metrics["exactalg.lagrange_interpolate.failure_ratio"] = (
        failures / calls if calls else 0.0, "ratio")
    print(f"sums.scan_amplification = entries_scanned / entries_generated = "
          f"{scanned} / {generated}")
    print(f"exactalg.lagrange_interpolate.failure_ratio = failures / calls = "
          f"{failures} / {calls}")
    print("computed, not counted: sums.entries_scanned (from row lengths), "
          "exactalg.charpoly_int.mults_computed (n**4 per call)")
    traced = per_op_median(good["trace"], "wall")
    untraced = per_op_median(good["run"], "wall")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = ap.parse_args()
    kill_at = monotonic_now() + HARD_LIMIT_S

    if not (ROOT / "src" / "hptsums" / "cli.py").is_file():
        print(f"error: no hptsums source under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hptsums.tables import REFERENCE_COEFFICIENTS
    oracle = Oracle(REFERENCE_COEFFICIENTS, DERIVE_KS)

    # Set-up: one discarded spawn (it may compile bytecode), then probes.
    spawn((), "setup", kill_at)
    speed = Speedometer()
    probes = []
    for _ in range(SETUP_PROBES):
        r = spawn((), "setup", kill_at)
        speed.rate(r)
        if not r.ok:
            print(f"error: set-up spawn failed: {r.problems}",
                  file=sys.stderr)
            return 1
        probes.append(r)

    ops = WORKLOADS[opts.workload]
    modes = ["run", "trace"] if opts.trace else ["run"]
    rng = random.Random(opts.seed)
    passes = {mode: [] for mode in modes}
    failures = []
    deadline = monotonic_now() + opts.seconds
    cycle_start = monotonic_now()
    while True:
        for mode in modes:
            order = list(ops)
            rng.shuffle(order)
            results = []
            for args in order:
                r = spawn(args, mode, kill_at)
                speed.rate(r)
                check(r, oracle)
                if not r.ok:
                    failures.append(r)
                results.append(r)
            passes[mode].append(results)
        now = monotonic_now()
        per_cycle = (now - cycle_start) / len(passes["run"])
        if now + per_cycle > deadline or now > kill_at:
            break

    attempted = sum(len(p) for mode in modes for p in passes[mode])
    failed = len(failures)
    good = {mode: [p for p in passes[mode] if all(r.ok for r in p)]
            for mode in modes}
    for r in failures:
        print(f"FAILED {' '.join(r.args)} [{r.mode}]: "
              f"{'; '.join(r.problems[:3])}")
    print(f"workload {opts.workload}: {len(passes['run'])} untraced pass(es)"
          f" of {len(ops)} operation(s), seed {opts.seed}")
    print(f"fail_ratio {failed}/{attempted} (failed / attempted operations)")
    coverage = {r.record["coverage"] for mode in modes for p in passes[mode]
                for r in p if "coverage" in r.record}
    for rows, uncovered in sorted(coverage):
        print(f"verify coverage: {rows} rows checked; {uncovered} "
              "check(s) cover zero rows")

    metrics = {}
    if all(good.values()):
        if opts.trace:
            metrics = traced_metrics(good)
        else:
            runs = good["run"]
            spawned = probes + [r for p in runs for r in p]
            print(f"unscaled: wall {per_op_median(runs, 'wall', False)} s, "
                  f"cpu {per_op_median(runs, 'cpu', False)} s, setup "
                  f"{statistics.median(r.setup for r in spawned)} s")
            metrics = {
                "wall_s": (per_op_median(runs, "wall"), "s"),
                "cpu_s": (per_op_median(runs, "cpu"), "s"),
                "peak_rss_mb": (max(r.rss_mb for p in runs for r in p), "MB"),
                "setup_s": (statistics.median(r.setup * r.speed
                                              for r in spawned), "s"),
            }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
