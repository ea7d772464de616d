"""Output checks for the benchmark's operations.

Each check takes one operation's parsed JSON output and returns a list of
problems, empty when the output is correct.  Parsed fields are compared,
never raw bytes, so a later version of the CLI may add fields.  The checks
run after each operation has exited, outside its timed interval.
"""
from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBE_K = range(2, 33)
INITIAL_VALUE_QS = (5, 6)


def brute_force_power_sums(q: int, n_max: int, k_max: int) -> dict:
    """{(k, n): (s^k)_n} for 1 <= n <= n_max, 0 <= k <= k_max, summed over
    rows of HPT_{4,q} built here from the construction, not by hptsums.

    Row n+1: a 1 (type B), then for each adjacent pair of row n the pair's
    sum (type A), followed, after every interior vertex, by q-4 copies of
    it if it is type A and q-3 copies if type B; then a closing 1.
    """
    row = [(1, False), (1, False)]  # (value, is_type_a); row 1
    sums = {}
    for n in range(1, n_max + 1):
        if n > 1:
            nxt = [(1, False)]
            for i in range(len(row) - 1):
                nxt.append((row[i][0] + row[i + 1][0], True))
                if i + 1 < len(row) - 1:
                    v, is_a = row[i + 1]
                    nxt.extend([(v, False)] * (q - 4 if is_a else q - 3))
            nxt.append((1, False))
            row = nxt
        for k in range(k_max + 1):
            sums[(k, n)] = sum(v**k for v, _ in row)
    return sums


def _eval(coeffs: list, q: int) -> int:
    return sum(c * q**d for d, c in enumerate(coeffs))


class Oracle:
    """Expected outputs for the derive, probe and grid operations."""

    def __init__(self, reference_coefficients: dict, derive_ks: range):
        self.reference = reference_coefficients
        self.golden_k12 = json.loads((GOLDEN / "derive_k12.json").read_text())
        self.golden_probe = json.loads((GOLDEN / "probe.json").read_text())
        # Initial values run to n = order <= k // 2 + 3.
        n_max = max(derive_ks) // 2 + 3
        self.brute = {q: brute_force_power_sums(q, n_max, max(derive_ks))
                      for q in INITIAL_VALUE_QS}

    def check_derive(self, k: int, out: dict) -> list:
        problems = []
        if out.get("k") != k:
            problems.append(f"k is {out.get('k')!r}, expected {k}")
        coeffs = out.get("coefficients", [])
        if k in self.reference:
            ref = self.reference[k]
            padded = coeffs + [[]] * (len(ref) - len(coeffs))
            if padded != ref:
                problems.append(f"k={k} coefficients {coeffs} differ from "
                                f"the reference table {ref}")
        if k == 12:
            for key, want in self.golden_k12.items():
                if out.get(key) != want:
                    problems.append(f"k=12 field {key!r} differs from golden")
        values = out.get("initial_values", [])
        if len(values) != out.get("order"):
            problems.append(f"k={k}: {len(values)} initial values for order "
                            f"{out.get('order')}")
        for q in INITIAL_VALUE_QS:
            for n, poly in enumerate(values, 1):
                want = self.brute[q].get((k, n))
                if _eval(poly, q) != want:
                    problems.append(f"k={k} initial value n={n} at q={q} is "
                                    f"{_eval(poly, q)}, brute force {want}")
        return problems

    def check_probe(self, out: list) -> list:
        by_k = {f.get("k"): f for f in out}
        if sorted(by_k) != list(PROBE_K):
            return [f"probe reports k={sorted(by_k)}, expected "
                    f"{PROBE_K.start}..{PROBE_K.stop - 1}"]
        problems = []
        for k, want in self.golden_probe.items():
            got = by_k[int(k)]
            for key, value in want.items():
                if got.get(key) != value:
                    problems.append(f"k={k} {key} is {got.get(key)!r}, "
                                    f"golden {value!r}")
        return problems

    @staticmethod
    def check_grid(out: dict) -> list:
        problems = []
        if out.get("all_exact") is not True:
            problems.append("all_exact is not true")
        for section, key in (("recurrence_checks", "mismatches"),
                             ("system_checks", "failing_equations"),
                             ("counting_checks", "mismatches")):
            for c in out.get(section, []):
                if c.get(key):
                    problems.append(f"{section} k={c.get('k')} q={c.get('q')}"
                                    f": {len(c[key])} {key}")
        return problems


def grid_coverage(out: dict) -> tuple:
    """(rows checked, checks covering zero rows) over the recurrence and
    system-step checks of a verify report.  A check's rows are
    first_n..last_n; last_n < first_n means it checked none."""
    rows = uncovered = 0
    for c in out.get("recurrence_checks", []) + out.get("system_checks", []):
        covered = c["last_n"] - c["first_n"] + 1
        rows += max(0, covered)
        uncovered += covered <= 0
    return rows, uncovered
