"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch or truncation, 2 usage or
validation error, or out of memory.  All numeric output is exact decimal text.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import sums, systembuilder, tables, triangle, verify
from .exactalg import format_qpoly

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _emit(text: str, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _csv_rows(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _parse_range(text: str) -> tuple:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a range like 2..6, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError("empty range")
    return lo, hi


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}")


def cmd_row(args) -> int:
    res = triangle.generate_rows(triangle.TriangleParams(args.q), args.n,
                                 entry_cap=args.entry_cap)
    if res.truncated:
        print(f"error: row {args.n} exceeds the entry cap of "
              f"{args.entry_cap} (last generated row: {len(res.rows) - 1})",
              file=sys.stderr)
        return EXIT_MISMATCH
    row = res.rows[args.n]
    if args.format == "json":
        _emit(json.dumps({"q": args.q, "n": args.n,
                          "entries": [[v, t] for v, t in row.entries]}),
              args.output)
    elif args.format == "csv":
        _emit(_csv_rows([["value", "tag"]] + [[v, t] for v, t in row.entries]),
              args.output)
    else:
        _emit(" ".join(f"{v}{t}" for v, t in row.entries), args.output)
    return EXIT_OK


def cmd_sums(args) -> int:
    if args.k < 0:
        print("error: k must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    res = triangle.generate_rows(triangle.TriangleParams(args.q), args.n_max,
                                 entry_cap=args.entry_cap)
    if res.truncated:
        print(f"error: rows beyond {len(res.rows) - 1} exceed the entry cap "
              f"of {args.entry_cap}", file=sys.stderr)
        return EXIT_MISMATCH
    records = []
    for n in range(1, args.n_max + 1):
        rec = {"n": n, "power_sum": sums.power_sum(res.rows[n], args.k)}
        if args.state_vectors and args.k >= 2:
            rec["state_vector"] = sums.state_vector(res.rows[n], args.k).coords
        records.append(rec)
    if args.format == "json":
        _emit(json.dumps({"q": args.q, "k": args.k, "rows": records}),
              args.output)
    elif args.format == "csv":
        head = ["n", "power_sum"] + (["state_vector"]
                                     if args.state_vectors else [])
        rows = [[r["n"], r["power_sum"]]
                + ([" ".join(map(str, r["state_vector"]))]
                   if args.state_vectors and "state_vector" in r else
                   ([""] if args.state_vectors else []))
                for r in records]
        _emit(_csv_rows([head] + rows), args.output)
    else:
        lines = []
        for r in records:
            line = f"n={r['n']}: {r['power_sum']}"
            if "state_vector" in r:
                line += "  state=[" + ", ".join(map(str,
                                                    r["state_vector"])) + "]"
            lines.append(line)
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _recurrence_dict(rec) -> dict:
    return {
        "k": rec.k,
        "order": rec.order,
        "coefficients": [list(c.coeffs) for c in rec.coefficients],
        "x_strip_count": rec.x_strip_count,
        "initial_values": [list(v.coeffs) for v in rec.initial_values],
        "variant": rec.variant,
    }


def cmd_recurrence(args) -> int:
    if args.k < 0:
        print("error: k must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rec = systembuilder.recurrence_for_k(args.k)
    if args.format == "json":
        _emit(json.dumps(_recurrence_dict(rec)), args.output)
    elif args.format == "csv":
        head = (["k"] + [f"c{j}" for j in range(1, rec.order + 1)]
                + ["x_strip_count", "variant"]
                + [f"iv{n}" for n in range(1, len(rec.initial_values) + 1)])
        body = ([rec.k] + [format_qpoly(c) for c in rec.coefficients]
                + [rec.x_strip_count, rec.variant]
                + [format_qpoly(v) for v in rec.initial_values])
        _emit(_csv_rows([head, body]), args.output)
    else:
        lines = [f"k={rec.k} order={rec.order} "
                 f"x_strip_count={rec.x_strip_count} variant={rec.variant}"]
        lines += [f"  c{j} = {format_qpoly(c)}"
                  for j, c in enumerate(rec.coefficients, 1)]
        if rec.initial_values:
            vals = ", ".join(format_qpoly(v) for v in rec.initial_values)
            lines.append(f"  initial values (n=1..{len(rec.initial_values)}):"
                         f" {vals}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    k_lo, k_hi = args.k_range
    if k_lo < 0:
        print("error: k must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if any(q < 5 for q in args.q_list):
        print("error: q must be >= 5", file=sys.stderr)
        return EXIT_USAGE
    report = verify.run_grid((k_lo, k_hi), args.q_list, args.cap,
                             reduced=args.reduced)
    for q in args.q_list:
        report.counting_checks.append(verify.verify_counting(q))
    payload = verify.report_to_dict(report)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = []
        for c in report.recurrence_checks:
            status = "ok" if c.all_exact else \
                f"FAIL ({len(c.mismatches)} mismatches)"
            lines.append(f"recurrence k={c.k} q={c.q} [{c.variant}] "
                         f"n={c.first_n}..{c.last_n}: {status}")
        for c in report.system_checks:
            status = "ok" if c.all_exact else \
                f"FAIL ({len(c.failing_equations)} equation failures)"
            lines.append(f"system    k={c.k} q={c.q} [{c.variant}] "
                         f"n={c.first_n}..{c.last_n}: {status}")
        for c in report.counting_checks:
            status = "ok" if c.all_exact else f"FAIL ({c.mismatches})"
            lines.append(f"counting  q={c.q} depth={c.depth}: {status}")
        lines.append("all-exact" if report.all_exact else "MISMATCHES FOUND")
        _emit("\n".join(lines), args.output)
    return EXIT_OK if report.all_exact else EXIT_MISMATCH


def cmd_table(args) -> int:
    if args.k_max < 0:
        print("error: k-max must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    diffs = verify.reproduce_tables(args.k_max)
    width = 0
    rows = []
    for k in range(args.k_max + 1):
        rec = verify._recurrence(k)
        if k <= tables.MAX_TABLED_K:
            coeffs = rec.coefficients_padded(
                max(len(tables.reference_row(k)), rec.order))
            note = ""
        else:
            coeffs = rec.coefficients
            note = "no fixture (exploratory)"
        width = max(width, len(coeffs))
        rows.append((k, coeffs, note))
    head = ["k"] + [f"c{j}" for j in range(1, width + 1)] + ["note"]
    body = [[k] + [format_qpoly(c) for c in coeffs]
            + [""] * (width - len(coeffs)) + [note]
            for k, coeffs, note in rows]
    if args.format == "json":
        _emit(json.dumps({
            "rows": [{"k": k,
                      "coefficients": [list(c.coeffs) for c in coeffs],
                      "note": note} for k, coeffs, note in rows],
            "diff": verify.table_diff_to_dict(diffs)}), args.output)
    else:
        text = _csv_rows([head] + body)
        if diffs:
            text += "\ndiff:\n" + "\n".join(
                f"  k={d.k} c{d.j}: expected {format_qpoly(d.expected)}, "
                f"computed {format_qpoly(d.computed)}" for d in diffs)
        _emit(text, args.output)
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_conjecture(args) -> int:
    if args.k_min < 2:
        print("error: k-min must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.k_max < args.k_min:
        print("error: k-max must be >= k-min", file=sys.stderr)
        return EXIT_USAGE
    findings = verify.probe_conjecture(args.k_min, args.k_max)
    payload = verify.findings_to_dict(findings)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = []
        for f in payload:
            flags = []
            if f["anomaly"]:
                flags.append(f"{f['trailing_zero_count']} trailing zero "
                             "coefficient(s)")
            if not f["tabled"]:
                flags.append("exploratory")
            lines.append(
                f"k={f['k']}: order {f['stripped_order']}"
                f"{'+' + str(f['trailing_zero_count']) if f['anomaly'] else ''}"
                f" vs conjectured {f['conjectured_order']} "
                f"({'match' if f['order_matches'] else 'MISMATCH'}), "
                f"max q-degree {f['max_q_degree']}"
                + (f"  [{'; '.join(flags)}]" if flags else ""))
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hptsums",
        description="Exact power sums and linear recurrences for hyperbolic "
                    "Pascal triangles on the {4,q} mosaics.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
        p.add_argument("-o", "--output", default=None,
                       help="write to a file instead of stdout")

    p = sub.add_parser("row", help="print one triangle row")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entry-cap", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_row)

    p = sub.add_parser("sums", help="power sums per row")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--state-vectors", action="store_true")
    p.add_argument("--entry-cap", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("recurrence", help="derive the recurrence for one k")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("verify", help="verify recurrences over a (k, q) grid")
    p.add_argument("--k-range", type=_parse_range, default=(2, 8),
                   metavar="LO..HI")
    p.add_argument("--q-list", type=_parse_int_list, default=(5, 6, 7, 9),
                   metavar="Q1,Q2,...")
    p.add_argument("--cap", type=int, default=verify.DEFAULT_ENTRY_CAP)
    p.add_argument("--reduced", action="store_true",
                   help="also sweep the printed reduced equations")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reproduce the coefficient table")
    p.add_argument("--k-max", type=int, default=tables.MAX_TABLED_K)
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("conjecture", help="order/linearity probe")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_conjecture)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller k, n or entry cap",
              file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
