"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, uncovered check or
truncation, 2 usage or validation error, a sums run past its size limit,
out of memory, or output that cannot be written.  All numeric output is
exact decimal text.

Every command is its own process, so this module imports at its top only
what the parser needs.  Each cmd_* function imports the package modules it
runs, and _render the json or csv module it writes with.
"""
from __future__ import annotations

import argparse
import itertools
import os
import sys

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _render(args, record, plain, table=None, indent=None) -> None:
    """Write one command's result in args.format to args.output or stdout.

    json dumps record.  csv writes the rows of table with the csv module; a
    command with no table prints its plain form.  plain prints one line per
    item of plain, any iterable, an item that is not a str being a csv row,
    so that the plain form of the table command is its csv table.
    """
    def write(out):
        if args.format == "json":
            import json
            print(json.dumps(record, indent=indent), file=out)
            return
        import csv
        rows = csv.writer(out, lineterminator="\n")
        if args.format == "csv" and table is not None:
            rows.writerows(table)
        else:
            lines = iter(plain)
            # An empty result is one blank line.
            for line in itertools.chain([next(lines, "")], lines):
                if isinstance(line, str):
                    print(line, file=out)
                else:
                    rows.writerow(line)

    if not args.output:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The reader closed the pipe.  fd 1 now points at devnull, so
            # that the interpreter's final flush cannot fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValueError(f"cannot write stdout: {exc.strerror}") from None
        return
    try:
        with open(args.output, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: "
                         f"{exc.strerror or exc}") from None


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
    from . import triangle
    if args.n < 0:
        print("error: n must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    params = triangle.TriangleParams(args.q)
    depth = triangle.capped_depth(params, args.n, args.entry_cap)
    if depth < args.n:
        print(f"error: row {args.n} exceeds the entry cap of "
              f"{args.entry_cap} (last generated row: {depth})",
              file=sys.stderr)
        return EXIT_MISMATCH
    # Row n as its (value, tag) tuples, never copied.
    entries = next(itertools.islice(triangle.entry_rows(params), args.n, None))
    # A generator, so that the long plain line is built only when printed.
    plain = (" ".join(f"{v}{t}" for v, t in e) for e in (entries,))
    _render(args, {"q": args.q, "n": args.n, "entries": entries}, plain,
            table=itertools.chain([("value", "tag")], entries))
    return EXIT_OK


def cmd_sums(args) -> int:
    from . import sums, triangle
    if args.k < 0:
        print("error: k must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.state_vectors and args.k < 2:
        print("error: state vectors need k >= 2", file=sys.stderr)
        return EXIT_USAGE
    params = triangle.TriangleParams(args.q)
    if args.n_max < 0:
        print("error: n_max must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if sums.held_bits(params, args.k, args.n_max,
                      args.state_vectors) > sums.HELD_BITS_LIMIT:
        print(f"error: rows 1..{args.n_max} at k = {args.k} may hold more "
              f"than {sums.HELD_BITS_LIMIT >> 23} MiB of numbers; try a "
              "smaller k or n-max", file=sys.stderr)
        return EXIT_USAGE
    records = []
    rows = itertools.islice(triangle.pair_rows(params, args.entry_cap),
                            1, args.n_max + 1)
    for n, (row, counts) in enumerate(rows, 1):
        a, b = sums.tag_power_sums(counts, (args.k,))
        rec = {"n": n, "power_sum": a[args.k] + b[args.k]}
        if args.state_vectors:
            (rec["state_vector"],) = sums.state_vectors(row, (args.k,), (a, b))
        records.append(rec)
    if len(records) < args.n_max:
        print(f"error: rows beyond {len(records)} may exceed the key cap "
              f"of {args.entry_cap}", file=sys.stderr)
        return EXIT_MISMATCH
    # Generators, so that only the printed form turns numbers into text.
    vectors = args.state_vectors
    plain = (f"n={r['n']}: {r['power_sum']}"
             + (f"  state=[{', '.join(map(str, r['state_vector']))}]"
                if vectors else "") for r in records)
    table = itertools.chain(
        [["n", "power_sum"] + ["state_vector"] * vectors],
        ([r["n"], r["power_sum"]]
         + ([" ".join(map(str, r["state_vector"]))] if vectors else [])
         for r in records))
    _render(args, {"q": args.q, "k": args.k, "rows": records}, plain, table)
    return EXIT_OK


def cmd_recurrence(args) -> int:
    from . import systembuilder
    from .exactalg import format_qpoly
    rec = systembuilder.recurrence_for_k(args.k)
    ivs = rec.initial_values

    # Generators, so that only the printed form formats the coefficients.
    def plain():
        yield (f"k={rec.k} order={rec.order} "
               f"x_strip_count={rec.x_strip_count} variant={rec.variant}")
        for j, c in enumerate(rec.coefficients, 1):
            yield f"  c{j} = {format_qpoly(c)}"
        if ivs:
            yield (f"  initial values (n=1..{len(ivs)}): "
                   f"{', '.join(map(format_qpoly, ivs))}")

    def table():
        yield (["k"] + [f"c{j}" for j in range(1, rec.order + 1)]
               + ["x_strip_count", "variant"]
               + [f"iv{n}" for n in range(1, len(ivs) + 1)])
        yield ([rec.k] + list(map(format_qpoly, rec.coefficients))
               + [rec.x_strip_count, rec.variant]
               + list(map(format_qpoly, ivs)))

    record = {"k": rec.k, "order": rec.order,
              "coefficients": [list(c.coeffs) for c in rec.coefficients],
              "x_strip_count": rec.x_strip_count,
              "initial_values": [list(v.coeffs) for v in ivs],
              "variant": rec.variant}
    _render(args, record, plain(), table())
    return EXIT_OK


def _status(c: dict, failures: list, what: str) -> str:
    """How a check of a verify record ended; a check whose row range is
    empty covered nothing and says so."""
    return (f"FAIL ({len(failures)} {what})" if failures else
            "uncovered" if c["last_n"] < c["first_n"] else "ok")


def _check_line(label: str, c: dict, failures: list, what: str) -> str:
    """One recurrence or system check of a verify record."""
    return (f"{label} k={c['k']} q={c['q']} [{c['variant']}] "
            f"n={c['first_n']}..{c['last_n']}: "
            f"{_status(c, failures, what)}")


def cmd_verify(args) -> int:
    from . import verify
    q_list = verify.DEFAULT_Q_LIST if args.q_list is None else args.q_list
    if any(q < 5 for q in q_list):
        print("error: q must be >= 5", file=sys.stderr)
        return EXIT_USAGE
    repeated = [q for i, q in enumerate(q_list) if q in q_list[:i]]
    if repeated:
        print(f"error: q listed twice: {repeated[0]}", file=sys.stderr)
        return EXIT_USAGE
    record = verify.run_grid(
        verify.DEFAULT_K_RANGE if args.k_range is None else args.k_range,
        q_list, verify.DEFAULT_KEY_CAP if args.cap is None else args.cap,
        reduced=args.reduced)
    plain = [_check_line("recurrence", c, c["mismatches"], "mismatches")
             for c in record["recurrence_checks"]]
    plain += [_check_line("system   ", c, c["failing_equations"],
                          "equation failures")
              for c in record["system_checks"]]
    plain += [f"counting  q={c['q']} depth={c['depth']}: "
              f"{_status(c, c['mismatches'], 'mismatches')}"
              for c in record["counting_checks"]]
    plain.append("all-exact" if record["all_exact"] else
                 "MISMATCHES FOUND" if verify.mismatches_found(record) else
                 "UNCOVERED CHECKS FOUND")
    _render(args, record, plain, indent=2)
    return EXIT_OK if record["all_exact"] else EXIT_MISMATCH


def cmd_table(args) -> int:
    from . import tables, verify
    from .exactalg import format_qpoly
    k_max = tables.MAX_TABLED_K if args.k_max is None else args.k_max
    if k_max < 0:
        print("error: k-max must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rows, diffs = verify.reproduce_tables(k_max)
    width = max(len(coeffs) for _, coeffs, _ in rows)
    plain = [["k"] + [f"c{j}" for j in range(1, width + 1)] + ["note"]]
    plain += [[k] + [format_qpoly(c) for c in coeffs]
              + [""] * (width - len(coeffs)) + [note]
              for k, coeffs, note in rows]
    diff = [{"k": k, "j": j, "expected": format_qpoly(e),
             "computed": format_qpoly(c)} for k, j, e, c in diffs]
    if diff:
        plain.append("diff:")
        plain += [f"  k={d['k']} c{d['j']}: expected {d['expected']}, "
                  f"computed {d['computed']}" for d in diff]
    record = {"rows": [{"k": k,
                        "coefficients": [list(c.coeffs) for c in coeffs],
                        "note": note} for k, coeffs, note in rows],
              "diff": diff}
    _render(args, record, plain)
    return EXIT_OK if not diffs else EXIT_MISMATCH


def cmd_conjecture(args) -> int:
    from . import systembuilder
    if args.k_min < 2:
        print("error: k-min must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.k_max < args.k_min:
        print("error: k-max must be >= k-min", file=sys.stderr)
        return EXIT_USAGE
    record = systembuilder.probe_conjecture(args.k_min, args.k_max)

    def plain():  # a generator: json builds no line
        for f in record:
            flags = []
            if f["anomaly"]:
                flags.append(f"{f['trailing_zero_count']} trailing zero "
                             "coefficient(s)")
            if not f["tabled"]:
                flags.append("exploratory")
            extra = f"+{f['trailing_zero_count']}" if f["anomaly"] else ""
            yield (f"k={f['k']}: order {f['stripped_order']}{extra}"
                   f" vs conjectured {f['conjectured_order']} "
                   f"({'match' if f['order_matches'] else 'MISMATCH'}), "
                   f"max q-degree {f['max_q_degree']}"
                   + (f"  [{'; '.join(flags)}]" if flags else ""))

    _render(args, record, plain(), indent=2)
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
    p.add_argument("--entry-cap", type=int, default=10**6,
                   help="most pair keys per streamed row")
    common(p)
    p.set_defaults(func=cmd_sums)

    p = sub.add_parser("recurrence", help="derive the recurrence for one k")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_recurrence)

    p = sub.add_parser("verify", help="verify recurrences over a (k, q) grid")
    p.add_argument("--k-range", type=_parse_range, metavar="LO..HI")
    p.add_argument("--q-list", type=_parse_int_list, metavar="Q1,Q2,...")
    p.add_argument("--cap", type=int, help="most pair keys per streamed row")
    p.add_argument("--reduced", action="store_true",
                   help="also sweep the printed reduced equations")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="reproduce the coefficient table")
    p.add_argument("--k-max", type=int)
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("conjecture", help="order/linearity probe")
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_conjecture)
    return ap


def main(argv=None) -> int:
    # Print exact integers of any length.  Releases before 3.10.7 have
    # neither the 4300-digit limit nor this call.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
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
