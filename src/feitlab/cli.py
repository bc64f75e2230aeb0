"""Command-line front end.

Subcommands: table (print or export a character table), s (one invariant
report), feit (conductor indicators), verify (the full check suite on one
group), corpus (verify + feit over a list of entries).

Exit codes: 0 all good; 1 failed checks or internal errors; 2 usage
errors (an unknown or malformed group spec, an out-of-range --chi, an --n
that is not a positive divisor of the exponent, an oracle bound that is not
an integer in 1..60, a corpus file that cannot be read or is malformed); 3
a conductor indicator of zero was found (a conjecture counterexample
candidate, the most interesting possible output, reported rather than
treated as an error).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

from . import adams, brauer, runner
from .chartab import save_table
from .cyclo import Cyclotomic
from .errors import SpecError, UsageError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLE = 3


def _fmt_value(v: Cyclotomic) -> str:
    data = v.to_json()
    if isinstance(data, (int, str)):
        return str(data)
    parts = []
    for exp, num, den in data["terms"]:
        coeff = f"{num}" if den == 1 else f"{num}/{den}"
        mono = f"z{data['level']}^{exp}" if exp > 1 else f"z{data['level']}"
        if exp == 0:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono)
        elif coeff == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    out = "+".join(parts).replace("+-", "-")
    return out


def cmd_table(args) -> int:
    table = runner.resolve_input(args.group)
    if args.json:
        sys.stdout.write(save_table(table).decode("utf-8") + "\n")
        return EXIT_OK
    print(f"group {table.name}: order {table.order}, exponent {table.exponent},"
          f" {table.num_classes} classes")
    header = ["chi\\class"] + [
        f"{c.rep_order}({c.size})" for c in table.classes
    ]
    rows = [header]
    for i, row in enumerate(table.irreducibles):
        rows.append([f"X{i}"] + [_fmt_value(v) for v in row])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for r in rows:
        print("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    print("classes are labelled by representative order(size)")
    return EXIT_OK


def cmd_s(args) -> int:
    table = runner.resolve_input(args.group)
    if not 0 <= args.chi < table.num_classes:
        print(f"error: chi must be in 0..{table.num_classes - 1}", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 1 or table.exponent % args.n != 0:
        print(
            f"error: n = {args.n} must be positive and divide the exponent"
            f" {table.exponent}"
            f" of {table.name}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rep = adams.invariant(table, args.chi, args.n)
    if args.json:
        print(json.dumps(rep.to_json(), indent=1))
        return EXIT_OK
    print(f"group {table.name}, chi {args.chi} (degree {table.degree(args.chi)}),"
          f" n = {args.n}")
    print(f"S = {rep.value}")
    for rho, mult in sorted(rep.summands.items(), key=lambda kv: sorted(kv[0])):
        label = "{" + ",".join(str(p) for p in sorted(rho)) + "}"
        print(f"  subset {label}: multiplicity {mult}")
    if rep.witness is not None:
        c, j = rep.witness
        print(f"witness: class {c}, eigenvalue exponent {j}")
    else:
        print("witness: none")
    return EXIT_OK


def cmd_feit(args) -> int:
    table = runner.resolve_input(args.group)
    if args.chi is not None and not 0 <= args.chi < table.num_classes:
        print(f"error: chi must be in 0..{table.num_classes - 1}", file=sys.stderr)
        return EXIT_USAGE
    indices = (
        [args.chi]
        if args.chi is not None
        else list(range(table.num_classes))
    )
    reports = [adams.feit_indicator(table, i) for i in indices]
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=1))
    else:
        print(f"group {table.name}: conductor indicators")
        for rep in reports:
            mark = "" if rep.value > 0 else "  <-- counterexample candidate"
            print(
                f"  chi {rep.chi_index}: conductor {rep.conductor},"
                f" F = {rep.value}{mark}"
            )
    if any(rep.value == 0 for rep in reports):
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def cmd_verify(args) -> int:
    bound = brauer.check_oracle_bound(args.oracle_bound, "--oracle-bound")
    table = runner.resolve_input(args.group)
    report = runner.verify_table(table, bound)
    report["generated_at"] = _timestamp()
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(f"group {table.name}: order {table.order}")
        for chk in report["checks"]:
            mark = "PASS" if chk["passed"] else "FAIL"
            detail = f"  ({chk['detail']})" if chk["detail"] else ""
            print(f"  {mark} {chk['name']}{detail}")
        for skip in report["skipped"]:
            print(f"  SKIP {skip['name']} ({skip['reason']})")
        bad = report["counterexample_candidates"]
        if bad:
            print(f"  counterexample candidates: {bad}")
    if not report["all_passed"]:
        return EXIT_ERROR
    if report["counterexample_candidates"]:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _corpus_worker(payload):
    entry, bound = payload
    return runner.run_entry(entry, bound)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_corpus(args) -> int:
    # the whole file is checked before any entry runs
    try:
        doc = json.loads(Path(args.file).read_text())
    except OSError as exc:
        raise UsageError(
            f"{args.file}: cannot read the corpus file: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{args.file}: corpus file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{args.file}: corpus file must hold a JSON object")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise UsageError(
            f"{args.file}: entries must be a list of group specs or table paths")
    if doc.get("format", "json") not in ("json", "csv"):
        raise UsageError(f"{args.file}: format {doc['format']!r} is not json or csv")
    bound = brauer.check_oracle_bound(
        doc.get("oracle_bound"), f"{args.file}: oracle_bound")
    fmt = args.format or doc.get("format", "json")
    payloads = [(e, bound) for e in entries]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_corpus_worker, payloads))
    else:
        reports = [_corpus_worker(p) for p in payloads]

    failures = [r["entry"] for r in reports if not r.get("all_passed")]
    candidates = [c for r in reports for c in r.get("counterexample_candidates", [])]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=runner.CSV_COLUMNS)
        writer.writeheader()
        for r in reports:
            for row in r.get("rows", []):
                writer.writerow(row)
        text = out.getvalue()
    else:
        text = json.dumps(
            {
                "generated_at": _timestamp(),
                "entries": reports,
                "failures": failures,
                "counterexample_candidates": candidates,
            },
            indent=1,
        ) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if failures:
        return EXIT_ERROR
    if candidates:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feitlab",
        description="Exact invariant computations for finite-group characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print or export a character table")
    p.add_argument("group", help="group spec or table JSON path")
    p.add_argument("--json", action="store_true", help="emit the JSON format")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("s", help="invariant report for one character and n")
    p.add_argument("group", help="group spec or table JSON path")
    p.add_argument("--chi", type=int, required=True, help="character index")
    p.add_argument("--n", type=int, required=True,
                   help="a positive divisor of the exponent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_s)

    p = sub.add_parser("feit", help="conductor indicators of the irreducibles")
    p.add_argument("group", help="group spec or table JSON path")
    p.add_argument("--all", action="store_true",
                   help="all irreducibles (the default unless --chi is given)")
    p.add_argument("--chi", type=int, default=None, help="single character index")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_feit)

    p = sub.add_parser("verify", help="run the full check suite on one group")
    p.add_argument("group", help="group spec or table JSON path")
    p.add_argument("--oracle-bound", type=int, default=None,
                   help="order bound for the brute-force sections (default 24,"
                        " env FEITLAB_ORACLE_BOUND)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="verify + feit over a corpus file")
    p.add_argument("file", help="corpus JSON: {entries, oracle_bound, format}")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--output", default=None, help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="override the corpus file's output format")
    p.set_defaults(func=cmd_corpus)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call to main and shared by later
    calls in the same process."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_ERROR
    except (SpecError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
