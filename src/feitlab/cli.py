"""Command-line front end.

Subcommands: table (print or export a character table), s (one invariant
report), feit (conductor indicators), verify (the full check suite on one
group), corpus (verify + feit over a list of entries).  COMMANDS holds each
command once, with its positional argument and options; the parser and the
-h/--help text both read it.  Options take ``--opt value`` or
``--opt=value``, before or after the positional, and a unique prefix of an
option's name stands for it (``--js`` for ``--json``).

Exit codes: 0 all good; 1 failed checks or internal errors; 2 usage
errors (a command line that does not fit COMMANDS: no command or an unknown
one, a missing or extra positional, an unknown or ambiguous option, a
missing value, a non-integer, a value outside the choices, a missing
required option; ``feit --all --chi``; an unknown or malformed group spec,
an out-of-range --chi, an --n that is not a positive divisor of the
exponent, an oracle bound that is not an integer in 1..60, a corpus file
that cannot be read or is malformed, a corpus --jobs below 1); 3 a
conductor indicator of zero was found (a conjecture counterexample
candidate, the most interesting possible output, reported rather than
treated as an error).  Every usage error, the parser's included, is
printed as ``error: ...`` and returned by ``main``, not raised.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from . import adams, runner
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
    if args.all and args.chi is not None:
        raise UsageError("feit: --all and --chi exclude each other")
    table = runner.resolve_input(args.group)
    indices = [args.chi] if args.chi is not None else range(table.num_classes)
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
    # the oracle is imported by the commands that run it
    from .brauer import check_oracle_bound

    bound = check_oracle_bound(args.oracle_bound, "--oracle-bound")
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
    """The current UTC time in ISO 8601, with microseconds and offset;
    ``time`` spares every command the import of ``datetime``."""
    sec, us = divmod(time.time_ns() // 1000, 1_000_000)
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(sec)) + f".{us:06d}+00:00"


def cmd_corpus(args) -> int:
    # the options and the whole file are checked before any entry runs
    if args.jobs < 1:
        raise UsageError(f"--jobs {args.jobs}: must be at least 1")
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
    from .brauer import check_oracle_bound

    bound = check_oracle_bound(doc.get("oracle_bound"), f"{args.file}: oracle_bound")
    fmt = args.format or doc.get("format", "json")
    payloads = [(e, bound) for e in entries]
    # a fork pool starts every worker at once: none past the entries or cores
    workers = min(args.jobs, len(entries), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing costs every other command its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_corpus_worker, payloads))
    else:
        reports = [_corpus_worker(p) for p in payloads]

    failures = [r["entry"] for r in reports if not r.get("all_passed")]
    candidates = [c for r in reports for c in r.get("counterexample_candidates", [])]
    if fmt == "csv":
        import csv  # only a csv report needs it

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


class Option:
    """One option of a command: ``kind`` is ``int`` or ``str`` for an option
    that takes a value and None for a flag, whose default is False."""

    __slots__ = ("name", "dest", "kind", "default", "required", "choices", "help")

    def __init__(self, name: str, kind: Optional[type] = None, default=None,
                 required: bool = False, choices: Tuple[str, ...] = (),
                 help: str = ""):
        self.name, self.dest, self.kind = name, name[2:].replace("-", "_"), kind
        self.default = False if kind is None else default
        self.required, self.choices, self.help = required, choices, help

    def usage(self) -> str:
        if self.kind is None:
            return self.name
        return f"{self.name} " + (
            "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper())


class Command:
    """One command: its handler, its help line, its one positional
    argument (dest, help) and its options, -h/--help among them."""

    def __init__(self, run: Callable[[SimpleNamespace], int], help: str,
                 positional: Tuple[str, str], options: Tuple[Option, ...]):
        self.run, self.help = run, help
        self.positional, self.positional_help = positional
        self.defaults = {opt.dest: opt.default for opt in options}
        self.options = {opt.name: opt for opt in (*options, HELP)}


HELP = Option("--help", help="show this help and exit (also -h)")
GROUP = ("group", "group spec or table JSON path")
JSON = Option("--json", help="emit the JSON format")

COMMANDS: Dict[str, Command] = {
    "table": Command(cmd_table, "print or export a character table", GROUP, (JSON,)),
    "s": Command(cmd_s, "invariant report for one character and n", GROUP, (
        Option("--chi", int, required=True, help="character index"),
        Option("--n", int, required=True, help="a positive divisor of the exponent"),
        JSON,
    )),
    "feit": Command(cmd_feit, "conductor indicators of the irreducibles", GROUP, (
        Option("--all", help="all irreducibles (the default unless --chi is given)"),
        Option("--chi", int, help="single character index"),
        JSON,
    )),
    "verify": Command(cmd_verify, "run the full check suite on one group", GROUP, (
        Option("--oracle-bound", int,
               help="order bound for the brute-force sections (default 24,"
                    " env FEITLAB_ORACLE_BOUND)"),
        JSON,
    )),
    "corpus": Command(cmd_corpus, "verify + feit over a corpus file",
                      ("file", "corpus JSON: {entries, oracle_bound, format}"), (
        Option("--jobs", int, default=1, help="parallel workers"),
        Option("--output", str, help="write the report here"),
        Option("--format", str, choices=("json", "csv"),
               help="override the corpus file's output format"),
    )),
}


def _expand(word: str, names: Iterable[str], where: str) -> str:
    """The name among ``names`` that the option ``word`` stands for: ``-h``
    is --help, and a word that is no name may be a unique prefix of one."""
    if word == "-h":
        return HELP.name
    found = [n for n in names if n.startswith(word)] if word[:2] == "--" else []
    if len(found) == 1:
        return found[0]
    if found:
        raise UsageError(f"{where}: ambiguous option {word}: could be {', '.join(found)}")
    raise UsageError(f"{where}: unknown option {word}")


def parse_args(argv: List[str]) -> Tuple[Callable[[Any], int], Any]:
    """The handler ``argv`` asks for and what it runs on: a command's
    handler and its arguments, or for -h/--help the printer of its usage and
    the command's name (None for the whole program).  The first token names
    the command; options take ``--opt value`` or ``--opt=value`` before or
    after the positional, and ``--`` ends them.  A command line that does
    not fit COMMANDS raises UsageError naming the command and the option."""
    if not argv:
        raise UsageError(f"no command given: expected one of {', '.join(COMMANDS)}")
    name = argv[0]
    command = COMMANDS.get(name)
    if command is None:
        if name[:1] == "-":
            _expand(name, (HELP.name,), "feitlab")  # refuses all but --help
            return _print_usage, None
        raise UsageError(
            f"unknown command {name!r}: expected one of {', '.join(COMMANDS)}")
    values = dict(command.defaults)
    positionals: List[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positionals += tokens
            continue
        if token[:1] != "-" or token == "-":
            positionals.append(token)
            continue
        word, eq, value = token.partition("=")
        opt = command.options.get(word) or command.options[
            _expand(word, command.options, name)]
        if opt.kind is None:
            if eq:
                raise UsageError(f"{name}: {opt.name} takes no value")
            if opt is HELP:
                return _print_usage, name
            values[opt.dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            # an int option reads `--chi -1`; another option reads no option
            if value is None or (opt.kind is not int and value[:1] == "-" and value != "-"):
                raise UsageError(f"{name}: {opt.name} needs a value")
        if opt.kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(
                    f"{name}: {opt.name} must be an integer, got {value!r}") from None
        if opt.choices and value not in opt.choices:
            raise UsageError(f"{name}: {opt.name} {value!r} is not one of"
                             f" {', '.join(opt.choices)}")
        values[opt.dest] = value
    if len(positionals) != 1:
        if positionals:
            raise UsageError(f"{name}: unexpected argument {positionals[1]!r}")
        raise UsageError(f"{name}: missing the {command.positional} argument"
                         f" ({command.positional_help})")
    for opt in command.options.values():
        if opt.required and values[opt.dest] is None:
            raise UsageError(f"{name}: missing the required option {opt.name}")
    values[command.positional] = positionals[0]
    return command.run, SimpleNamespace(**values)


def _print_usage(name: Optional[str]) -> int:
    """Print the usage of command ``name``, or of the whole program."""
    if name is None:
        width = max(map(len, COMMANDS))
        lines = ["usage: feitlab COMMAND ARGUMENT [OPTIONS]",
                 "       feitlab COMMAND --help", "",
                 "Exact invariant computations for finite-group characters.", "",
                 "commands:"]
        lines += [f"  {n.ljust(width)}  {c.help}" for n, c in COMMANDS.items()]
        lines += ["", "Options take --opt value or --opt=value; a unique prefix"
                      " of an option's name stands for it."]
    else:
        command = COMMANDS[name]
        opts = command.options.values()
        words = [opt.usage() if opt.required else f"[{opt.usage()}]" for opt in opts]
        rows = [(command.positional.upper(), command.positional_help)]
        for opt in opts:
            notes = ["required"] if opt.required else []
            if opt.default not in (None, False):
                notes.append(f"default {opt.default}")
            rows.append((opt.usage(), opt.help + "".join(f" ({n})" for n in notes)))
        width = max(len(left) for left, _ in rows)
        lines = [" ".join(["usage: feitlab", name, rows[0][0], *words]), "",
                 command.help, ""]
        lines += [f"  {left.ljust(width)}  {text}" for left, text in rows]
    print("\n".join(lines))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    try:
        run, args = parse_args(sys.argv[1:] if argv is None else argv)
        return run(args)
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
