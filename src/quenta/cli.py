"""Command-line front end: single constructions, family tables, verify sweeps.

Output is JSON by default (one object per row) or CSV with ``--format csv``.
Exit codes: 0 success, 1 usage or precondition error, 2 verification failure,
3 an internal cross-check failed (a fault of quenta), 141 stdout closed by its
reader before the output was written.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from contextlib import nullcontext
from functools import cache
from itertools import chain
from json.encoder import INFINITY, encode_basestring_ascii

from .config import load_config
from .constructions import EXACT, LOWER_BOUND, QuentaParams, SingletonViolationError, singleton
from .defset import coset_partition
from .gf import CrossCheckError, prime_power, set_modulus_overrides
from .oracle import FAMILIES, SKIPPED, VerificationReport, sweep, verify_instance, instances

CSV_COLUMNS = ("family", "case", "q", "n", "k", "d", "d_kind", "c",
               "maximal_entanglement", "singleton_bound", "defect",
               "classification", "inputs", "warnings", "verification")


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _plain(value):
    """JSON-friendly copy of an inputs-echo value: an int, or a tuple as a list."""
    if isinstance(value, tuple):
        return list(value)
    return value


def _flat(value) -> str:
    """Text form of an inputs-echo value; a tuple joins with semicolons."""
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return str(value)


def output_row(p: QuentaParams, report: VerificationReport | None = None) -> dict:
    rep = singleton(p)
    row = {
        "family": p.family,
        "case": p.case,
        "q": p.q,
        "n": p.n,
        "k": p.k,
        "d": p.d,
        "d_kind": p.d_kind,
        "c": p.c,
        "maximal_entanglement": p.maximal_entanglement,
        "singleton_bound": rep.bound,
        "defect": rep.defect,
        "classification": rep.classification,
        "inputs": {name: _plain(v) for name, v in p.inputs},
        "warnings": list(p.warnings),
    }
    if report is not None:
        row["verification"] = {
            "passed": report.passed,
            "rows": [
                {"name": r.name, "predicted": r.predicted, "measured": r.measured,
                 "kind": r.kind, "passed": r.passed, "note": r.note}
                for r in report.rows
            ],
            "notes": list(report.notes),
        }
    return row


def _csv_row(row: dict) -> list[str]:
    """The CSV_COLUMNS cells of a row: its last three columns are inputs, warnings, verification."""
    check = row.get("verification")
    return [str(row[col]) for col in CSV_COLUMNS[:-3]] + [
        " ".join(f"{name}={_flat(v)}" for name, v in row["inputs"].items()),
        " | ".join(row["warnings"]),
        "" if check is None else "pass" if check["passed"] else "fail",
    ]


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a value on a line that ``pad`` starts and indents.

    Same bytes as the standard library for str-keyed dicts, and types
    dispatch in its order.  With ``indent`` set the standard library falls
    back to a pure-Python chunk generator and lists every chunk first.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:  # exact ints only: a bool must print as true/false
            items = map(str, value)
        else:
            items = [_json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write_json(value, out) -> None:
    """Write ``json.dumps(value, indent=2) + "\n"``, a non-empty list one element at a time."""
    if isinstance(value, list) and value:
        for i, v in enumerate(value):
            out.write(("[" if i == 0 else ",") + "\n  " + _json(v, "\n  "))
        out.write("\n]\n")
    else:
        out.write(_json(value) + "\n")


def _emit(rows: list[dict], fmt: str, out_path: str | None, single: bool = False) -> None:
    """Stream already formed rows to ``out_path`` or stdout; ``single`` writes JSON rows[0] bare."""
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as out:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_csv_row, rows))
        else:
            _write_json(rows[0] if single else rows, out)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_cosets(args) -> int:
    if args.n < 1:
        raise ValueError(f"modulus n = {args.n} must be positive")
    if prime_power(args.q) is None:
        raise ValueError(f"q = {args.q} is not a prime power")
    cosets = [list(c.elems) for c in coset_partition(args.n, args.q)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("leader", "size", "elements"))
        for c in cosets:
            writer.writerow((c[0], len(c), ";".join(str(v) for v in c)))
    else:
        _write_json({"n": args.n, "q": args.q, "cosets": cosets}, sys.stdout)
    return 0


def cmd_construct(args, cfg) -> int:
    family = FAMILIES[args.family]
    missing = [name for name in family.required if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise ValueError(f"family {family.name} requires {flags}")
    p = family.construct(args)
    report = None
    if args.verify:
        report = verify_instance(p, matrix_cap=cfg.matrix_cap,
                                 distance_cap=cfg.distance_cap)
    _emit([output_row(p, report)], args.format, None, single=True)
    if report is not None and not report.passed:
        return 2
    return 0


def _sweep_kwargs(args) -> dict:
    kw = {"q": args.q, "n": args.n, "m": args.m}
    if args.a_max is not None:
        kw["a_values"] = range(2, args.a_max + 1)
    if args.delta_max is not None:
        kw["delta_values"] = range(2, args.delta_max + 1)
    return kw


def cmd_table(args, cfg) -> int:
    rows = [output_row(p) for p in instances(args.family, **_sweep_kwargs(args))]
    _emit(rows, args.format, args.out)
    return 0


def _report_line(rep: VerificationReport) -> str:
    echo = " ".join(f"{name}={_flat(v)}" for name, v in rep.inputs)
    cells = []
    for r in rep.rows:
        if r.kind == SKIPPED:
            cells.append(f"{r.name} skip[{r.note}]")
        elif r.kind == EXACT:
            op = "==" if r.passed else "!="
            cells.append(f"{r.name} {r.predicted}{op}{r.measured}")
        else:
            op = "<=" if r.passed else ">"
            cells.append(f"{r.name} {r.predicted}{op}{r.measured}")
    status = "PASS" if rep.passed else "FAIL"
    return f"{status} {rep.family} {echo} | " + ", ".join(cells)


def cmd_verify(args, cfg) -> int:
    # a verify line prints no note: the relative weights are not computed
    reports = sweep(args.family, matrix_cap=cfg.matrix_cap, distance_cap=cfg.distance_cap,
                    notes=False, **_sweep_kwargs(args))
    for rep in reports:
        sys.stdout.write(_report_line(rep) + "\n")
    failed = sum(1 for r in reports if not r.passed)
    passed = len(reports) - failed
    skipped = sum(1 for r in reports for row in r.rows if row.kind == SKIPPED)
    sys.stdout.write(f"{passed} passed, {failed} failed, {skipped} skipped\n")
    return 2 if failed else 0


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def _residues(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated defining-set flag; empty tokens are skipped."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _add_format(p) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_sweep_flags(p) -> None:
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a-max", dest="a_max", type=int)
    p.add_argument("--delta-max", dest="delta_max", type=int)


@cache
def build_parser() -> _Parser:
    """The ``quenta`` parser, built on first use and then shared: each
    ``parse_args`` call fills a fresh namespace, so one serves every ``main``."""
    parser = _Parser(prog="quenta")
    parser.add_argument("--config", help="config file path (also: QUENTA_CONFIG env var)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cosets", help="cyclotomic cosets of Z_n under q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format(p)

    p = sub.add_parser("construct", help="build one parameter set")
    p.add_argument("family", choices=tuple(FAMILIES))
    for flag in dict.fromkeys(chain.from_iterable(f.required for f in FAMILIES.values())):
        p.add_argument(f"--{flag}", type=_residues if flag.startswith("z") else int)
    for flag in ("d-kind", "d1-kind", "d2-kind"):
        p.add_argument(f"--{flag}", dest=flag.replace("-", "_"),
                       choices=(EXACT, LOWER_BOUND), default=EXACT)
    p.add_argument("--verify", action="store_true")
    _add_format(p)

    p = sub.add_parser("table", help="family table over the legal parameter grid")
    _add_sweep_flags(p)
    p.add_argument("--out", help="write to file instead of stdout")
    _add_format(p)

    p = sub.add_parser("verify", help="oracle sweep with per-instance pass/fail")
    _add_sweep_flags(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        set_modulus_overrides(cfg.moduli)  # exactly this call's: none left from an earlier one
        if args.command == "cosets":
            code = cmd_cosets(args)
        elif args.command == "construct":
            code = cmd_construct(args, cfg)
        elif args.command == "table":
            code = cmd_table(args, cfg)
        else:  # the parser admits no command but these four
            code = cmd_verify(args, cfg)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): nothing was refused.  Later
        # flushes, the interpreter's own at exit included, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except (ValueError, SingletonViolationError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CrossCheckError as exc:
        sys.stderr.write(f"internal error: cross-check failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
