"""Command-line front end.

Subcommands: mutate, weight, period, laurent, seq, decompose, scan,
catalog.  Exit status 0 on success, 1 on a domain error (the structured
error name is printed to stderr), 2 on a usage error.  Numeric output is
always decimal strings so big integers stay bit-exact; sequence-style
commands emit JSON lines by default with CSV and text mirrors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import laurent as laurent_mod
from . import periodicity, seqgen
from .dualnum import DigitLimitError, format_scalar
from .errors import QuiverSeqError
from .quiver import Quiver, WeightedQuiver, load_quiver

FAMILY_PARAMS = ("N", "r", "s", "p", "q")  # the built-in families' parameter names


def _read_quiver(path: str) -> Quiver | WeightedQuiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QuiverSeqError(f"cannot read {path}: {exc}") from exc
    return load_quiver(text)


def _weighted(args) -> WeightedQuiver:
    """Weighted quiver from file "w", --weights, or the solved weight function."""
    loaded = _read_quiver(args.quiver)
    weights = getattr(args, "weights", None)
    if isinstance(loaded, WeightedQuiver):
        if weights is not None:
            return WeightedQuiver(loaded.quiver, _parse_ints(weights))
        return loaded
    if weights is not None:
        return WeightedQuiver(loaded, _parse_ints(weights))
    solution = periodicity.solve_weight(loaded)
    if solution is None:
        raise QuiverSeqError(
            "quiver has no period-1 weight function; pass --weights explicitly"
        )
    return WeightedQuiver(loaded, solution)


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        digits = (part.strip().lstrip("+-") for part in text.split(","))
        longest = max((len(d) for d in digits if d.isdecimal()), default=0)
        if 0 < limit < longest:
            raise DigitLimitError(
                f"an integer of {longest} digits is past the {limit}-digit limit"
            ) from None
        raise QuiverSeqError(f"expected comma-separated integers, got {text!r}") from exc


MAX_RANGE_VALUES = 10_000


def _parse_range(text: str) -> list[int]:
    """Accept "3", "1..5", or "0,2,5".

    A range with no values, like "2..0", or with more than
    MAX_RANGE_VALUES is refused before any list is built.
    """
    try:
        if ".." in text:
            lo, hi = map(int, text.split("..", 1))
        else:
            return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected an integer, a range like "1..5" or a list like "0,2,5", got {text!r}'
        ) from None
    count = hi - lo + 1
    if count < 1:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: the upper end is below the lower")
    if count > MAX_RANGE_VALUES:
        raise argparse.ArgumentTypeError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    return list(range(lo, hi + 1))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _parse_deform(text: str) -> tuple[str, tuple[int, ...]] | None:
    if text == "none":
        return None
    if ":" not in text:
        raise QuiverSeqError(f'deform must look like "m2:1" or "m1:1,1,-1,-1", got {text!r}')
    placement, _, pattern = text.partition(":")
    if placement not in ("m1", "m2"):
        raise QuiverSeqError(f"deform placement must be m1 or m2, got {placement!r}")
    return placement, _parse_ints(pattern)


def _jline(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(", ", ": "))
    except ValueError:  # an int past the int/str conversion limit
        raise DigitLimitError() from None


def _cmd_mutate(args, out) -> int:
    loaded = _read_quiver(args.quiver)
    mutated = loaded.mutate(args.at)
    result_q = mutated.quiver if isinstance(mutated, WeightedQuiver) else mutated
    unchanged = result_q.rotate() == result_q
    payload = mutated.to_dict()
    payload["unchanged_by_rotation"] = unchanged
    if args.format == "text":
        for row in payload["b"]:
            print(" ".join(format_scalar(e).rjust(3) for e in row), file=out)
        if "w" in payload:
            print("w = " + ",".join(map(format_scalar, payload["w"])), file=out)
        print(f"unchanged by rotation: {str(unchanged).lower()}", file=out)
    else:
        print(_jline(payload), file=out)
    return 0


def _cmd_weight(args, out) -> int:
    loaded = _read_quiver(args.quiver)
    q = loaded.quiver if isinstance(loaded, WeightedQuiver) else loaded
    residual = periodicity.closing_residual(q)
    weights = periodicity.solve_weight(q)
    exists = weights is not None
    if args.format == "json":
        print(_jline({"exists": exists, "weights": weights, "closing_residual": residual}), file=out)
    else:
        print(f"exists: {str(exists).lower()}", file=out)
        if weights is not None:
            print("w = (" + ", ".join(map(format_scalar, weights)) + ")", file=out)
        print(f"closing residual: {format_scalar(residual)}", file=out)
    return 0


def _cmd_period(args, out) -> int:
    wq = _weighted(args)
    period = periodicity.weight_period(wq, args.max)
    if args.format == "json":
        print(_jline({"period": period, "max_cycles": args.max}), file=out)
    else:
        if period is None:
            print(f"period: none found within {args.max} cycles", file=out)
        else:
            print(f"period: {period}", file=out)
    return 0


def _cmd_laurent(args, out) -> int:
    wq = _weighted(args)
    reports = laurent_mod.verify_laurent_run(
        wq, args.steps, args.budget, evolve_weights=not args.hold_weights
    )
    names = laurent_mod.var_names(wq.n)
    for rep in reports:
        denom = rep.denominator.format(names)
        if args.format == "json":
            row = {
                "step": rep.step,
                "laurent": rep.is_laurent,
                "denominator": denom,
                "body_terms": rep.body_terms,
                "slope_terms": rep.slope_terms,
            }
            if args.emit == "sexpr":
                row["sexpr"] = rep.variable.sexpr()
            print(_jline(row), file=out)
        else:
            status = "laurent" if rep.is_laurent else "NOT laurent"
            print(
                f"step {rep.step}: {status}  denominator={denom}  "
                f"terms={rep.body_terms}+{rep.slope_terms}",
                file=out,
            )
            if args.emit == "sexpr":
                print(rep.variable.sexpr(), file=out)
    if args.check and not all(rep.is_laurent for rep in reports):
        return 1
    return 0


def _family_spec(args) -> seqgen.RecurrenceSpec:
    if getattr(args, "quiver", None) is not None:
        wq = _weighted(args)
        spec = seqgen.quiver_to_spec(wq)
    else:
        if getattr(args, "weights", None) is not None:
            raise QuiverSeqError("--weights applies only with --quiver")
        params = {}
        for key in FAMILY_PARAMS:
            values = getattr(args, key, None)
            if values is not None:
                if len(values) != 1:
                    raise QuiverSeqError(f"--{key} must be a single value here, got {values}")
                params[key] = values[0]
        spec = seqgen.builtin(args.family, **params)
    if getattr(args, "deform", None) is not None:
        deform = _parse_deform(args.deform)
        if deform is None:
            spec = spec.without_deform()
        else:
            spec = spec.with_deform(*deform)
    return spec


def _cmd_seq(args, out) -> int:
    spec = _family_spec(args)
    init_a = None if args.init_a is None else _parse_ints(args.init_a)
    init_b = None if args.init_b is None else _parse_ints(args.init_b)
    fmt, origin = args.format, spec.index_origin

    def emit(i, term):
        # The header waits for the first term, so input that the run
        # rejects prints nothing.
        if fmt == "csv" and i == 0:
            print("index,paper_index,body,slope,integral", file=out)
        paper, body, slope = origin + i, format_scalar(term.body), format_scalar(term.slope)
        integral = term.is_integral
        if fmt == "json":
            row = {"index": i, "paper_index": paper, "body": body, "slope": slope, "integral": integral}
            line = _jline(row)
        elif fmt == "csv":
            line = f"{i},{paper},{body},{slope},{str(integral).lower()}"
        else:
            mark = "" if integral else "   <- not integral"
            line = f"n={i} (paper {paper}): body={body} slope={slope}{mark}"
        print(line, file=out)

    result = seqgen.run(spec, init_a=init_a, init_b=init_b, count=args.terms, each=emit)
    if fmt == "text" and result.degenerate_steps:
        print(f"degenerate at steps: {result.degenerate_steps}", file=out)
    return 0


def _cmd_decompose(args, out) -> int:
    spec = _family_spec(args)
    fmt, origin = args.format, spec.index_origin
    values: list[str] = []  # json and text: the formatted values of the row being run

    def print_row(basis):
        if fmt == "text":
            print(f"b^{basis}: " + ", ".join(values), file=out)
        else:
            print(_jline({"basis": basis, "values": values}), file=out)
        values.clear()

    def emit(row, i, value):
        if fmt == "csv":
            if row == i == 0:
                print("basis,index,paper_index,value", file=out)
            print(f"{row + 1},{i},{origin + i},{format_scalar(value)}", file=out)
            return
        if i == 0 and row > 0:
            print_row(row)  # the previous row, numbered from 1
        values.append(format_scalar(value))

    rows = seqgen.decompose_basis(spec, args.terms, each=emit)
    if fmt != "csv":
        print_row(len(rows))
    return 0


def _cmd_scan(args, out) -> int:
    grid = {key: getattr(args, key) for key in FAMILY_PARAMS if getattr(args, key) is not None}
    if not grid:
        raise QuiverSeqError("scan needs at least one parameter range (e.g. --q 0..5)")
    deform = None if args.deform is None else _parse_deform(args.deform)
    cells = seqgen.integrality_scan(args.family, grid, args.horizon, deform)
    columns = (
        "clean", "degenerate", "first_fraction_index", "first_fraction_paper_index", "first_fraction_value"
    )
    if args.format == "csv" and cells:
        print(",".join(("params",) + columns), file=out)
    for cell in cells:
        params = (";" if args.format == "csv" else " ").join(f"{k}={v}" for k, v in cell.params.items())
        if cell.invalid is not None:
            if args.format == "json":
                line = _jline({"params": cell.params, "invalid": cell.invalid})
            elif args.format == "csv":
                line = f"{params},invalid,,,,"
            else:
                line = f"{params}: invalid: {cell.invalid}"
            print(line, file=out)
            continue
        ff = cell.run.first_fraction
        row = {
            "params": cell.params,
            "clean": cell.clean,
            "degenerate": bool(cell.run.degenerate_steps),
            "first_fraction_index": None if ff is None else ff[0],
            "first_fraction_paper_index": None if ff is None else cell.run.paper_index(ff[0]),
            "first_fraction_value": None if ff is None else format_scalar(ff[1]),
        }
        if args.format == "text":
            if ff is None:
                status = "degenerate" if row["degenerate"] else f"integral to horizon {args.horizon}"
            else:
                status = f"first fraction {row['first_fraction_value']} at n={row['first_fraction_paper_index']}"
            print(f"{params}: {status}", file=out)
        elif args.format == "csv":
            fields = ("" if row[c] is None else str(row[c]).lower() for c in columns)  # true/false
            print(",".join((params, *fields)), file=out)
        else:
            print(_jline(row), file=out)
    return 0


def _cmd_catalog(args, out) -> int:
    examples = {"gale_robinson": {"N": 6, "r": 1, "s": 2}, "fordy_marsh_s4": {"p": 2, "q": 3}}
    for name in seqgen.family_names():
        params = examples.get(name, {})
        spec = seqgen.builtin(name, **params)
        if args.format == "json":
            print(
                _jline(
                    {
                        "name": name,
                        "order": spec.order,
                        "index_origin": spec.index_origin,
                        "formula": spec.formula(),
                        "init_a": list(spec.init_a),
                    }
                ),
                file=out,
            )
        elif params:
            label = f"{name}({','.join(params)})"
            print(f"{name}: {label:<23}e.g. {spec.formula()}", file=out)
        else:
            print(f"{name}: {spec.formula()}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverseq",
        description="Exact quiver mutation, dual-number recurrences, and Laurent checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate a quiver at a vertex")
    p.add_argument("--quiver", required=True, help="path to quiver JSON")
    p.add_argument("--at", type=int, required=True, help="vertex to mutate (1-indexed)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("weight", help="period-1 weight function existence and values")
    p.add_argument("--quiver", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("period", help="weight period under mutate-then-rotate cycles")
    p.add_argument("--quiver", required=True)
    p.add_argument("--weights", help="comma-separated weights (overrides file/solved)")
    p.add_argument("--max", type=_positive_int, default=64)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_period)

    p = sub.add_parser("laurent", help="symbolic Laurent verification run")
    p.add_argument("--quiver", required=True)
    p.add_argument("--weights", help="comma-separated weights (overrides file/solved)")
    p.add_argument("--steps", type=_positive_int, default=6)
    p.add_argument("--check", action="store_true", help="exit 1 if any step is non-Laurent")
    p.add_argument(
        "--hold-weights",
        action="store_true",
        help="force the weight vector unchanged each cycle instead of mutating it",
    )
    p.add_argument("--emit", choices=("sexpr",), help="also dump expressions")
    p.add_argument(
        "--budget", type=_positive_int, default=laurent_mod.DEFAULT_TERM_BUDGET, help="term budget (default 10^6)"
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_laurent)

    def add_family_args(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--family", help="built-in family name (see catalog)")
        source.add_argument("--quiver", help="compile the recurrence from a weighted quiver")
        for key in FAMILY_PARAMS:
            p.add_argument(f"--{key}", type=_parse_range, help=f"family parameter {key} (single value)")

    p = sub.add_parser("seq", help="run a dual recurrence")
    add_family_args(p)
    p.add_argument("--weights", help="weights when --quiver lacks them")
    p.add_argument("--terms", type=int, default=20, help="total terms including initials")
    p.add_argument("--init-a", dest="init_a", help="override initial bodies")
    p.add_argument("--init-b", dest="init_b", help="initial slopes (default all zero)")
    p.add_argument("--deform", help='deformation, e.g. "m2:1", "m1:1,1,-1,-1", or "none"')
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("decompose", help="slope basis rows of an undeformed family")
    add_family_args(p)
    p.add_argument("--weights")
    p.add_argument("--terms", type=int, default=15)
    p.add_argument("--deform", help='usually "none" (default for decompose)')
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("scan", help="integrality scan over a parameter grid")
    p.add_argument("--family", required=True)
    for key in FAMILY_PARAMS:
        p.add_argument(f"--{key}", type=_parse_range, help=f"family parameter {key} (range like 1..3)")
    p.add_argument("--deform", help='deformation applied to every cell, e.g. "m1:1"')
    p.add_argument("--horizon", type=int, default=30, help="total terms per cell")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("catalog", help="list built-in recurrence families")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args leaves it unchanged, so
    # one parser serves every later call in the process.
    return build_parser()


def main(argv=None, out=None) -> int:
    args = _parser().parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except QuiverSeqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
