"""Command-line front end with machine-readable output.

Every subcommand emits a single OutputDocument: JSON (default for piping),
CSV, or an aligned pretty table. Fractions are serialized as decimal-string
pairs {"num": ..., "den": ...} so exactness survives any JSON consumer.
Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 internal error (a library self-check failed).
"""

from __future__ import annotations

import argparse
import gc
import sys
from fractions import Fraction

# Every carrychain module is imported inside the commands that use it, so a
# request loads (and compiles) only its own. The emitters know a matrix by its
# ratios() method, so they do not need exactmath either.

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _p_bits(p: Fraction) -> int:
    """The bit length of p's larger part, numerator or denominator."""
    return max(p.numerator.bit_length(), p.denominator.bit_length())


def _carry_width(args) -> int:
    """high - low of carries.carry_interval on the --digits path, else 0."""
    if args.digits is None:
        return 0
    from .carries import carry_interval

    low, high = carry_interval(-args.base if args.negative else args.base,
                               args.digits, args.n)
    return high - low


# Cost limits (command, option, value of the args, limit), checked by main in
# this order before any work, and before any import but the carry interval's.
# Entries grow with the bits of b^n and p^n, at most n times the bit length of
# b or of p's larger part, so "n * bits" rows bound what the --n rows alone
# let a huge base or p through. Under these rows every integer a command
# prints stays below the 4300 digits of sys.get_int_max_str_digits().
# matrix's --base rows hold on the --d path only: --digits entries lie over
# |D|^n and its payload lists just the given digits. Binary and standard
# (0..b-1) digit sets have carry interval width <= n + 1 for either base
# sign, so they pass up to the --n limits.
COST_LIMITS = (
    ("triangle", "--n-max", lambda a: a.n_max, 300),
    ("triangle", "--n-max * bit length of --p",
     lambda a: a.n_max * _p_bits(a.p), 900),
    ("uniform-sum", "--n", lambda a: a.n, 500),
    ("uniform-sum", "--n * bit length of --p", lambda a: a.n * _p_bits(a.p),
     2000),
    ("simulate", "--steps", lambda a: a.steps, 2_000_000),
    ("simulate", "--n", lambda a: a.n, 200),
    ("simulate", "--n * --base", lambda a: a.n * a.base, 3200),
    ("verify", "--n", lambda a: a.n, 100),
    ("verify", "--n * bit length of --base",
     lambda a: a.n * a.base.bit_length(), 500),
    ("matrix", "--n with --char-poly", lambda a: a.n if a.char_poly else 0,
     40),
    ("matrix", "--n", lambda a: a.n, 150),
    ("matrix", "--n * bit length of --base with --char-poly",
     lambda a: a.n * a.base.bit_length()
     if a.char_poly and a.digits is None else 0, 200),
    ("matrix", "--n * bit length of --base",
     lambda a: a.n * a.base.bit_length() if a.digits is None else 0, 750),
    ("matrix", "--base", lambda a: a.base if a.digits is None else 0, 100_000),
    ("matrix", "--digits carry interval width with --char-poly",
     lambda a: _carry_width(a) if a.char_poly else 0, 41),
    ("matrix", "--digits carry interval width", _carry_width, 151),
    ("matrix", "--n * span of --digits",
     lambda a: a.n * (max(a.digits) - min(a.digits)) if a.digits else 0, 3200),
    ("find-system", "bit length of --n + bit length of --p",
     lambda a: a.n.bit_length() + _p_bits(a.p), 14000),
)


def parse_rational(text: str) -> Fraction:
    """Parse 'K' or 'K/L' into an exact rational; floats are rejected."""
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer or fraction like 5/3, got {text!r}") from exc


def parse_digit_set(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from exc


def _scalar(value) -> str:
    """json.dumps(value); json is imported only for floats, text that needs
    escapes and other rare scalars."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return str(value)
    if (type(value) is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    import json

    return json.dumps(value)


def _emit_json(value, pad: str, write) -> None:
    """Write the json.dumps(..., indent=2) text of value, nested at pad.

    Fractions (and matrix entries) become {"num", "den"} decimal strings,
    tuples become lists and keys become str(key). A matrix is written one
    row at a time from ratios(), the reduced pairs csv and pretty read too.
    """
    inner = pad + "  "
    if hasattr(value, "ratios"):
        cell = inner + "  "
        head = f'{{\n{cell}  "num": "'
        mid, tail = f'",\n{cell}  "den": "', f'"\n{cell}}}'
        sep = "[\n" + inner
        for row in value.ratios():
            write(f"{sep}[\n{cell}" + f",\n{cell}".join(
                [f"{head}{num}{mid}{den}{tail}" for num, den in row])
                + f"\n{inner}]")
            sep = ",\n" + inner
        write("\n" + pad + "]")
    elif isinstance(value, Fraction):
        write(f'{{\n{inner}"num": "{value.numerator}",\n'
              f'{inner}"den": "{value.denominator}"\n{pad}}}')
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        sep = "{\n" + inner
        for key, item in value.items():
            write(sep + _scalar(str(key)) + ": ")
            _emit_json(item, inner, write)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        sep = "[\n" + inner
        for item in value:
            write(sep)
            _emit_json(item, inner, write)
            sep = ",\n" + inner
        write("\n" + pad + "]")
    else:
        write(_scalar(value))


def render(doc: dict, fmt: str, stream) -> None:
    if fmt == "json":
        _emit_json(doc, "", stream.write)
        stream.write("\n")
    elif fmt == "csv":
        _emit_csv(_fields(doc["payload"]), stream)
    else:
        _emit_pretty(doc["command"], _fields(doc["payload"]), stream)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return str(value)


def _fields(payload: dict):
    """Yield (key, kind, cells) per payload field: kind "table" with rows of
    text cells, "mapping" with (name, text) pairs, or "line" with text cells."""
    for key, value in payload.items():
        if hasattr(value, "ratios"):
            from .exactmath import ratio_text

            yield key, "table", [[ratio_text(num, den) for num, den in row]
                                 for row in value.ratios()]
        elif isinstance(value, list) and value and isinstance(value[0], list):
            yield key, "table", [[_cell(x) for x in row] for row in value]
        elif isinstance(value, list):
            yield key, "line", [_cell(x) for x in value]
        elif isinstance(value, dict):
            yield key, "mapping", [(k, _cell(v)) for k, v in value.items()]
        else:
            yield key, "line", [_cell(value)]


def _emit_csv(fields, stream) -> None:
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    for key, kind, cells in fields:
        if kind == "table":
            writer.writerows([[key], *cells])
        elif kind == "mapping":
            writer.writerow([key, *[f"{k}={v}" for k, v in cells]])
        else:
            writer.writerow([key, *cells])


def _emit_pretty(command: str, fields, stream) -> None:
    stream.write(f"{command}\n")
    for key, kind, cells in fields:
        if kind == "table":
            stream.write(f"{key}:\n")
            widths = [max(len(row[j]) for row in cells if j < len(row))
                      for j in range(max(len(r) for r in cells))]
            for row in cells:
                stream.write("  " + "  ".join(
                    cell.rjust(widths[j]) for j, cell in enumerate(row)) + "\n")
        elif kind == "mapping":
            stream.write(f"{key}:\n")
            for k, v in cells:
                stream.write(f"  {k}: {v}\n")
        else:
            stream.write(f"{key}: " + " ".join(cells) + "\n")


def _document(args, payload: dict) -> dict:
    """The output document; inputs echo the parsed options in argparse order."""
    inputs = {key: str(value) if isinstance(value, Fraction) else value
              for key, value in vars(args).items()
              if key not in ("command", "func", "format", "char_poly")}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "payload": payload,
    }


def _spec(args):
    from .carries import ChainSpec

    return ChainSpec(args.base, args.d, args.n, args.negative)


def cmd_triangle(args) -> tuple[dict, int]:
    from . import eulerian

    rows = eulerian.triangle_recurrence(args.n_max, args.p)
    # Row n lies over L^n (p = K/L): sum its numerators over that one scale.
    scales = [args.p.denominator ** n for n in range(len(rows))]
    payload = {
        "p": args.p,
        "n_max": args.n_max,
        "rows": rows,
        "row_sums": [Fraction(sum(x.numerator * (s // x.denominator)
                                  for x in row), s)
                     for row, s in zip(rows, scales)],
    }
    return payload, EXIT_OK


def cmd_matrix(args) -> tuple[dict, int]:
    from . import carries

    signed_base = -args.base if args.negative else args.base
    if args.digits is not None:
        if args.base < 2:
            raise ValueError(f"base magnitude must be >= 2, got {args.base}")
        if args.d is not None:
            raise ValueError("--d and --digits cannot be combined")
        states, P = carries.transition_matrix_bruteforce(
            signed_base, args.digits, args.n)
        p = None
        digits = sorted(args.digits)
    else:
        if args.d is None:
            raise ValueError("--d is required unless --digits is given")
        spec = _spec(args)
        states = list(carries.state_space(spec))
        P = carries.transition_matrix(spec)
        p = carries.p_param(spec)
        digits = spec.digits
    payload = {
        "base": signed_base,
        "digits": digits,
        "n": args.n,
        "states": states,
        "p": p,
        "matrix": P,
    }
    if args.char_poly:
        from .exactmath import char_poly

        payload["char_poly_ascending"] = char_poly(P).coefficients
    return payload, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    from . import spectral

    spec = _spec(args)
    report = spectral.verify_diagonalization(spec)
    payload = {
        "base": spec.base,
        "d": args.d,
        "n": args.n,
        "states": report.states,
        "p": report.p,
        "spectrum": report.spectrum,
        "stationary": report.pi,
        "matrix": report.P,
        "eigen_matrix": report.V,
        "verdicts": {name: res.passed
                     for name, res in report.verdicts.items()},
        "diffs": {name: res.detail
                  for name, res in report.verdicts.items() if not res.passed},
        "verified": report.verified,
    }
    code = EXIT_OK if report.verified else EXIT_VERIFICATION_FAILED
    return payload, code


def cmd_find_system(args) -> tuple[dict, int]:
    from . import carries

    spec = carries.find_system(args.n, args.p)
    payload = {
        "n": args.n,
        "p": args.p,
        "base": spec.base,
        "d": spec.d,
        "verified_p": carries.p_param(spec),
    }
    return payload, EXIT_OK


def cmd_simulate(args) -> tuple[dict, int]:
    from .carries import chain_stationary
    from .simulate import SimConfig, run_chain

    spec = _spec(args)
    cfg = SimConfig(spec=spec, steps=args.steps, seed=args.seed,
                    burn_in=args.burn_in)
    exact = chain_stationary(spec)
    result = run_chain(cfg, exact=exact)
    payload = {
        "base": spec.base,
        "d": args.d,
        "n": args.n,
        "steps": args.steps,
        "seed": args.seed,
        "burn_in": args.burn_in,
        "generator": result.generator,
        "counts": result.counts,
        "empirical": {k: repr(v) for k, v in result.empirical.items()},
        "exact_stationary": exact,
        "tv_distance": repr(result.tv_distance),
    }
    return payload, EXIT_OK


def cmd_uniform_sum(args) -> tuple[dict, int]:
    from . import eulerian, uniformsum

    probs = uniformsum.interval_probs(args.n, args.p)
    row = eulerian.stationary(args.n, args.p, args.n + 1)
    payload = {
        "n": args.n,
        "p": args.p,
        "interval_probs": probs,
        "scaled_eulerian_row": row,
        "match": probs == row,
    }
    code = EXIT_OK if probs == row else EXIT_VERIFICATION_FAILED
    return payload, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrychain",
        description="Exact analysis of carry Markov chains and generalized "
                    "Eulerian triangles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p, need_d=True):
        p.add_argument("--base", type=int, required=True,
                       help="base magnitude (>= 2)")
        p.add_argument("--d", type=int, required=need_d, default=None,
                       help="least digit (digit set {d, ..., d+base-1})")
        p.add_argument("--n", type=int, required=True,
                       help="number of summands")
        p.add_argument("--negative", action="store_true",
                       help="use base -B instead of B")

    p = sub.add_parser("triangle", help="generalized Eulerian triangle rows")
    p.add_argument("--p", type=parse_rational, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("matrix", help="exact transition matrix")
    add_system(p, need_d=False)
    p.add_argument("--digits", type=parse_digit_set, default=None,
                   help="explicit digit set (switches to the brute-force "
                        "path; spectral predictions do not apply)")
    p.add_argument("--char-poly", action="store_true",
                   help="include the characteristic polynomial")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", help="exact diagonalization checks")
    add_system(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find-system",
                       help="positive-base system realizing a given p")
    p.add_argument("--p", type=parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_find_system)

    p = sub.add_parser("simulate", help="seeded Monte Carlo run")
    add_system(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("uniform-sum",
                       help="interval probabilities of sums of uniforms")
    p.add_argument("--p", type=parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_uniform_sum)

    # Added last so it stays the last option in every usage line.
    for p in sub.choices.values():
        p.add_argument("--format", choices=("pretty", "csv", "json"),
                       default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for command, option, value, limit in COST_LIMITS:
            if command == args.command and (got := value(args)) > limit:
                raise ValueError(f"{option} must be <= {limit} (cost limit), "
                                 f"got {got}")
        payload, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        # Streamed, so an error here leaves part of the document on stdout:
        # past the cost limits it is a defect, never a usage error.
        render(_document(args, payload), args.format, sys.stdout)
    except (ValueError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


def run() -> int:
    """The ``carrychain`` command: main(), then gc.freeze(), so that the
    collections at interpreter exit skip every live object. Refcount frees,
    atexit handlers and the output flush still run."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
