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

# Every other carrychain module is imported where a request first needs it,
# so a request loads (and compiles) only its own: the handlers
# (carrychain.commands) once the cost limits pass, the csv and pretty writers
# (carrychain.tables) for those formats, and each library module inside the
# handlers that use it. The JSON writer knows a matrix by its ratios() method,
# so it does not need exactmath either.

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


# Cost limits (command, option, value of the args, limit), checked by
# check_cost in this order before any work, and before any import but the
# carry interval's.
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
    else:
        from . import tables

        fields = tables._fields(doc["payload"])
        if fmt == "csv":
            tables._emit_csv(fields, stream)
        else:
            tables._emit_pretty(doc["command"], fields, stream)


def _document(args, payload: dict) -> dict:
    """The output document; inputs echo the parsed options in argparse order."""
    inputs = {key: str(value) if isinstance(value, Fraction) else value
              for key, value in vars(args).items()
              if key not in ("command", "format", "char_poly")}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "payload": payload,
    }


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

    p = sub.add_parser("matrix", help="exact transition matrix")
    add_system(p, need_d=False)
    p.add_argument("--digits", type=parse_digit_set, default=None,
                   help="explicit digit set (switches to the brute-force "
                        "path; spectral predictions do not apply)")
    p.add_argument("--char-poly", action="store_true",
                   help="include the characteristic polynomial")

    p = sub.add_parser("verify", help="exact diagonalization checks")
    add_system(p)

    p = sub.add_parser("find-system",
                       help="positive-base system realizing a given p")
    p.add_argument("--p", type=parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("simulate", help="seeded Monte Carlo run")
    add_system(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=1000)

    p = sub.add_parser("uniform-sum",
                       help="interval probabilities of sums of uniforms")
    p.add_argument("--p", type=parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)

    # Added last so it stays the last option in every usage line.
    for p in sub.choices.values():
        p.add_argument("--format", choices=("pretty", "csv", "json"),
                       default="json")
    return parser


def check_cost(args) -> None:
    """Raise ValueError at the first COST_LIMITS row of args.command that
    args exceed."""
    for command, option, value, limit in COST_LIMITS:
        if command == args.command and (got := value(args)) > limit:
            raise ValueError(f"{option} must be <= {limit} (cost limit), "
                             f"got {got}")


def dispatch(args) -> tuple[dict, int]:
    """(payload, exit code) of the carrychain.commands handler named after
    args.command; call it only once check_cost has passed."""
    from . import commands

    handler = getattr(commands, "cmd_" + args.command.replace("-", "_"))
    payload, passed = handler(args)
    return payload, EXIT_OK if passed else EXIT_VERIFICATION_FAILED


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_cost(args)
        payload, code = dispatch(args)
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
