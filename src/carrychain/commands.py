"""The subcommand handlers behind carrychain.cli.

``cli.dispatch`` imports this module only for a request that passed the cost
limits and calls ``cmd_<subcommand>`` (hyphens as underscores). Each handler
returns (payload, passed): passed is False only when a verification fails,
and the cli maps it to the exit code. This module never imports
carrychain.cli, which under ``python -m`` runs as ``__main__`` and would run
a second time. Every carrychain module is imported inside the handlers that
use it, so a request loads (and compiles) only its own.
"""

from __future__ import annotations

from fractions import Fraction


def _spec(args):
    from .carries import ChainSpec

    return ChainSpec(args.base, args.d, args.n, args.negative)


def cmd_triangle(args) -> tuple[dict, bool]:
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
    return payload, True


def cmd_matrix(args) -> tuple[dict, bool]:
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
    return payload, True


def cmd_verify(args) -> tuple[dict, bool]:
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
    return payload, report.verified


def cmd_find_system(args) -> tuple[dict, bool]:
    from . import carries

    spec = carries.find_system(args.n, args.p)
    payload = {
        "n": args.n,
        "p": args.p,
        "base": spec.base,
        "d": spec.d,
        "verified_p": carries.p_param(spec),
    }
    return payload, True


def cmd_simulate(args) -> tuple[dict, bool]:
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
    return payload, True


def cmd_uniform_sum(args) -> tuple[dict, bool]:
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
    return payload, probs == row
