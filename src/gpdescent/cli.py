"""Command-line interface: statistics, enumeration, expansions, verification.

Output is UTF-8; ``--format json`` emits newline-delimited JSON objects.
Exit codes: 0 success, 2 parse error (argument text that does not parse
or validate, a ``UsageError``), 3 resource bound exceeded, 4 the two
expansion routes disagree, 5 a verification failed, 70 internal error (any
other ``ValueError``, raised inside a check; sysexits EX_SOFTWARE), 141
standard output was closed before all of it was written (as when piped
into ``head``; the value a shell reports for a process ended by SIGPIPE).

The size bound behind exit 3 is this module's guard against long runs:
each command checks it where it reads its shape, and the library
functions it calls take no bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import descent, parking, ribbon, symfunc, tanisaki
from .core import check_partition, check_permutation, conjugate, multinomial, partitions

ENV_BOUND = "GPDESCENT_N_BOUND"
DEFAULT_BOUND = 7
PHI_BOUND = 4

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_DISAGREE = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 70
EXIT_PIPE = 141

CHECKS = ("basis", "leading", "parabolic", "phi", "minimal-ribbons")


class UsageError(ValueError):
    """Argument text that does not parse or validate."""


class ResourceBoundError(RuntimeError):
    """Raised when a request exceeds the configured size bound."""


def check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise ResourceBoundError(f"n = {n} exceeds configured bound {bound}")


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_checked(text: str, check):
    """The integers in ``text`` passed through ``check`` (``check_partition``
    or ``check_permutation``); a rejection is a usage error."""
    values = parse_ints(text)
    try:
        return check(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def resolve_bound(args, default: int = DEFAULT_BOUND) -> int:
    """The size bound: ``--n-bound``, then ``GPDESCENT_N_BOUND``, then ``default``."""
    if args.n_bound is not None:
        return args.n_bound
    value = os.environ.get(ENV_BOUND)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"{ENV_BOUND}: expected an integer, got {value!r}") from exc


def _read_shape(args, checks=()) -> tuple[int, ...]:
    """The partition argument, parsed and checked against the size bound.

    Every usage error comes before the bound: the partition text first,
    then a name in ``checks`` that is not in ``CHECKS``.
    """
    lam = _parse_checked(args.partition, check_partition)
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise UsageError(
            f"unknown checks {','.join(unknown)!r}; valid checks: {','.join(CHECKS)}"
        )
    check_bound(sum(lam), resolve_bound(args))
    return lam


def _print_document(document: dict, fmt: str) -> None:
    """One JSON object, or one ``key: value`` line per entry for ``table``."""
    if fmt == "json":
        print(json.dumps(document))
    else:
        for key, value in document.items():
            print(f"{key}: {value}")


def cmd_stats(args) -> int:
    if args.n_bound is not None:
        raise UsageError("stats reads no size bound")
    sigma = _parse_checked(args.sigma, check_permutation)
    payload = {
        "sigma": list(sigma),
        "inv": descent.inv(sigma),
        "maj": descent.maj(sigma),
        "Des": sorted(descent.descent_set(sigma)),
        "Inv": sorted(descent.inversion_set(sigma)),
        "invt": list(descent.invt(sigma)),
        "majt": list(descent.majt(sigma)),
    }
    _print_document(payload, args.format)
    return EXIT_OK


def _json_line(document: dict) -> str:
    """``json.dumps(document)`` and a newline, for an enumerated element.

    Every key is a plain ASCII name and every value an ``int`` or a nested
    list of ``int``s, and ``str`` renders such a list exactly as
    ``json.dumps`` does by default (``", "`` between items), so the line
    needs no encoder call.
    """
    return "{" + ", ".join([f'"{key}": {value}' for key, value in document.items()]) + "}\n"


def cmd_enumerate(args) -> int:
    lam = _read_shape(args)
    if args.kind == "D":
        family = descent.descent_compositions_lambda(lam)
        to_json, to_text = (lambda a: {"composition": list(a)}), list
    elif args.kind == "Jmaj":
        family = sorted(descent.j_maj(lam))
        to_json, to_text = (lambda sigma: {"word": list(sigma), "maj": descent.maj(sigma)}), list
    elif args.kind == "R0":
        family = ribbon.minimal_ribbon_tuples(lam)
        to_json, to_text = ribbon.to_json_dict, (lambda tup: ribbon.render(tup) + "\n")
    else:
        family = parking.minimal_parking_functions(tuple(reversed(lam)))
        to_json, to_text = parking.to_json_dict, (lambda pf: parking.render(pf) + "\n")
    # One write per element, as it is produced.
    write = sys.stdout.write
    count = 0
    if args.format == "json":
        for count, item in enumerate(family, 1):
            write(_json_line(to_json(item)))
    else:
        for count, item in enumerate(family, 1):
            write(f"{to_text(item)}\n")
    summary = {"count": count, "multinomial": multinomial(lam)}
    print(json.dumps(summary) if args.format == "json" else f"count: {count} (multinomial {summary['multinomial']})")
    return EXIT_OK


def _print_expansion(expansion, fmt: str) -> None:
    if fmt == "json":
        for item in symfunc.expansion_json(expansion):
            print(json.dumps(item))
    else:
        for line in symfunc.expansion_lines(expansion):
            print(line)


def cmd_hall_littlewood(args) -> int:
    lam = _read_shape(args)
    routes = {}
    if args.route in ("descents", "both"):
        routes["descents"] = (
            symfunc.hall_littlewood_omega_by_descents(lam)
            if args.twisted
            else symfunc.hall_littlewood_by_descents(lam)
        )
    if args.route in ("ribbons", "both"):
        routes["ribbons"] = symfunc.hall_littlewood_by_ribbons(
            conjugate(lam), twisted=args.twisted
        )
    for name, expansion in routes.items():
        if args.route == "both":
            print(f"# route: {name}")
        _print_expansion(expansion, args.format)
    if args.route == "both":
        diff = symfunc.expansion_diff(routes["descents"], routes["ribbons"])
        if diff:
            print(f"error: routes disagree on {len(diff)} coefficients", file=sys.stderr)
            for mu, (a, b) in diff.items():
                print(f"  m[{','.join(map(str, mu))}]: {a} vs {b}", file=sys.stderr)
            return EXIT_DISAGREE
        print("# routes agree")
    return EXIT_OK


def cmd_verify(args) -> int:
    checks = args.checks or CHECKS
    lam = _read_shape(args, checks)
    # The splitting-map check has its own smaller default bound.  Asked for
    # by name, it is held to that bound before any check runs; only implied
    # by the default set, it is skipped quietly.
    phi_bound = resolve_bound(args, PHI_BOUND)
    if "phi" in checks and args.checks is not None:
        check_bound(sum(lam), phi_bound)
    results = {}
    document = {"lambda": list(lam)}
    if "basis" in checks or "leading" in checks:
        report = tanisaki.verify_descent_basis(lam)
    if "basis" in checks:
        results["basis"] = report.basis_ok
        document.update(report.to_json_dict())
    if "leading" in checks:
        results["leading"] = report.leading_terms_ok
        document["leading_terms_ok"] = results["leading"]
    if "parabolic" in checks:
        ok = True
        cases = []
        for mu in partitions(sum(lam)):
            report = tanisaki.verify_parabolic_basis(lam, mu)
            cases.append(report.to_json_dict())
            ok = ok and report.ok
        results["parabolic"] = ok
        document["parabolic"] = cases
    if "phi" in checks:
        if sum(lam) > phi_bound:
            document["phi_injective_ok"] = "skipped"
        else:
            results["phi"] = tanisaki.verify_phi_injective(lam)
            document["phi_injective_ok"] = results["phi"]
    if "minimal-ribbons" in checks:
        results["minimal-ribbons"] = ribbon.verify_minimal_ribbons(lam)
        document["minimal_ribbons_ok"] = results["minimal-ribbons"]
    document["checks"] = results
    _print_document(document, args.format)
    if not all(results.values()):
        for name, ok in results.items():
            if not ok:
                print(f"verification failed: {name}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _add_shared_flags(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """The shared flags are accepted both before and after the subcommand.

    Subcommand copies default to SUPPRESS so that leaving a trailing flag
    unset does not clobber a value given up front (subparsers merge their
    namespace over the top-level one).
    """
    default = (lambda value: value) if top_level else (lambda value: argparse.SUPPRESS)
    parser.add_argument(
        "--format", choices=("json", "table"), default=default("json")
    )
    parser.add_argument(
        "--n-bound",
        type=int,
        default=default(None),
        help=f"size guard for enumerate, hall-littlewood and verify (default "
        f"{DEFAULT_BOUND}, {PHI_BOUND} for the phi check; "
        f"env {ENV_BOUND} overrides)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpdescent",
        description="descent bases, parking functions, ribbon tuples, and "
        "Hall-Littlewood monomial expansions, exactly",
    )
    _add_shared_flags(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="permutation statistics")
    p_stats.add_argument("sigma", help="one-line permutation, e.g. 3,5,1,2,4")
    p_stats.set_defaults(func=cmd_stats)

    p_enum = sub.add_parser("enumerate", help="stream an enumerated family")
    p_enum.add_argument("kind", choices=("D", "Jmaj", "R0", "PF0"))
    p_enum.add_argument("partition", help="comma-separated partition, e.g. 3,1")
    p_enum.set_defaults(func=cmd_enumerate)

    p_hl = sub.add_parser("hall-littlewood", help="monomial expansion")
    p_hl.add_argument("partition")
    p_hl.add_argument("--route", choices=("descents", "ribbons", "both"), default="both")
    p_hl.add_argument("--twisted", action="store_true")
    p_hl.set_defaults(func=cmd_hall_littlewood)

    p_verify = sub.add_parser(
        "verify",
        help="verify the descent basis indexed by LAMBDA inside the module "
        "of the conjugate shape",
    )
    p_verify.add_argument("partition")
    p_verify.add_argument(
        "--checks",
        type=lambda text: text.split(","),
        default=None,
        help=f"comma-separated subset of {','.join(CHECKS)}",
    )
    p_verify.set_defaults(func=cmd_verify)

    for subparser in (p_stats, p_enum, p_hl, p_verify):
        _add_shared_flags(subparser, top_level=False)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building it costs about 30 times a parse.
    # Sharing it is safe because parse_args never mutates it and it is
    # never handed out; build_parser() still returns a fresh one.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
