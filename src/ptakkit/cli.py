"""Command-line front end.

Every command emits a JSON report (stdout, or ``--out``); ``gen`` writes the
generated file instead.  Input files must be UTF-8 JSON.  Each is read once,
and the report records the sha256 digest of the bytes that were parsed under
``inputs``, next to a timestamp; given identical inputs and seeds everything
except the timestamp is byte-identical.  Exit codes: 0 success, 1
verification failure, 2 usage error, malformed input or input too large for
the memory at hand, reported on one ``ptakkit <command>: <message>`` line
whose message starts with the path of the offending file, if there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import accel
from .families import (
    GENERATOR_ALGORITHM,
    HereditaryFamily,
    cardinality_bound_family,
    cycle_edges,
    cycle_rotation,
    family_from_json_dict,
    maximal_cliques,
    random_family,
    trace,
)
from .game import GameValueResult, delta_exact, fictitious_play, verify_certificate
from .intervals import IntervalSystem, measure_lower_bound, random_system
from .norms import FamilyVector, check_equivalence
from .rationals import format_rational, parse_rational
from .search import BoundReport, max_member
from .suite import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# ``oracle`` plays at most ORACLE_ITERS iterations, stopped at width ORACLE_EPSILON.
ORACLE_ITERS = 10**6
ORACLE_EPSILON = Fraction(1, 10**6)


class InputError(Exception):
    """Malformed input file; message carries a line/field diagnostic."""


def _load(inputs: dict, path: str, reader):
    """``reader`` applied to the JSON in ``path``, whose digest goes into
    ``inputs``.  Any failure to read, decode, parse (nesting too deep for the
    stack included) or interpret the file is an InputError naming ``path``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        return reader(json.loads(data.decode("utf-8")))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, TypeError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise InputError(f"{flag} must be at least {least}, got {value}")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"--out {out}: {exc.strerror or exc}") from None


def cmd_delta(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    res = delta_exact(fam)
    verified = bool(verify_certificate(fam, res))
    return verified, {"delta": format_rational(res.delta), "certificate": res.to_json_dict(),
                      "pivots": res.pivots, "verified": verified}


def cmd_certificate_verify(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    cert = _load(inputs, args.certificate, GameValueResult.from_json_dict)
    result = verify_certificate(fam, cert)
    return result.ok, {"valid": result.ok, "reason": result.reason}


def cmd_norm(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    vec = _load(inputs, args.vector, FamilyVector.from_json_dict)
    try:
        rep = check_equivalence(fam, vec)
    except ValueError as exc:
        raise InputError(f"{args.vector}: {exc}") from None
    ok = rep.lower_ok and rep.upper_ok and rep.nonneg_ok is not False
    return ok, {"report": rep.to_json_dict()}


def cmd_search(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    res = max_member(fam)
    bound = BoundReport(delta_exact(fam).delta, fam.n, res.size)
    return bound.ok, {"best": list(res.best), "size": res.size,
                      "nodes_explored": res.nodes_explored, "optimal": res.optimal,
                      "bound_check": bound.to_json_dict()}


def cmd_trace(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    try:
        subset = [_label(tok) for tok in args.subset.split(",") if tok.strip() != ""]
        result = trace(fam, subset)
    except ValueError as exc:
        raise InputError(f"--subset: {exc}") from None
    return True, {"labels": list(result.labels), "family": result.family.to_json_dict()}


def _label(token: str) -> int:
    """A ``--subset`` token as a label: ASCII decimal digits, with optional
    whitespace around them."""
    if not re.fullmatch(r"\s*[0-9]+\s*", token, re.ASCII):
        raise ValueError(f"{token!r} is not a decimal label")
    return int(token)


def cmd_interval_bound(args, inputs):
    rep = measure_lower_bound(_load(inputs, args.system, IntervalSystem.from_json_dict))
    return rep.ok, {"report": rep.to_json_dict()}


def cmd_oracle(args, inputs):
    fam = _load(inputs, args.family, family_from_json_dict)
    res = fictitious_play(fam, ORACLE_ITERS, ORACLE_EPSILON)
    exact = delta_exact(fam).delta
    contains = res.contains(exact)
    return contains and res.converged, {
        "lower": format_rational(res.lower), "upper": format_rational(res.upper),
        "iterations": res.iterations, "converged": res.converged,
        "exact": format_rational(exact), "contains_exact": contains,
        "backend": accel.backend_name(),
    }


def cmd_gen(args, inputs):
    _at_least("--n", args.n, 3 if args.kind == "cycle-cliques" else 1)
    if args.kind == "cardinality":
        if args.k is None:
            raise InputError("--k is required for --kind cardinality")
        if not 0 <= args.k <= args.n:
            raise InputError(f"--k must lie in [0, --n] = [0, {args.n}], got {args.k}")
        payload = cardinality_bound_family(args.n, args.k).to_json_dict()
        params = {"n": args.n, "k": args.k}
    elif args.kind == "cycle-cliques":
        cliques = maximal_cliques(args.n, cycle_edges(args.n)).maximal
        payload = HereditaryFamily(args.n, cliques, (cycle_rotation(args.n),)).to_json_dict()
        params = {"n": args.n}
    elif args.kind == "random":
        _at_least("--max-sets", args.max_sets, 1)
        payload = random_family(args.seed, n=args.n, max_sets=args.max_sets).to_json_dict()
        params = {"n": args.n, "max_sets": args.max_sets}
    else:
        _at_least("--pieces", args.pieces, 1)
        try:
            min_measure = parse_rational(args.min_measure)
        except ValueError as exc:
            raise InputError(f"--min-measure: {exc}") from None
        if not 0 <= min_measure <= 1:
            raise InputError(f"--min-measure must lie in [0, 1], got {args.min_measure}")
        payload = random_system(args.seed, args.n, args.pieces, min_measure).to_json_dict()
        params = {"n": args.n, "pieces": args.pieces,
                  "min_measure": format_rational(min_measure)}
    payload["provenance"] = {"generator": args.kind, "seed": args.seed,
                             "algorithm": GENERATOR_ALGORITHM, "params": params}
    return True, payload


def cmd_suite(args, inputs):
    report = run_suite(args.seed)
    return report["all_pass"], report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptakkit",
        description="Exact minimax covering constants, certificates, norms and "
                    "homogeneous-set search on hereditary set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, files=()):
        p = sub.add_parser(name, help=summary)
        for flag in files:
            p.add_argument(flag, required=True)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.set_defaults(func=func)
        return p

    command("delta", cmd_delta, "exact game value with certificate", ["--family"])
    command("certificate-verify", cmd_certificate_verify, "check a value certificate",
            ["--family", "--certificate"])
    command("norm", cmd_norm, "family norm and l1 sandwich report", ["--family", "--vector"])

    command("search", cmd_search, "maximum member search with size guarantee", ["--family"])

    p = command("trace", cmd_trace, "trace the family to a label subset", ["--family"])
    p.add_argument("--subset", required=True, help="comma-separated labels, e.g. 0,2,5")

    command("interval-bound", cmd_interval_bound,
            "measure lower bound of a system's trace", ["--system"])

    command("oracle", cmd_oracle,
            "fictitious-play bracket cross-checked against the exact value", ["--family"])

    p = command("gen", cmd_gen, "generate family or interval-system files")
    p.add_argument("--kind", required=True,
                   choices=["cardinality", "cycle-cliques", "random", "intervals"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-sets", type=int, default=40)
    p.add_argument("--pieces", type=int, default=1)
    p.add_argument("--min-measure", default="1/4")
    p.add_argument("--seed", type=int, default=0)

    p = command("suite", cmd_suite, "run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one command: each ``cmd_*`` returns its verdict and report fields,
    and any InputError, ValueError or MemoryError is exit 2 with a one-line
    message."""
    args = build_parser().parse_args(argv)
    inputs: dict = {}
    try:
        ok, report = args.func(args, inputs)
        if args.command != "gen":  # gen writes the file it made, not a report
            report = {**report, "command": args.command,
                      "timestamp": datetime.now(timezone.utc).isoformat()}
            if inputs:
                report["inputs"] = inputs
        _write_json(report, args.out)
    except (InputError, ValueError) as exc:
        print(f"ptakkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        print(f"ptakkit {args.command}: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
