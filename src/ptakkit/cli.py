"""Command-line front end.

Every command emits a JSON report (stdout, or ``--out``).  Reports carry a
sha256 digest of each input file and a timestamp; given identical inputs and
seeds everything except the timestamp is byte-identical.  Exit codes: 0
success, 1 verification failure, 2 usage error or malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone

from . import accel
from .families import (
    GENERATOR_ALGORITHM,
    FamilySpec,
    cardinality_bound_family,
    cycle_edges,
    family_from_json_dict,
    maximal_cliques,
    random_family,
    realize,
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


class InputError(Exception):
    """Malformed input file; message carries a line/field diagnostic."""


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def _load(path: str, reader):
    """``reader`` applied to the JSON in ``path``; bad content is an InputError."""
    data = _load_json(path)
    try:
        return reader(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_family(path: str):
    return _load(path, family_from_json_dict)


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


def _emit(report: dict, out: str | None) -> None:
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(report, out)


def cmd_delta(args) -> int:
    fam = _load_family(args.family)
    res = delta_exact(fam)
    verified = verify_certificate(fam, res)
    report = {
        "command": "delta",
        "inputs": {args.family: _digest(args.family)},
        "delta": format_rational(res.delta),
        "certificate": res.to_json_dict(),
        "pivots": res.pivots,
        "verified": bool(verified),
    }
    _emit(report, args.out)
    return EXIT_OK if verified else EXIT_VERIFY


def cmd_certificate_verify(args) -> int:
    fam = _load_family(args.family)
    cert = _load(args.certificate, lambda d: GameValueResult.from_json_dict(d, validate=False))
    result = verify_certificate(fam, cert)
    report = {
        "command": "certificate-verify",
        "inputs": {
            args.family: _digest(args.family),
            args.certificate: _digest(args.certificate),
        },
        "valid": result.ok,
        "reason": result.reason,
    }
    _emit(report, args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


def cmd_norm(args) -> int:
    fam = _load_family(args.family)
    vec = _load(args.vector, FamilyVector.from_json_dict)
    try:
        rep = check_equivalence(fam, vec)
    except ValueError as exc:
        raise InputError(f"{args.vector}: {exc}") from None
    report = {
        "command": "norm",
        "inputs": {
            args.family: _digest(args.family),
            args.vector: _digest(args.vector),
        },
        "report": rep.to_json_dict(),
    }
    _emit(report, args.out)
    ok = rep.lower_ok and rep.upper_ok and rep.nonneg_ok is not False
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_search(args) -> int:
    fam = _load_family(args.family)
    res = max_member(fam, budget=args.budget)
    best = res if res.optimal else max_member(fam)
    bound = BoundReport(delta_exact(fam).delta, fam.n, best.size)
    report = {
        "command": "search",
        "inputs": {args.family: _digest(args.family)},
        "best": list(res.best),
        "size": res.size,
        "nodes_explored": res.nodes_explored,
        "optimal": res.optimal,
        "bound_check": bound.to_json_dict(),
    }
    _emit(report, args.out)
    return EXIT_OK if bound.ok else EXIT_VERIFY


def cmd_trace(args) -> int:
    fam = _load_family(args.family)
    try:
        subset = [int(tok) for tok in args.subset.split(",") if tok.strip() != ""]
        result = trace(fam, subset)
    except ValueError as exc:
        raise InputError(f"--subset: {exc}") from None
    report = {
        "command": "trace",
        "inputs": {args.family: _digest(args.family)},
        "labels": list(result.labels),
        "family": result.family.to_json_dict(),
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_interval_bound(args) -> int:
    system = _load(args.system, IntervalSystem.from_json_dict)
    rep = measure_lower_bound(system)
    report = {
        "command": "interval-bound",
        "inputs": {args.system: _digest(args.system)},
        "report": rep.to_json_dict(),
    }
    _emit(report, args.out)
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_oracle(args) -> int:
    fam = _load_family(args.family)
    try:
        eps = parse_rational(args.epsilon)
        res = fictitious_play(fam, args.max_iters, eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    exact = delta_exact(fam).delta
    contains = res.contains(exact)
    report = {
        "command": "oracle",
        "inputs": {args.family: _digest(args.family)},
        "lower": format_rational(res.lower),
        "upper": format_rational(res.upper),
        "iterations": res.iterations,
        "converged": res.converged,
        "exact": format_rational(exact),
        "contains_exact": contains,
        "backend": accel.backend_name(),
    }
    _emit(report, args.out)
    return EXIT_OK if contains and res.converged else EXIT_VERIFY


def cmd_gen(args) -> int:
    provenance = {
        "generator": args.kind,
        "seed": args.seed,
        "algorithm": GENERATOR_ALGORITHM,
    }
    try:
        if args.kind == "cardinality":
            if args.k is None:
                raise InputError("--k is required for --kind cardinality")
            fam = cardinality_bound_family(args.n, args.k)
            payload = fam.to_json_dict()
            provenance["params"] = {"n": args.n, "k": args.k}
        elif args.kind == "cycle-cliques":
            fam = maximal_cliques(args.n, cycle_edges(args.n))
            payload = fam.to_json_dict()
            provenance["params"] = {"n": args.n}
        elif args.kind == "powerset":
            fam = realize(FamilySpec(kind="cardinality_bound", n=args.n, k=args.n))
            payload = fam.to_json_dict()
            provenance["params"] = {"n": args.n}
        elif args.kind == "random":
            fam = random_family(args.seed, n=args.n, max_sets=args.max_sets)
            payload = fam.to_json_dict()
            provenance["params"] = {"n": args.n, "max_sets": args.max_sets}
        elif args.kind == "intervals":
            min_measure = parse_rational(args.min_measure)
            system = random_system(args.seed, args.n, args.pieces, min_measure)
            payload = system.to_json_dict()
            provenance["params"] = {
                "n": args.n,
                "pieces": args.pieces,
                "min_measure": format_rational(min_measure),
            }
        else:  # argparse choices make this unreachable
            raise InputError(f"unknown kind {args.kind}")
    except ValueError as exc:
        print(f"ptakkit gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload["provenance"] = provenance
    _write_json(payload, args.out)
    return EXIT_OK


def cmd_suite(args) -> int:
    try:
        eps = parse_rational(args.epsilon)
        report = run_suite(args.seed, n=args.n, families=args.families,
                           systems=args.systems, vectors=args.vectors,
                           fp_iters=args.fp_iters, epsilon=eps)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit(report, args.out)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptakkit",
        description="Exact minimax covering constants, certificates, norms and "
                    "homogeneous-set search on hereditary set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("delta", help="exact game value with certificate")
    p.add_argument("--family", required=True)
    add_out(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("certificate-verify", help="check a value certificate")
    p.add_argument("--family", required=True)
    p.add_argument("--certificate", required=True)
    add_out(p)
    p.set_defaults(func=cmd_certificate_verify)

    p = sub.add_parser("norm", help="family norm and l1 sandwich report")
    p.add_argument("--family", required=True)
    p.add_argument("--vector", required=True)
    add_out(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("search", help="maximum member search with size guarantee")
    p.add_argument("--family", required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget")
    add_out(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("trace", help="trace the family to a label subset")
    p.add_argument("--family", required=True)
    p.add_argument("--subset", required=True, help="comma-separated labels, e.g. 0,2,5")
    add_out(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("interval-bound", help="measure lower bound of a system's trace")
    p.add_argument("--system", required=True)
    add_out(p)
    p.set_defaults(func=cmd_interval_bound)

    p = sub.add_parser("oracle", help="fictitious-play bracket cross-checked "
                                      "against the exact value")
    p.add_argument("--family", required=True)
    p.add_argument("--epsilon", default="1/1000000")
    p.add_argument("--max-iters", type=int, default=10**6)
    add_out(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate family or interval-system files")
    p.add_argument("--kind", required=True,
                   choices=["cardinality", "cycle-cliques", "powerset", "random", "intervals"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-sets", type=int, default=40)
    p.add_argument("--pieces", type=int, default=1)
    p.add_argument("--min-measure", default="1/4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("suite", help="run the seeded invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--families", type=int, default=24)
    p.add_argument("--systems", type=int, default=8)
    p.add_argument("--vectors", type=int, default=12)
    p.add_argument("--fp-iters", type=int, default=200_000)
    p.add_argument("--epsilon", default="1/1000000")
    add_out(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"ptakkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
