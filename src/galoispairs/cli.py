"""Command-line front end.

Commands: verify-paper, check-pair, search, emit-curve. Exit codes are
stable: 0 success/pass, 1 checked-and-failed, 2 invalid input, 3 search
exhausted. All JSON on stdout is emitted with sorted keys so equal runs
are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cases import LABELS, PRIMES
from .criterion import check_pair, check_pair_all_basepoints, subgroups_from_dict
from .errors import GaloisPairsError, UnknownCase
from .field import is_prime
from .implicitize import implicit_degree
from .quotient import emit_parametrization
from .search import STRATEGIES, SearchConfig, run_search
from .subgroups import parse_kind
from .verify import verify_prime

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _cmd_verify_paper(args) -> int:
    try:
        report = verify_prime(args.p, args.case)
    except UnknownCase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _load_pair_document(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    for key in ("p", "g1", "g2"):
        if key not in doc:
            raise ValueError(f"{path}: missing required field {key!r}")
    if not (isinstance(doc["p"], int) and is_prime(doc["p"])):
        raise ValueError(f"{path}: field 'p' must be a prime integer")
    try:
        return subgroups_from_dict(doc)
    except GaloisPairsError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed generator data: {exc}") from exc


def _cmd_check_pair(args) -> int:
    try:
        G1, G2, Q = _load_pair_document(args.input)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.all_basepoints:
        cert = check_pair_all_basepoints(G1, G2)
    else:
        cert = check_pair(G1, G2, Q)
    print(cert.to_json())
    return EXIT_PASS if cert.verdict == "pass" else EXIT_FAIL


def _cmd_search(args) -> int:
    try:
        kind1 = parse_kind(args.kind1)
        kind2 = parse_kind(args.kind2)
        if not is_prime(args.p):
            raise ValueError(f"p={args.p} is not prime")
        cfg = SearchConfig(p=args.p, kind1=kind1, kind2=kind2,
                           strategy=args.strategy, seed=args.seed,
                           limit=args.limit)
        cert = run_search(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if cert is None:
        print("none")
        return EXIT_EXHAUSTED
    print(cert.to_json())
    return EXIT_PASS


def _cmd_emit_curve(args) -> int:
    try:
        G1, G2, Q = _load_pair_document(args.input)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    cert = check_pair(G1, G2, Q)
    if cert.verdict != "pass":
        print(f"error: pair fails the criterion: {'; '.join(cert.failures)}",
              file=sys.stderr)
        return EXIT_INVALID
    try:
        param = emit_parametrization(cert)
        degree = implicit_degree(param)
    except GaloisPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    line = _dump(param.to_dict())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_INVALID
    print(line)
    print(f"implicit_degree={degree}")
    return EXIT_PASS if degree == cert.degree else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galois-pairs",
        description="Exact engine for finite subgroups of PGL(2, F_p): "
                    "verify the bundled reference computations, check and "
                    "search subgroup pairs, and emit plane-curve "
                    "parametrizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify-paper",
                        help="re-run the bundled reference computations")
    vp.add_argument("--p", type=int, required=True,
                    help=f"characteristic, one of {PRIMES}")
    vp.add_argument("--case", choices=LABELS, default=None,
                    help="restrict the pair propositions to one case")
    vp.add_argument("--json", action="store_true", help="emit the JSON report")
    vp.set_defaults(func=_cmd_verify_paper)

    cp = sub.add_parser("check-pair", help="evaluate the pair criterion on a "
                                           "JSON pair document")
    cp.add_argument("input", help="path to the pair document")
    cp.add_argument("--all-basepoints", action="store_true",
                    help="quantify the orbit conditions over every base point")
    cp.set_defaults(func=_cmd_check_pair)

    se = sub.add_parser("search", help="search for a new certified pair")
    se.add_argument("--p", type=int, required=True)
    se.add_argument("--kind1", required=True, help="A4, S4, A5, C<n> or D<n>")
    se.add_argument("--kind2", required=True)
    se.add_argument("--strategy", choices=STRATEGIES, default="random")
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--limit", type=int, default=1000)
    se.set_defaults(func=_cmd_search)

    ec = sub.add_parser("emit-curve", help="emit a plane-curve parametrization "
                                           "for a passing pair")
    ec.add_argument("input", help="pair document or certificate JSON path")
    ec.add_argument("--out", default=None, help="also write the curve JSON here")
    ec.set_defaults(func=_cmd_emit_curve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    return args.func(args)


def entrypoint():
    sys.exit(main())
