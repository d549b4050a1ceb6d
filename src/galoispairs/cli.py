"""Command-line front end of galoispairs, an exact engine for finite
subgroups of PGL(2, F_p): verify the bundled reference computations, check
and search subgroup pairs, and emit plane-curve parametrizations.

Exit codes are stable: 0 success/pass or -h/--help (usage on stdout), 1
checked-and-failed, 2 invalid input (a bad command line prints `usage:` and
`error:` lines on stderr), 3 search exhausted. A handler raises ValueError or
UnknownCase on invalid input, and `main` prints its one `error:` line and
returns 2; any other exception propagates. All JSON on stdout is emitted
with sorted keys so equal runs are byte-identical. Where the platform has
SIGPIPE, the command (`entrypoint`) is killed by it on a write to a closed
stdout, as `cat` is, with no traceback and none of the codes above: so
`galois-pairs verify-paper --p 59 | head -1` prints one line. Argv grammar:
`--p 11` or `--p=11`; any unique prefix of a long option (`--all`; `--s` is
ambiguous in search); the last repeat wins; a token that starts with `-` is
an option unless it is a negative number or holds a space (`--seed -1` is
fine, `--kind1 --kind2` is not); every token after the first `--` is a value.
"""

from __future__ import annotations

import json
import re
import signal
import sys
from types import SimpleNamespace

from .cases import LABELS, PRIMES
from .criterion import reverify
from .errors import GaloisPairsError, UnknownCase
from .implicitize import implicit_degree
from .quotient import emit_parametrization
from .search import STRATEGIES, SearchConfig, run_search
from .subgroups import parse_kind
from .verify import verify_prime

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3


def _cmd_verify_paper(args) -> int:
    report = verify_prime(args.p, args.case)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _certify(path: str, all_basepoints: bool = False):
    """reverify's certificate for the pair document or certificate JSON at
    `path`, at its base point or at every one; a file that cannot be read,
    is not JSON or is not a valid document raises a ValueError that names
    `path`."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON's encoding (RFC 8259)
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    try:
        return reverify(doc, all_basepoints)
    except (ValueError, GaloisPairsError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_check_pair(args) -> int:
    cert = _certify(args.input, args.all_basepoints)
    print(cert.to_json())
    return EXIT_PASS if cert.verdict == "pass" else EXIT_FAIL


def _cmd_search(args) -> int:
    kind1 = parse_kind(args.kind1)
    kind2 = parse_kind(args.kind2)
    cfg = SearchConfig(p=args.p, kind1=kind1, kind2=kind2,
                       strategy=args.strategy, seed=args.seed,
                       limit=args.limit)
    cert = run_search(cfg)
    if cert is None:
        print("none")
        return EXIT_EXHAUSTED
    print(cert.to_json())
    return EXIT_PASS


def _cmd_emit_curve(args) -> int:
    cert = _certify(args.input)
    param = emit_parametrization(cert)
    try:
        degree = implicit_degree(cert, param)
    except GaloisPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    line = json.dumps(param.to_dict(), sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    print(line)
    print(f"implicit_degree={degree}")
    return EXIT_PASS


REQUIRED = object()
# command -> (handler, positionals {name: help}, options {name: (type, default[,
# help])}); a type is int, str, bool (a flag) or a tuple of choices
COMMANDS = {
    "verify-paper": (_cmd_verify_paper, {}, {
        "--p": (int, REQUIRED, f"characteristic, one of {PRIMES}"),
        "--case": (LABELS, None, "restrict the pair propositions to one case"),
        "--json": (bool, False, "emit the JSON report")}),
    "check-pair": (_cmd_check_pair, {"input": "path to the pair document"}, {
        "--all-basepoints": (bool, False,
                             "quantify the orbit conditions over every base point")}),
    "search": (_cmd_search, {}, {
        "--p": (int, REQUIRED), "--kind1": (str, REQUIRED, "A4, S4, A5, C<n> or D<n>"),
        "--kind2": (str, REQUIRED),
        "--strategy": (STRATEGIES, "random", "random, exhaustive-cyclic: try b^-1 G2 b over b "
                       "fixing (0:1), drawn or in order; scaling: b = diag(c, 1)"),
        "--seed": (int, 0, "seed of the draws of the random strategy"),
        "--limit": (int, 1000, "most conjugators b to try")}),
    "emit-curve": (_cmd_emit_curve, {"input": "pair document or certificate JSON path"}, {
        "--out": (str, None, "also write the curve JSON here")}),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # values, not options


class UsageError(Exception):
    """Raised by parse_args with args (command or None, message); a message
    of None asks for help."""


def _usage(command, full=False) -> str:
    """The usage line of `command` (of each if None); full adds the help."""
    lines, notes = [], [__doc__] * (command is None)
    for name in [command] if command else COMMANDS:
        _, positionals, options = COMMANDS[name]
        words, notes = ["galois-pairs", name], notes + [f"{name}:"]
        for opt, (kind, default, *text) in options.items():
            meta = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else opt[2:].upper()
            word = opt if kind is bool else f"{opt} {meta}"
            words.append(word if default is REQUIRED else f"[{word}]")
            notes += [f"  {opt:<17} {t}" for t in text]
        lines.append(" ".join(words + list(positionals)))
        notes += [f"  {pos:<17} {t}" for pos, t in positionals.items()]
    return "\n".join(["usage: " + "\n       ".join(lines), *full * notes])


def _read(tok, names, command):
    """What `tok` is among option `names`: None for a value, else (the
    option, None if unknown; the value attached to it, or None)."""
    if tok[:1] != "-" or tok == "-":
        return None
    head, eq, tail = tok.partition("=")
    if head in names:
        return head, tail if eq else None
    if tok[:2] == "-h":  # -hX attaches X to -h, and -hh is -h -h
        return "-h", tok[2:] if tok[2:].strip("h") else None
    hits = [(n, tail if eq else None) for n in names
            if n.startswith(head) and tok[1] == "-"]  # no prefixes of short options
    if len(hits) > 1:
        raise UsageError(command, f"ambiguous option {tok}: {', '.join(dict(hits))}")
    if hits:
        return hits[0]
    return None if _NEGATIVE.match(tok) or " " in tok else (None, None)


def parse_args(argv, command=None, extras=()) -> SimpleNamespace:
    """Read argv against COMMANDS: the command's values and func, or
    UsageError. Each token is read before any is acted on, so an ambiguous
    prefix beats an earlier -h. The tokens after the command are read by a
    second call, against that command's options."""
    func, positionals, options = COMMANDS.get(command, (None, {"command": ""}, {}))
    argv, extras, pending = list(argv), list(extras), list(positionals)
    values = {opt: spec[1] for opt, spec in options.items()}
    cut = argv.index("--") if "--" in argv else len(argv)  # the rest are values
    reads = [_read(tok, (*_HELP, *options), command) for tok in argv[:cut]]
    j = 0
    while j < len(argv):
        name, text = (reads[j] if j < cut else None) or ("", None)  # "": a value
        if name == "" and pending == ["command"]:
            if j == cut or argv[j] not in COMMANDS:
                raise UsageError(None, f"invalid command {argv[j]!r}")
            return parse_args(argv[j + 1:], argv[j], extras)
        if name == "" and pending and j + (j == cut) < len(argv):
            j += j == cut  # a positional takes the `--` before or after it
            values[pending.pop(0)] = argv[j]
            j += j + 1 == cut
        elif not name:  # a value no positional takes, or an unknown option
            extras.append(argv[j])
        elif name in _HELP or options[name][0] is bool:
            if text is not None or name in _HELP:  # no message: a help request
                raise UsageError(command, None if text is None else f"{name} takes no value")
            values[name] = True
        else:
            if text is None:
                if j + 1 == cut or reads[j + 1]:
                    raise UsageError(command, f"{name} expects a value")
                j, text = j + 1, argv[j + 1]
            kind = options[name][0]
            try:
                values[name] = int(text) if kind is int else text
            except ValueError:
                raise UsageError(command, f"{name}: {text!r} is not an int") from None
            if isinstance(kind, tuple) and text not in kind:
                raise UsageError(command, f"{name}: {text!r} is not one of {kind}")
        j += 1
    missing = [opt for opt, value in values.items() if value is REQUIRED] + pending
    if missing:
        raise UsageError(command, f"missing {', '.join(missing)}")
    if extras:
        raise UsageError(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, func=func, **{
        opt.lstrip("-").replace("-", "_"): value for opt, value in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        command, message = exc.args
        if message is None:
            print(_usage(command, full=True))
            return EXIT_PASS
        print(f"{_usage(command)}\nerror: {message}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except (ValueError, UnknownCase) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    if hasattr(signal, "SIGPIPE"):  # Python starts with it ignored: writes raise BrokenPipeError
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
