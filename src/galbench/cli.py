"""Command-line interface.

Commands operate on a structure argument of the form ``corpus:<name>`` (one of
the embedded structures) or a path to a structure file.  Element sets are
written as comma-separated names, with the empty string for the empty set and
the literal ``ALL`` for the whole universe; sets of tuples separate tuples
with semicolons (``"a,b;c,d"`` is the two-pair set).

Exit codes: 0 success (including a passing verification), 1 a verification
ran and failed, 2 usage or input error, 3 internal error (a failed internal
consistency check, which means a bug; the message on stderr starts with
``internal error:``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import formula as fm
from .aut import automorphism_group, automorphism_group_fixing
from .corpus import CORPUS, corpus_names, load_corpus
from .errors import GalbenchError, InternalCheckError
from .galois import (DEFAULT_MAX_LEN, acl, codes_finite_sets, dcl,
                     degree_of_extension, find_code, find_generator,
                     is_irreducible_formula, is_normal_extension,
                     is_splitting_extension, multisymmetric_code, orbit_over,
                     verify_galois_correspondence, verify_tower)
from .structure import Structure, load_structure
from .suite import run_full_verification

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


def _load_target(spec: str) -> Structure:
    if spec.startswith("corpus:"):
        return load_corpus(spec[len("corpus:"):])
    path = Path(spec)
    if not path.is_file():
        raise _UsageError(f"no such structure: {spec!r} "
                          f"(use corpus:<name> or a file path)")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"structure file {spec!r} is not valid UTF-8: {exc.reason} "
                          f"at byte {exc.start}") from None
    return load_structure(text)


def _parse_set(M: Structure, text: str) -> frozenset[int]:
    text = text.strip()
    if text == "":
        return frozenset()
    if text == "ALL":
        return frozenset(range(M.size))
    return M.ids(name.strip() for name in text.split(","))


def _parse_tuple(M: Structure, text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return M.tuple_of(name.strip() for name in text.split(","))


def _parse_tuple_set(M: Structure, text: str) -> set[tuple[int, ...]]:
    return {_parse_tuple(M, part) for part in text.split(";")}


def _emit(args, payload_text: str, payload_json: dict, out) -> None:
    if args.format == "json":
        print(json.dumps(payload_json, indent=2), file=out)
    else:
        print(payload_text, file=out)


def _fmt_tuple(M: Structure, t) -> str:
    return "(" + ", ".join(M.render_tuple(t)) + ")"


def _fmt_set(names) -> str:
    return "{" + ", ".join(names) + "}"


# -- command handlers -----------------------------------------------------------


def _cmd_corpus(args, out) -> int:
    if args.action != "list":
        raise _UsageError(f"unknown corpus action {args.action!r}")
    rows = [{"name": name, "notes": CORPUS[name].notes} for name in corpus_names()]
    text = "\n".join(f"{row['name']:8s} {row['notes']}" for row in rows)
    _emit(args, text, {"corpus": rows}, out)
    return EXIT_OK


def _cmd_parse(args, out) -> int:
    M = _load_target(args.structure)
    ast = fm.parse_formula(args.formula, M.signature)
    canonical = fm.format_formula(ast)
    _emit(args, canonical,
          {"formula": canonical,
           "free_variables": list(fm.free_variables(ast, M.names)),
           "parameters": list(fm.parameters(ast, M.names))},
          out)
    return EXIT_OK


def _cmd_eval(args, out) -> int:
    M = _load_target(args.structure)
    ast = fm.parse_formula(args.formula, M.signature)
    env = {}
    if args.env:
        for item in args.env.split(","):
            if "=" not in item:
                raise _UsageError(f"bad assignment entry {item!r}; use var=element")
            var, name = item.split("=", 1)
            env[var.strip()] = M.resolve(name.strip())
    value = fm.evaluate(M, ast, env)
    _emit(args, "true" if value else "false", {"value": value}, out)
    return EXIT_OK


def _cmd_aut(args, out) -> int:
    M = _load_target(args.structure)
    if args.fixing is not None:
        G = automorphism_group_fixing(M, _parse_set(M, args.fixing))
    else:
        G = automorphism_group(M)
    gens = list(G.generator_strings()) or ["()"]
    text = (f"universe: {' '.join(M.labels)}\n"
            f"order {G.order}\n"
            f"generators: {', '.join(gens)}")
    _emit(args, text, {"universe": list(M.labels), "order": G.order,
                       "generators": gens}, out)
    return EXIT_OK


def _cmd_closure(args, out, kind: str) -> int:
    M = _load_target(args.structure)
    A = _parse_set(M, args.set)
    result = dcl(M, A) if kind == "dcl" else acl(M, A)
    names = M.render_set(result)
    _emit(args, _fmt_set(names), {kind: list(names)}, out)
    return EXIT_OK


def _cmd_orbit(args, out) -> int:
    M = _load_target(args.structure)
    desc = orbit_over(M, _parse_tuple(M, args.tuple), _parse_set(M, args.base))
    text = (f"degree {desc.degree}\n"
            + "\n".join(_fmt_tuple(M, t) for t in desc.orbit))
    _emit(args, text,
          {"degree": desc.degree,
           "orbit": [list(M.render_tuple(t)) for t in desc.orbit]}, out)
    return EXIT_OK


def _cmd_degree(args, out) -> int:
    M = _load_target(args.structure)
    deg = degree_of_extension(M, _parse_set(M, args.base), _parse_set(M, args.top),
                              max_len=args.max_len)
    _emit(args, str(deg), {"degree": deg}, out)
    return EXIT_OK


def _cmd_irr_check(args, out) -> int:
    M = _load_target(args.structure)
    ast = fm.parse_formula(args.formula, M.signature)
    ok = is_irreducible_formula(M, ast, _parse_tuple(M, args.tuple),
                                _parse_set(M, args.base))
    _emit(args, "true" if ok else "false", {"irreducible": ok}, out)
    return EXIT_OK


def _cmd_normal(args, out) -> int:
    M = _load_target(args.structure)
    ok = is_normal_extension(M, _parse_set(M, args.base), _parse_set(M, args.top))
    _emit(args, "true" if ok else "false", {"normal": ok}, out)
    return EXIT_OK


def _cmd_splitting(args, out) -> int:
    M = _load_target(args.structure)
    ok, witness = is_splitting_extension(M, _parse_set(M, args.base),
                                         _parse_set(M, args.top), max_len=args.max_len)
    text = f"true, witness {_fmt_tuple(M, witness)}" if ok else "false"
    _emit(args, text,
          {"splitting": ok,
           "witness": list(M.render_tuple(witness)) if ok else None}, out)
    return EXIT_OK


def _cmd_code(args, out) -> int:
    M = _load_target(args.structure)
    code = find_code(M, _parse_tuple_set(M, args.tuples), max_len=args.max_len)
    if code is None:
        _emit(args, f"none (no code of length <= {args.max_len})",
              {"code": None, "max_len": args.max_len}, out)
    else:
        _emit(args, _fmt_tuple(M, code),
              {"code": list(M.render_tuple(code)), "max_len": args.max_len}, out)
    return EXIT_OK


def _cmd_codes_report(args, out) -> int:
    M = _load_target(args.structure)
    report = codes_finite_sets(M, max_set_size=args.max_set_size, max_len=args.max_len)
    lines = [f"sets checked (orbit representatives): {report.sets_checked}"]
    lines.extend(f"no code: {_fmt_set(names)}" for names in report.failures)
    lines.append("verdict: codes (bounded)" if report.verdict else "verdict: fail")
    _emit(args, "\n".join(lines), report.to_json_dict(), out)
    return EXIT_OK


def _cmd_msym_code(args, out) -> int:
    M = _load_target(args.structure)
    code = multisymmetric_code(M, _parse_tuple_set(M, args.tuples))
    _emit(args, _fmt_tuple(M, code), {"code": list(M.render_tuple(code))}, out)
    return EXIT_OK


def _cmd_generator(args, out) -> int:
    M = _load_target(args.structure)
    gen = find_generator(M, _parse_set(M, args.base), _parse_set(M, args.top),
                         max_len=args.max_len)
    if gen is None:
        _emit(args, f"none (no generator of length <= {args.max_len})",
              {"generator": None, "max_len": args.max_len}, out)
    else:
        _emit(args, _fmt_tuple(M, gen), {"generator": list(M.render_tuple(gen))}, out)
    return EXIT_OK


def _cmd_galois(args, out) -> int:
    M = _load_target(args.structure)
    report = verify_galois_correspondence(M, _parse_set(M, args.base),
                                          _parse_set(M, args.top),
                                          max_len=args.max_len)
    lines = [
        f"structure {report.structure}",
        f"base: {_fmt_set(report.base)}",
        f"top: {_fmt_set(report.top)}",
        f"group order: {report.group_order}",
        f"subgroups: {report.subgroup_count}",
        f"intermediates: {report.intermediate_count}",
    ]
    for gens, fixed in report.pairs:
        lines.append(f"  <{', '.join(gens) or '()'}>  ->  {_fmt_set(fixed)}")
    for f in report.failures:
        lines.append(f"failure [{f.kind}]: {f.subject} (order {f.subject_order}) "
                     f"closes to {f.closure} (order {f.closure_order})")
    coding = ("pass" if report.coding_ok
              else "inconclusive" if report.coding_ok is None else "fail")
    lines.append(f"coding: {coding}")
    for item in report.coding_failures:
        lines.append(f"  no code for {item}")
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    _emit(args, "\n".join(lines), report.to_json_dict(), out)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED


def _cmd_tower(args, out) -> int:
    M = _load_target(args.structure)
    parts = args.sets.split(";")
    if len(parts) != 3:
        raise _UsageError("--sets wants three semicolon-separated element sets")
    A, B, C = (_parse_set(M, part) for part in parts)
    report = verify_tower(M, A, B, C, max_len=args.max_len)
    lines = [
        f"structure {report.structure}",
        f"tower: {_fmt_set(report.base)} <= {_fmt_set(report.mid)} <= {_fmt_set(report.top)}",
        f"degrees: mid/base {report.degree_mid_base}, top/mid {report.degree_top_mid}, "
        f"top/base {report.degree_top_base}",
        f"orders: mid/base {report.order_mid_base}, top/mid {report.order_top_mid}, "
        f"top/base {report.order_top_base}",
    ]
    for c in report.checks:
        status = "skip" if c.passed is None else ("pass" if c.passed else "FAIL")
        lines.append(f"  [{status}] {c.name}: {c.detail}")
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    _emit(args, "\n".join(lines), report.to_json_dict(), out)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED


def _cmd_verify(args, out) -> int:
    M = _load_target(args.structure)
    report = run_full_verification(M, trials=args.trials, seed=args.seed,
                                   max_len=args.max_len)
    lines = []
    for law in report.laws:
        status = "PASS" if law.passed else "FAIL"
        lines.append(f"{status} {law.name} ({law.trials} instances)")
        lines.extend(f"    {v}" for v in law.violations[:5])
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    _emit(args, "\n".join(lines), report.to_json_dict(), out)
    return EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED


# -- argument plumbing ------------------------------------------------------------


class _HelpRequested(Exception):
    """Carries the help text of `--help` back to `run_command`."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def print_help(self, file=None):
        # argparse prints help to sys.stdout and exits; the text goes to the
        # caller's stream instead and `run_command` returns normally.
        raise _HelpRequested(self.format_help())


def _int_at_least(lowest: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value
    return parse


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state in
    it, each call gets a fresh namespace."""
    parser = _ArgumentParser(prog="galbench", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, structure=True):
        if structure:
            p.add_argument("structure", help="corpus:<name> or a structure file path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-len", dest="max_len", type=_int_at_least(0),
                       default=DEFAULT_MAX_LEN)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("corpus", help="embedded corpus operations")
    p.add_argument("action", help="'list'")
    common(p, structure=False)
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    common(p)
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula")
    common(p)
    p.add_argument("formula")
    p.add_argument("--env", default="", help="comma-separated var=element pairs")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("aut", help="automorphism group")
    common(p)
    p.add_argument("--fixing", default=None, help="element set fixed pointwise")
    p.set_defaults(fn=_cmd_aut)

    p = sub.add_parser("dcl", help="definable closure")
    common(p)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=lambda a, o: _cmd_closure(a, o, "dcl"))

    p = sub.add_parser("acl", help="algebraic closure")
    common(p)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=lambda a, o: _cmd_closure(a, o, "acl"))

    p = sub.add_parser("orbit", help="orbit and degree of a tuple over a base set")
    common(p)
    p.add_argument("--tuple", required=True)
    p.add_argument("--base", default="")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("degree", help="degree of an extension")
    common(p)
    p.add_argument("--base", default="")
    p.add_argument("--top", required=True)
    p.set_defaults(fn=_cmd_degree)

    p = sub.add_parser("irr-check",
                       help="does the formula isolate exactly the tuple's orbit?")
    common(p)
    p.add_argument("formula")
    p.add_argument("--tuple", required=True)
    p.add_argument("--base", default="")
    p.set_defaults(fn=_cmd_irr_check)

    p = sub.add_parser("normal", help="is the extension normal?")
    common(p)
    p.add_argument("--base", default="")
    p.add_argument("--top", required=True)
    p.set_defaults(fn=_cmd_normal)

    p = sub.add_parser("splitting", help="is the extension a splitting extension?")
    common(p)
    p.add_argument("--base", default="")
    p.add_argument("--top", required=True)
    p.set_defaults(fn=_cmd_splitting)

    p = sub.add_parser("generator", help="shortest generating tuple of an extension")
    common(p)
    p.add_argument("--base", default="")
    p.add_argument("--top", required=True)
    p.set_defaults(fn=_cmd_generator)

    p = sub.add_parser("code", help="code of a finite set of tuples")
    common(p)
    p.add_argument("--tuples", required=True,
                   help="semicolon-separated tuples, e.g. 'a;b' or 'a,b;c,d'")
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("codes-report", help="do all small element sets have codes?")
    common(p)
    p.add_argument("--max-set-size", dest="max_set_size", type=_int_at_least(1),
                   default=2)
    p.set_defaults(fn=_cmd_codes_report)

    p = sub.add_parser("msym-code",
                       help="coefficient code of tuples over a field encoding")
    common(p)
    p.add_argument("--tuples", required=True)
    p.set_defaults(fn=_cmd_msym_code)

    p = sub.add_parser("galois", help="verify the subgroup/intermediate-set duality")
    common(p)
    p.add_argument("--base", default="")
    p.add_argument("--top", required=True)
    p.set_defaults(fn=_cmd_galois)

    p = sub.add_parser("tower", help="verify the degree and group laws on a tower")
    common(p)
    p.add_argument("--sets", required=True, help="'base;mid;top' element sets")
    p.set_defaults(fn=_cmd_tower)

    p = sub.add_parser("verify", help="run the full law suite on a structure")
    common(p)
    p.add_argument("--trials", type=_int_at_least(0), default=200)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run_command(argv: list[str], out=None) -> int:
    """Dispatch one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args, out)
    except _HelpRequested as exc:
        print(exc.args[0], file=out, end="")
        return EXIT_OK
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (_UsageError, GalbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
