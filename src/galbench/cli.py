"""Command-line interface.

Commands operate on a structure argument of the form ``corpus:<name>`` (one of
the embedded structures) or a path to a structure file.  Element sets are
written as comma-separated names, with the empty string for the empty set and
the literal ``ALL`` for the whole universe; sets of tuples separate tuples
with semicolons (``"a,b;c,d"`` is the two-pair set).

A file whose text equals the text of the last file loaded gets the same
`Structure`, with the automorphism groups it has cached, so a file asked
about twice in a row is parsed and searched once.  The one kept structure
is keyed on the text, never the path, and replaced by the next text that
differs; a text that fails to load is not kept.

Every command takes ``--format text|json`` (default text).  ``--max-len N``
(default 3, the bound of generator, code and witness searches) is taken by
degree, splitting, generator, code, codes-report, galois, tower and verify;
``--seed N`` (default 0) by verify alone.

Exit codes: 0 success (including a passing verification), 1 a verification
ran and failed, 2 usage or input error, a cap, or a bounded search that ended
without an answer, 3 internal error (a failed internal consistency check,
which means a bug; the message on stderr starts with ``internal error:``).
Every command maps a library error the same way, `verify` included: an error
inside any of its laws ends it as it would end the command that owns the
computation.
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
                     degree_of_extension, find_code, find_generator, fmt_group,
                     fmt_set, fmt_tuple, is_irreducible_formula,
                     is_normal_extension, is_splitting_extension,
                     multisymmetric_code, orbit_over,
                     verify_galois_correspondence, verify_tower)
from .structure import Structure, is_element_name, load_structure
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
    try:
        if not path.is_file():
            raise _UsageError(f"no such structure: {spec!r} "
                              f"(use corpus:<name> or a file path)")
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"structure file {spec!r} is not valid UTF-8: {exc.reason} "
                          f"at byte {exc.start}") from None
    except OSError as exc:
        raise _UsageError(f"cannot read structure file {spec!r}: "
                          f"{exc.strerror or exc}") from None
    return _structure_of(text)


@functools.lru_cache(maxsize=1)
def _structure_of(text: str) -> Structure:
    """The structure a file's text describes, kept for the next request:
    one entry, keyed on the text and never on the path, replaced by the next
    text that differs.  A text that fails to load is not kept."""
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


# -- command handlers -----------------------------------------------------------
#
# Each handler gets the parsed arguments and the loaded structure (None for
# `corpus`) and returns its response as (text, JSON payload, exit code);
# `run_command` writes the one the format asks for.


def _cmd_corpus(args, M):
    if args.action != "list":
        raise _UsageError(f"unknown corpus action {args.action!r}")
    rows = [{"name": name, "notes": CORPUS[name].notes} for name in corpus_names()]
    text = "\n".join(f"{row['name']:8s} {row['notes']}" for row in rows)
    return text, {"corpus": rows}, EXIT_OK


def _cmd_parse(args, M):
    ast = fm.parse_formula(args.formula, M.signature)
    canonical = fm.format_formula(ast)
    return canonical, {"formula": canonical,
                       "free_variables": list(fm.free_variables(ast, M.names)),
                       "parameters": list(fm.parameters(ast, M.names))}, EXIT_OK


def _cmd_eval(args, M):
    ast = fm.parse_formula(args.formula, M.signature)
    env = {}
    if args.env:
        for item in args.env.split(","):
            if "=" not in item:
                raise _UsageError(f"bad assignment entry {item!r}; use var=element")
            var, name = (part.strip() for part in item.split("=", 1))
            if not is_element_name(var):
                raise _UsageError(
                    f"bad assignment entry {item!r}; {var!r} is not a variable name")
            if var in env:
                raise _UsageError(
                    f"bad assignment entry {item!r}; variable {var} is assigned twice")
            env[var] = M.resolve(name)
    value = fm.evaluate(M, ast, env)
    return "true" if value else "false", {"value": value}, EXIT_OK


def _cmd_aut(args, M):
    if args.fixing is not None:
        G = automorphism_group_fixing(M, _parse_set(M, args.fixing))
    else:
        G = automorphism_group(M)
    gens = list(G.generator_strings()) or ["()"]
    text = (f"universe: {' '.join(M.labels)}\n"
            f"order {G.order}\n"
            f"generators: {', '.join(gens)}")
    return text, {"universe": list(M.labels), "order": G.order,
                  "generators": gens}, EXIT_OK


def _cmd_closure(args, M):
    A = _parse_set(M, args.set)
    result = dcl(M, A) if args.command == "dcl" else acl(M, A)
    names = M.render_set(result)
    return fmt_set(names), {args.command: list(names)}, EXIT_OK


def _cmd_orbit(args, M):
    orb = orbit_over(M, _parse_tuple(M, args.tuple), _parse_set(M, args.base))
    text = f"degree {len(orb)}\n" + "\n".join(fmt_tuple(M, t) for t in orb)
    return text, {"degree": len(orb),
                  "orbit": [list(M.render_tuple(t)) for t in orb]}, EXIT_OK


def _cmd_degree(args, M):
    deg = degree_of_extension(M, _parse_set(M, args.base), _parse_set(M, args.top),
                              max_len=args.max_len)
    return str(deg), {"degree": deg}, EXIT_OK


def _cmd_irr_check(args, M):
    ast = fm.parse_formula(args.formula, M.signature)
    ok = is_irreducible_formula(M, ast, _parse_tuple(M, args.tuple),
                                _parse_set(M, args.base))
    return "true" if ok else "false", {"irreducible": ok}, EXIT_OK


def _cmd_normal(args, M):
    ok = is_normal_extension(M, _parse_set(M, args.base), _parse_set(M, args.top))
    return "true" if ok else "false", {"normal": ok}, EXIT_OK


def _cmd_splitting(args, M):
    ok, witness = is_splitting_extension(M, _parse_set(M, args.base),
                                         _parse_set(M, args.top), max_len=args.max_len)
    text = f"true, witness {fmt_tuple(M, witness)}" if ok else "false"
    return text, {"splitting": ok,
                  "witness": list(M.render_tuple(witness)) if ok else None}, EXIT_OK


def _cmd_code(args, M):
    code = find_code(M, _parse_tuple_set(M, args.tuples), max_len=args.max_len)
    if code is None:
        return (f"none (no code of length <= {args.max_len})",
                {"code": None, "max_len": args.max_len}, EXIT_OK)
    return (fmt_tuple(M, code),
            {"code": list(M.render_tuple(code)), "max_len": args.max_len}, EXIT_OK)


def _cmd_codes_report(args, M):
    report = codes_finite_sets(M, max_set_size=args.max_set_size, max_len=args.max_len)
    lines = [f"sets checked (orbit representatives): {report.sets_checked}"]
    lines.extend(f"no code: {fmt_set(names)}" for names in report.failures)
    lines.append("verdict: codes (bounded)" if report.verdict else "verdict: fail")
    return "\n".join(lines), report.to_json_dict(), EXIT_OK


def _cmd_msym_code(args, M):
    code = multisymmetric_code(M, _parse_tuple_set(M, args.tuples))
    return fmt_tuple(M, code), {"code": list(M.render_tuple(code))}, EXIT_OK


def _cmd_generator(args, M):
    gen = find_generator(M, _parse_set(M, args.base), _parse_set(M, args.top),
                         max_len=args.max_len)
    if gen is None:
        return (f"none (no generator of length <= {args.max_len})",
                {"generator": None, "max_len": args.max_len}, EXIT_OK)
    return fmt_tuple(M, gen), {"generator": list(M.render_tuple(gen))}, EXIT_OK


def _cmd_galois(args, M):
    report = verify_galois_correspondence(M, _parse_set(M, args.base),
                                          _parse_set(M, args.top),
                                          max_len=args.max_len)
    lines = [
        f"structure {report.structure}",
        f"base: {fmt_set(report.base)}",
        f"top: {fmt_set(report.top)}",
        f"group order: {report.group_order}",
        f"subgroups: {report.subgroup_count}",
        f"intermediates: {report.intermediate_count}",
    ]
    for gens, fixed in report.pairs:
        lines.append(f"  {fmt_group(gens)}  ->  {fmt_set(fixed)}")
    for f in report.failures:
        lines.append(f"failure [{f.kind}]: {f.subject} (order {f.subject_order}) "
                     f"closes to {f.closure} (order {f.closure_order})")
    payload = report.to_json_dict()
    lines.append(f"coding: {payload['coding']}")
    for item in report.coding_failures:
        lines.append(f"  no code for {item}")
    lines.append(f"verdict: {payload['verdict']}")
    return "\n".join(lines), payload, EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED


def _cmd_tower(args, M):
    parts = args.sets.split(";")
    if len(parts) != 3:
        raise _UsageError("--sets wants three semicolon-separated element sets")
    A, B, C = (_parse_set(M, part) for part in parts)
    report = verify_tower(M, A, B, C, max_len=args.max_len)
    lines = [
        f"structure {M.name}",
        f"tower: {fmt_set(report.base)} <= {fmt_set(report.mid)} <= {fmt_set(report.top)}",
    ]
    for label, by_pair in (("degrees", report.degrees), ("orders", report.orders)):
        lines.append(f"{label}: " + ", ".join(f"{key.replace('_over_', '/')} {value}"
                                              for key, value in by_pair.items()))
    for c in report.checks:
        status = "FAIL" if c.status == "fail" else c.status
        lines.append(f"  [{status}] {c.name}: {c.detail}")
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    return ("\n".join(lines), report.to_json_dict(),
            EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED)


def _cmd_verify(args, M):
    report = run_full_verification(M, trials=args.trials, seed=args.seed,
                                   max_len=args.max_len)
    lines = []
    for law in report.laws:
        status = "PASS" if law.passed else "FAIL"
        lines.append(f"{status} {law.name} ({law.trials} instances)")
        lines.extend(f"    {v}" for v in law.violations[:5])
    lines.append(f"verdict: {'pass' if report.verdict else 'fail'}")
    return ("\n".join(lines), report.to_json_dict(),
            EXIT_OK if report.verdict else EXIT_VERIFICATION_FAILED)


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
    it, each call gets a fresh namespace.  Each command declares only the
    options its handler reads."""
    parser = _ArgumentParser(prog="galbench", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *, structure=True, max_len=False):
        p = sub.add_parser(name, help=help)
        if structure:
            p.add_argument("structure", help="corpus:<name> or a structure file path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if max_len:
            p.add_argument("--max-len", dest="max_len", type=_int_at_least(0),
                           default=DEFAULT_MAX_LEN)
        p.set_defaults(fn=fn)
        return p

    def extension(name, fn, help, *, max_len=False):
        p = command(name, fn, help, max_len=max_len)
        p.add_argument("--base", default="")
        p.add_argument("--top", required=True)

    p = command("corpus", _cmd_corpus, "embedded corpus operations", structure=False)
    p.add_argument("action", help="'list'")

    p = command("parse", _cmd_parse, "parse a formula and print its canonical form")
    p.add_argument("formula")

    p = command("eval", _cmd_eval, "evaluate a formula")
    p.add_argument("formula")
    p.add_argument("--env", default="", help="comma-separated var=element pairs")

    p = command("aut", _cmd_aut, "automorphism group")
    p.add_argument("--fixing", default=None, help="element set fixed pointwise")

    for name, help in (("dcl", "definable closure"), ("acl", "algebraic closure")):
        p = command(name, _cmd_closure, help)
        p.add_argument("--set", required=True)

    p = command("orbit", _cmd_orbit, "orbit and degree of a tuple over a base set")
    p.add_argument("--tuple", required=True)
    p.add_argument("--base", default="")

    extension("degree", _cmd_degree, "degree of an extension", max_len=True)

    p = command("irr-check", _cmd_irr_check,
                "does the formula isolate exactly the tuple's orbit?")
    p.add_argument("formula")
    p.add_argument("--tuple", required=True)
    p.add_argument("--base", default="")

    extension("normal", _cmd_normal, "is the extension normal?")
    extension("splitting", _cmd_splitting, "is the extension a splitting extension?",
              max_len=True)
    extension("generator", _cmd_generator, "shortest generating tuple of an extension",
              max_len=True)

    p = command("code", _cmd_code, "code of a finite set of tuples", max_len=True)
    p.add_argument("--tuples", required=True,
                   help="semicolon-separated tuples, e.g. 'a;b' or 'a,b;c,d'")

    p = command("codes-report", _cmd_codes_report,
                "do all small element sets have codes?", max_len=True)
    p.add_argument("--max-set-size", dest="max_set_size", type=_int_at_least(1),
                   default=2)

    p = command("msym-code", _cmd_msym_code,
                "coefficient code of tuples over a field encoding")
    p.add_argument("--tuples", required=True)

    extension("galois", _cmd_galois, "verify the subgroup/intermediate-set duality",
              max_len=True)

    p = command("tower", _cmd_tower, "verify the degree and group laws on a tower",
                max_len=True)
    p.add_argument("--sets", required=True, help="'base;mid;top' element sets")

    p = command("verify", _cmd_verify, "run the full law suite on a structure",
                max_len=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(0), default=200)

    return parser


def run_command(argv: list[str], out=None) -> int:
    """Dispatch one command line; returns the exit code.

    The structure is loaded here, once, for every command but `corpus`, and
    the handler's response is written here in the requested format."""
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        M = None if args.command == "corpus" else _load_target(args.structure)
        text, payload, code = args.fn(args, M)
    except _HelpRequested as exc:
        print(exc.args[0], file=out, end="")
        return EXIT_OK
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (_UsageError, GalbenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload, indent=2) if args.format == "json" else text, file=out)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
