"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families as fam  # noqa: E402
import run  # noqa: E402
from check import Checker  # noqa: E402
from tracer import Tracer, galbench_modules  # noqa: E402
from workloads import (DUALITY_JOBS, ENUM_CAP, NEW_VARIANTS, QUERY_POOL, WORKLOADS,  # noqa: E402
                       Plan, write_files)


def _plan(workload, seed, workdir):
    from galbench.corpus import CORPUS
    return Plan(workload, seed, workdir, {n: e.source for n, e in CORPUS.items()})


def _materialize(workload, seed, workdir):
    plan = _plan(workload, seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = {index: plan.round(index) for index in ("W", 0, 1, "T")}
    for reqs in rounds.values():
        write_files(plan, reqs)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    argvs = {index: [r.argv for r in reqs] for index, reqs in rounds.items()}
    return files, json.dumps(argvs).replace(str(workdir), "<dir>")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    files_a, argv_a = _materialize(workload, 7, tmp_path / "a")
    files_b, argv_b = _materialize(workload, 7, tmp_path / "b")
    files_c, argv_c = _materialize(workload, 8, tmp_path / "c")
    assert files_a == files_b and argv_a == argv_b
    assert (files_a, argv_a) != (files_c, argv_c)


def test_families_have_their_documented_groups():
    variants = {b().name: b for b in QUERY_POOL + NEW_VARIANTS}
    variants.update({b().name: b for _, b in DUALITY_JOBS})
    documented = {"Petersen": 120, "Rook4": 1152, "Q4": 384, "Shrikhande": 192,
                  "Clebsch": 1920, "D8": 16, "GF9": 2, "GF8": 3, "GF11": 1}
    for name, build in variants.items():
        b = build()
        assert all(b.is_automorphism(g) for g in b.gens), name
        assert documented.get(name, b.order) == b.order, name
        if b.order <= ENUM_CAP:
            assert len(fam.close(b.gens, b.size)) == b.order, name


def _respond(argv):
    from galbench.cli import run_command
    from workloads import Request
    code, out, err, _ = run.call(run_command, Request("x", tuple(argv), ""))
    return code, out, err


def test_blocks_join_whole_rounds_and_keep_every_request():
    short, long_ = run.BLOCK_S / 4, run.BLOCK_S
    per_round = [[short] * 2, [short] * 2, [long_], [short]]
    got = run.blocks(per_round)
    assert got == [[short] * 4, [long_, short]]
    assert run.blocks([[short]]) == [[short]]


def test_checker_accepts_documented_answers_and_flags_corruption(tmp_path):
    plan = _plan("duality_jobs", 1, tmp_path)
    reqs = {r.argv[:2]: r for r in plan.round(0) if r.struct.startswith("corpus:")}
    ex_rs = reqs[("galois", "corpus:EX_RS")]
    gf16 = reqs[("galois", "corpus:GF16")]

    checker = Checker(plan)
    code, out, err = _respond(ex_rs.argv)
    payload = json.loads(out)
    assert code == 1 and len(payload["subgroups"]) == 5 and len(payload["intermediates"]) == 2
    assert checker.record(ex_rs, code, out, err)
    code, out, err = _respond(gf16.argv)
    assert code == 0 and len(json.loads(out)["pairs"]) == 3
    assert checker.record(gf16, code, out, err)

    # a repeated request must get the same bytes again
    assert not checker.record(gf16, code, out + " ", err)

    fresh = Checker(plan)  # no earlier responses: the reference answers decide
    corrupted = out.replace('"group_order": 4', '"group_order": 5')
    assert corrupted != out
    assert not fresh.record(gf16, code, corrupted, err)
    assert not fresh.record(gf16, 1, out, err)
    assert not fresh.record(ex_rs, 0, "", "")
    assert fresh.failed == 3 and fresh.attempted == 3


def test_checker_flags_wrong_query_answers(tmp_path):
    plan = _plan("query_stream", 1, tmp_path)
    documented = plan.round(0)[-3:]
    write_files(plan, documented)
    answers = [_respond(r.argv) for r in documented]
    assert [json.loads(a[1]) for a in answers[1:]] == [{"dcl": ["a", "b", "c", "d"]},
                                                       {"degree": 4}]
    assert json.loads(answers[0][1])["order"] == 8
    for req, (code, out, err) in zip(documented, answers):
        assert Checker(plan).record(req, code, out, err)
        wrong = out.replace("8", "9").replace("4", "2").replace('"d"', '"e"')
        assert not Checker(plan).record(req, code, wrong, err)


def _wrapped():
    from galbench.perm import PermGroup
    found = [f"{m.__name__}.{k}" for m in galbench_modules() for k, v in vars(m).items()
             if getattr(v, "__wrapped_by_tracer__", False)]
    if getattr(PermGroup.elements, "__wrapped_by_tracer__", False):
        found.append("PermGroup.elements")
    return found


def test_tracer_wraps_every_namespace_and_leaves_nothing_installed():
    import galbench
    from galbench import aut, galois, perm, suite
    before = {(m.__name__, k): v for m in galbench_modules() for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        assert aut.stabilizer_pointwise is galois.stabilizer_pointwise \
            is suite.stabilizer_pointwise is perm.stabilizer_pointwise \
            is galbench.stabilizer_pointwise
        assert getattr(aut.stabilizer_pointwise, "__wrapped_by_tracer__", False)
        assert "PermGroup.elements" in _wrapped()
        code, out, _ = _respond(["galois", "corpus:GF16", "--base", "0,1", "--top", "ALL",
                                 "--format", "json"])
        assert code == 0
    finally:
        tracer.uninstall()
    assert _wrapped() == []
    after = {(m.__name__, k): v for m in galbench_modules() for k, v in vars(m).items()}
    assert after == before
    metrics = tracer.metrics()
    assert metrics["perm.all_subgroups_ms"] > 0 and metrics["perm.subgroups_found"] == 3
    assert metrics["aut.relative_restriction_calls"] > 0
    assert tracer.spans[0][0] == "cli.run_command" and tracer.spans[0][3] == -1
    assert tracer.requests == 1 and {span[4] for span in tracer.spans} == {1}
