"""Each answer check accepts the program's answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q

The right answers come from running the query through ``puiseux.cli``;
each test then damages one fact of the answer and expects the check to
name it.
"""

import copy
import json
import sys
from types import SimpleNamespace
from fractions import Fraction as F
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from reference import Model, factorization_table, IntMonoid, prime_reciprocal_factorizations  # noqa: E402
from workloads import Batch, Query  # noqa: E402

FG = {"variant": "finite", "generators": ["6", "9", "20"]}
FG_RATIONAL = {"variant": "finite", "generators": ["7/2", "5", "13/3"]}
PRS_BOUNDED = {"variant": "prime_reciprocal_shift", "prime_bound": 5}
CANTOR = {"variant": "cantor_shift", "depth": 3}
PRS_ALL = {"variant": "prime_reciprocal_shift", "prime_bound": "all"}
UFP = {"variant": "unit_fraction_powers", "base": 6}
HARMONIC = {
    "variant": "increasing",
    "prefix": [],
    "tail": {"form": "harmonic", "limit": "2", "coeff": "1"},
    "bounded": True,
    "limit": "2",
}
GEOMETRIC = {"variant": "geometric", "ratio": "5/3"}
DENSE = {"variant": "dense_atoms", "count": 40, "seed": "low_discrepancy"}


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def answer(cli, spec, argv, check, *args):
    """(check, exit code, payload) for one query, after checking that the
    program's own answer passes."""
    model = Model(spec)
    bound = partial(check, model, *args)
    code, out, err, _ = run.call(cli, Query(argv, json.dumps(spec), bound, ""))
    payload = json.loads(out) if out.strip() else None
    assert bound(code, payload) is None, (argv, code, payload)
    return bound, code, payload


def damaged(payload, **changes):
    out = copy.deepcopy(payload)
    out.update(changes)
    return out


# -- the independent references themselves


def test_residue_table_matches_known_values():
    nm = IntMonoid([6, 9, 20])
    assert nm.frobenius == 43 and nm.minimal_generators() == [6, 9, 20]
    assert IntMonoid([3, 5, 6, 7]).minimal_generators() == [3, 5, 7]
    assert nm.gaps_in(0, 43) == 22


def test_factorization_table_small_cases():
    assert factorization_table([2, 3], 12) == (3, {4, 5, 6})
    assert factorization_table([6, 9, 20], 60) == (5, {3, 7, 8, 9, 10})


def test_prime_reciprocal_reference():
    # 8 = 1 + 2*(1 + 1/2) + 3*(1 + 1/3), among others
    sols = prime_reciprocal_factorizations(F(8), None)
    assert (1, (2, 2, 3, 3, 3)) in sols and (8, ()) in sols and len(sols) == 8


# -- checks reject wrong answers


def test_frobenius_off_by_one(cli):
    check, code, payload = answer(cli, FG_RATIONAL, ["frobenius"], checks.check_frobenius)
    wrong = damaged(payload, frobenius=str(int(payload["frobenius"]) + 1))
    assert "frobenius" in check(code, wrong)
    assert "minimal_generators" in check(code, damaged(payload, minimal_generators=payload["minimal_generators"][1:]))
    assert "scale" in check(code, damaged(payload, scale="1"))


def test_conductor_sigma_and_kind(cli):
    check, code, payload = answer(cli, FG, ["conductor"], checks.check_conductor)
    assert check(code, damaged(payload, sigma="42"))
    assert check(code, damaged(payload, kind="empty"))
    check, code, payload = answer(cli, HARMONIC, ["conductor"], checks.check_conductor)
    assert payload["kind"] == "empty"
    assert check(code, damaged(payload, kind="tail", sigma="3", min="3"))


def test_conductor_of_bounded_prime_reciprocal(cli):
    # the rule table leaves it undecided, which passes; a definite answer
    # must match the residue table of 1, 3/2, 4/3, 6/5 (scale 1/30)
    model = Model(PRS_BOUNDED)
    check, code, payload = answer(cli, PRS_BOUNDED, ["conductor"], checks.check_conductor)
    assert code == 2
    scale, nm = model.canonical()
    sigma, low = scale * nm.frobenius, scale * (nm.frobenius + 1)
    right = {"kind": "tail", "sigma": str(sigma), "min": str(low)}
    assert check(0, right) is None
    assert "tail" in check(0, damaged(right, sigma=str(sigma - scale)))
    assert "kind" in check(0, {"kind": "empty"})


def test_factorize_dropped_factorization(cli):
    check, code, payload = answer(cli, FG, ["factorize", "60"], checks.check_factorize, F(60))
    items = payload["factorizations"][1:]
    assert "count" in check(code, damaged(payload, factorizations=items, count=len(items)))
    assert check(code, damaged(payload, count=payload["count"] + 1))
    check, code, payload = answer(cli, PRS_ALL, ["factorize", "8"], checks.check_factorize, F(8))
    items = payload["factorizations"][:-1]
    assert "count" in check(code, damaged(payload, factorizations=items, count=len(items)))
    bad = copy.deepcopy(payload)
    bad["factorizations"][0]["parts"][0][1] += 1
    assert "sum" in check(code, bad)


def test_lengths_wrong_set(cli):
    check, code, payload = answer(cli, FG, ["lengths", "60"], checks.check_lengths, F(60))
    assert check(code, damaged(payload, lengths=payload["lengths"][:-1]))
    assert check(2, damaged(payload, complete=False))


def test_member_wrong_status_and_certificate(cli):
    check, code, payload = answer(cli, FG, ["member", "44"], checks.check_member, F(44), "in", False)
    assert check(code, {"status": "out"})
    assert "not a generator" in check(code, damaged(payload, certificate=[["22", 2]]))
    assert "sums to" in check(code, damaged(payload, certificate=[["6", 1]]))
    check, code, payload = answer(cli, FG, ["member", "43"], checks.check_member, F(43), "out", False)
    assert check(code, {"status": "in", "certificate": [["43", 1]]})
    assert "undecided" in check(2, {"status": "unknown"})


def test_member_undecided_only_where_allowed(cli):
    x = F(5, 2)  # 1 + 3/2
    check = partial(checks.check_member, Model(HARMONIC), x, "in", True)
    assert check(2, {"status": "unknown", "reason": {"kind": "generator_truncation"}}) is None
    assert check(2, None) is None  # undecided through a budget error, nothing printed
    assert check(0, {"status": "out"})
    assert "sums to" in check(0, {"status": "in", "certificate": [["1", 1]]})


def test_classify_wrong_class(cli):
    check, code, payload = answer(cli, UFP, ["classify"], checks.check_classify)
    assert "class" in check(code, damaged(payload, **{"class": "nowhere_dense"}))
    check, code, payload = answer(cli, FG_RATIONAL, ["classify"], checks.check_classify)
    assert check(code, damaged(payload, **{"class": "dense"}))
    assert "step" in check(code, damaged(payload, witness={"kind": "lattice", "step": "1"}))
    check, code, payload = answer(cli, PRS_ALL, ["classify"], checks.check_classify)
    assert code == 2  # undecided by the rule table, and allowed to be
    assert check(0, {"class": "dense"})


def test_gp_and_closure(cli):
    check, code, payload = answer(cli, GEOMETRIC, ["gp"], checks.check_gp)
    bad = copy.deepcopy(payload)
    bad["density"]["witness"] = ["1/5"] + bad["density"]["witness"][1:]
    assert check(code, bad)
    bad["density"]["kind"] = "nowhere_dense_finitely_generated"
    assert check(code, bad)
    check, code, payload = answer(cli, CANTOR, ["gp"], checks.check_gp)
    bad = copy.deepcopy(payload)
    bad["group"] = {"kind": "cyclic", "step": "1/9"}
    assert check(code, bad)
    check, code, payload = answer(cli, UFP, ["closure"], checks.check_closure)
    gens = payload["generators"]
    assert check(code, damaged(payload, generators=gens[:3] + ["1/5"] + gens[4:]))
    check, code, payload = answer(cli, DENSE, ["closure"], checks.check_closure)
    assert check(code, damaged(payload, generators=payload["generators"][1:]))


def test_atoms_dropped_atom(cli):
    for spec in (FG_RATIONAL, HARMONIC, CANTOR, GEOMETRIC):
        check, code, payload = answer(cli, spec, ["atoms"], checks.check_atoms)
        assert "atoms" in check(code, damaged(payload, atoms=payload["atoms"][1:]))
    check, code, payload = answer(cli, UFP, ["atoms"], checks.check_atoms)
    assert check(code, damaged(payload, kind="atomic"))


def test_probe_wrong_count_gap_and_verdict(cli):
    args = (F(0), F(60), F(1, 2), 24)
    argv = ["probe", "--interval", "0", "60", "--eps", "1/2"]
    check, code, payload = answer(cli, FG, argv, checks.check_probe, *args)
    assert payload["result"] == "gap_witness"
    assert "elements_found" in check(code, damaged(payload, elements_found=payload["elements_found"] - 1))
    assert "gap" in check(code, damaged(payload, gap=["43", "44"]))
    assert "result" in check(code, damaged(payload, result="eps_dense"))
    args = (F(1), F(3), F(1, 10), 9)
    argv = ["probe", "--interval", "1", "3", "--eps", "1/10", "--depth", "9"]
    check, code, payload = answer(cli, PRS_ALL, argv, checks.check_probe, *args)
    assert check(code, damaged(payload, elements_found=payload["elements_found"] + 1))
    assert check(0, damaged(payload, result="gap_witness"))
    args = (F(0), F(5), F(1, 100), 4)
    argv = ["probe", "--interval", "0", "5", "--eps", "1/100", "--depth", "4"]
    check, code, payload = answer(cli, UFP, argv, checks.check_probe, *args)
    assert check(code, damaged(payload, elements_found=payload["elements_found"] + 1))


def test_isolate_wrong_pair(cli):
    check, code, payload = answer(cli, FG, ["isolate", "--T", "50"], checks.check_isolate, F(50))
    pairs = payload["pairs"]
    assert check(code, damaged(payload, pairs=pairs[:-1]))
    assert check(code, damaged(payload, pairs=[[pairs[0][0], "5"]] + pairs[1:]))
    check, code, payload = answer(cli, HARMONIC, ["isolate", "--T", "19/10"], checks.check_isolate, F(19, 10))
    assert check(code, damaged(payload, pairs=payload["pairs"][1:]))


def test_exit_codes(cli):
    check = partial(checks.check_frobenius, Model(FG))
    assert "exit code 1" in check(1, None)
    assert "undecided" in check(2, None)


def test_failed_queries_are_counted(cli):
    # exit 2 passes for a harmonic member only with an answer or a budget
    # report: a usage error, an input error or a crash is a failed query
    check = partial(checks.check_member, Model(HARMONIC), F(5, 2), "in", True)
    spec = json.dumps(HARMONIC)
    tally = run.Tally()
    tally.run(cli, Query(["member", "5/2"], spec, check, "member"))
    assert tally.failed == 0
    tally.run(cli, Query(["member", "5/2", "--no-such-flag"], spec, check, "usage"))
    tally.run(cli, Query(["member", "5/0"], spec, check, "input"))
    tally.run(SimpleNamespace(main=lambda argv: 1 // 0), Query(["member", "5/2"], spec, check, "crash"))
    tally.run(SimpleNamespace(main=lambda argv: 2), Query(["member", "5/2"], spec, check, "silent"))
    assert tally.attempted == 5 and tally.failed == 4
    assert [f["kind"] for f in tally.failures] == ["usage", "input", "crash", "silent"]


def test_seed_fixes_the_queries():
    def listing(seed):
        batch = Batch("infinite-oneshot", seed)
        return [(q.spec, q.argv) for r in range(3) for q in batch.round(r)]

    assert listing(5) == listing(5)
    assert listing(5) != listing(6)
    assert len(set(map(str, listing(5)))) == len(listing(5))  # no query repeats


def test_probes_take_the_route_they_stand_for():
    from workloads import LATTICE_CAP, lattice_bits

    batch = Batch("density-closure", 5)
    for r in range(4):
        for q in batch.round(r):
            if not q.kind.startswith("probe/"):
                continue
            model, lo, hi, eps, depth = q.check.args
            bits = lattice_bits(model, hi, depth)
            if q.kind in ("probe/prs-all", "probe/dense", "probe/harmonic"):
                assert bits > LATTICE_CAP, q.argv
            else:
                assert bits <= 2_000_000, q.argv
