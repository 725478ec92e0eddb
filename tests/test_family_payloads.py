"""Golden CLI payloads: one spec per catalog row, every query subcommand.

Each case runs ``puiseux.cli.main`` in-process with ``--output json`` and
compares stdout, stderr and the exit code byte for byte with
``fixtures/family_payloads.json``.  The fixture pins what every family
answers, so a refactor of where family knowledge lives cannot move a
verdict, a rule id or a payload unnoticed.

To re-record the fixture after a deliberate change of output, run
``PYTHONPATH=src python tests/test_family_payloads.py --record`` and
review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from puiseux.cli import main
from puiseux.families import (
    AffineTail,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    PrimeHarmonicTail,
    PrimeReciprocalShift,
    UnitFractionPowers,
    dumps_spec,
)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "family_payloads.json"

SPECS = {
    "finite-6-9-20": FiniteGenerators([6, 9, 20]),
    "finite-fractions": FiniteGenerators([Fraction(1, 2), Fraction(1, 3), Fraction(5, 7)]),
    "geometric-3": Geometric(3),
    "geometric-3/2": Geometric(Fraction(3, 2)),
    "geometric-1/2": Geometric(Fraction(1, 2)),
    "geometric-2/3": Geometric(Fraction(2, 3)),
    "unit-fraction-powers-3": UnitFractionPowers(3),
    "increasing-affine": IncreasingSequence(AffineTail(Fraction(5, 2), Fraction(1, 3))),
    "increasing-harmonic": IncreasingSequence(HarmonicTail(3, 1)),
    "increasing-prime-harmonic": IncreasingSequence(PrimeHarmonicTail(3, 1)),
    "prime-reciprocal-5": PrimeReciprocalShift(5),
    "prime-reciprocal-all": PrimeReciprocalShift(None),
    "cantor-2": CantorShift(2),
    "dense-atoms-20": DenseAtoms(20),
}

COMMANDS = {
    "classify": ["classify"],
    "atoms": ["atoms", "--limit", "8"],
    "member": ["member", "7/2"],
    "factorize": ["factorize", "7/2"],
    "lengths": ["lengths", "7/2"],
    "frobenius": ["frobenius"],
    "closure": ["closure"],
    "gp": ["gp"],
    "conductor": ["conductor"],
    "probe": ["probe", "--interval", "2", "3", "--eps", "1/4", "--depth", "8"],
    "isolate": ["isolate", "--T", "3"],
}

CASES = [(s, c) for s in SPECS for c in COMMANDS]


def run_case(spec_name: str, command: str, directory: Path) -> dict:
    path = directory / f"{spec_name.replace('/', '_')}.json"
    path.write_text(dumps_spec(SPECS[spec_name]))
    cmd = COMMANDS[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([cmd[0], str(path), *cmd[1:], "--output", "json"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{s} {c}" for s, c in CASES)


@pytest.mark.parametrize("spec_name,command", CASES, ids=[f"{s}-{c}" for s, c in CASES])
def test_payload_unchanged(spec_name, command, golden, tmp_path):
    assert run_case(spec_name, command, tmp_path) == golden[f"{spec_name} {command}"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {f"{s} {c}": run_case(s, c, Path(tmp)) for s, c in CASES}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(record)} cases in {FIXTURE}")
