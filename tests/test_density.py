import time
from fractions import Fraction as F

import pytest

from puiseux.density import (
    DenseWitness,
    DensityClass,
    IsolationWitness,
    LatticeWitness,
    ProbeResult,
    classify_density,
    eventual_window_check,
    point_set_report,
    probe_density,
    right_isolation,
)
from puiseux.families import (
    AffineTail,
    CantorShift,
    DenseAtoms,
    FiniteGenerators,
    Geometric,
    HarmonicTail,
    IncreasingSequence,
    PrimeReciprocalShift,
    UnitFractionPowers,
    canonical_fg,
)


def test_classify_dense_families():
    v = classify_density(UnitFractionPowers(2))
    assert v.klass == DensityClass.DENSE and "D1" in v.rule
    assert isinstance(v.witness, DenseWitness)
    ws = v.witness.sample
    assert all(a > b for a, b in zip(ws, ws[1:])) and ws[-1] < F(1, 100)
    v = classify_density(Geometric(F(2, 3)))
    assert v.klass == DensityClass.DENSE
    v = classify_density(DenseAtoms(100))
    assert v.klass == DensityClass.DENSE
    ws = v.witness.sample
    assert all(a > b for a, b in zip(ws, ws[1:]))
    assert v.witness.law


def test_classify_nowhere_dense_families():
    v = classify_density(FiniteGenerators([6, 9, 20]))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D2" in v.rule
    assert isinstance(v.witness, LatticeWitness) and v.witness.step == 1
    v = classify_density(IncreasingSequence(HarmonicTail(2, F(1, 2))))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D3" in v.rule
    assert isinstance(v.witness, IsolationWitness)
    assert all(r > 0 for _, r in v.witness.pairs)
    affine = IncreasingSequence(AffineTail(2, 3))
    v = classify_density(affine)
    assert v.klass == DensityClass.NOWHERE_DENSE and "D2" in v.rule
    assert v.witness == LatticeWitness(canonical_fg(affine).scale)
    v = classify_density(Geometric(41))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D2" in v.rule
    assert v.witness == LatticeWitness(F(1))
    v = classify_density(Geometric(F(5, 2)))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D3" in v.rule
    v = classify_density(PrimeReciprocalShift(60))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D2" in v.rule


def test_classify_cantor_annotated():
    v = classify_density(CantorShift(5))
    assert v.klass == DensityClass.NOWHERE_DENSE and "D4" in v.rule
    assert v.note is not None and "eventually dense" in v.note


def test_classify_prime_reciprocal_unknown():
    v = classify_density(PrimeReciprocalShift(None))
    assert v.klass == DensityClass.UNKNOWN and "D5" in v.rule
    assert v.note is not None


def test_probe_dense_example():
    t0 = time.time()
    report = probe_density(UnitFractionPowers(2), 0, 10, F(1, 1000), depth=14)
    assert report.result == ProbeResult.EPS_DENSE
    assert time.time() - t0 < 5
    assert report.elements_found == 10 * 2**14 + 1


def test_probe_gap_example():
    report = probe_density(FiniteGenerators([2, 3]), 0, 1, F(1, 2))
    assert report.result == ProbeResult.GAP_WITNESS
    assert report.gap == (F(0), F(1))
    assert report.complete


def test_probe_cantor_window():
    report = probe_density(CantorShift(6), 2, 4, F(1, 10))
    assert report.result == ProbeResult.EPS_DENSE
    report = probe_density(CantorShift(6), 2, 4, F(1, 3**6))
    assert report.result == ProbeResult.EPS_DENSE  # the window is a full grid


def test_probe_inconclusive_when_truncation_cannot_decide():
    # shallow truncation of a dense family: gaps exist but are not assertable
    report = probe_density(UnitFractionPowers(2), 0, 1, F(1, 100), depth=2)
    assert report.result == ProbeResult.INCONCLUSIVE
    assert not report.complete


def test_probe_validation():
    with pytest.raises(ValueError):
        probe_density(FiniteGenerators([2, 3]), 1, 1, F(1, 2))
    with pytest.raises(ValueError):
        probe_density(FiniteGenerators([2, 3]), 0, 1, F(0))
    with pytest.raises(ValueError):
        probe_density(FiniteGenerators([2, 3]), 0, 1, F(1, 2), depth=0)


def test_probe_fg_lattice_gap_structure():
    # elements sit on scale * Z: a fine probe on a unit window must either
    # witness a gap or see at most (hi-lo)/scale + 1 elements
    for gens in [[2, 3], [F(1, 2), F(1, 3)], [F(3, 4), F(5, 6)]]:
        spec = FiniteGenerators(gens)
        from puiseux.closures import fg_lattice_step

        scale = fg_lattice_step(spec)
        eps = scale / 3
        report = probe_density(spec, 0, 1, eps)
        assert report.complete
        if report.result == ProbeResult.EPS_DENSE:
            assert report.elements_found <= int(1 / scale) + 1
        else:
            assert report.gap is not None
            assert report.gap[1] - report.gap[0] > eps


def test_eventual_window_check():
    reports = eventual_window_check(UnitFractionPowers(2), 1, 2, 4, F(1, 100), depth=14)
    assert len(reports) == 3
    assert all(r.result == ProbeResult.EPS_DENSE for r in reports)
    reports = eventual_window_check(CantorShift(6), 2, 4, 3, F(1, 10))
    assert all(r.result == ProbeResult.EPS_DENSE for r in reports)
    reports = eventual_window_check(UnitFractionPowers(2), 1, 2, 1, F(1, 100), depth=14)
    assert len(reports) == 1  # degenerate n_max: the original window's report
    with pytest.raises(ValueError):
        eventual_window_check(UnitFractionPowers(2), 1, 2, 0, F(1, 100))


def test_right_isolation_examples():
    pairs = right_isolation(FiniteGenerators([2, 3]), 8)
    assert pairs == [
        (F(0), F(2)),
        (F(2), F(1)),
        (F(3), F(1)),
        (F(4), F(1)),
        (F(5), F(1)),
        (F(6), F(1)),
        (F(7), F(1)),
    ]
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    pairs = right_isolation(inc, F(15, 8))
    assert all(r > 0 for _, r in pairs)
    pairs = right_isolation(PrimeReciprocalShift(50), F(3, 2))
    at_one = dict(pairs)[F(1)]
    assert at_one == F(1, 47)


def test_right_isolation_radius_shrinks_with_prime_bound():
    radii = []
    for bound in (20, 50, 100):
        pairs = dict(right_isolation(PrimeReciprocalShift(bound), F(3, 2)))
        radii.append(pairs[F(1)])
    assert radii[0] > radii[1] > radii[2]
    assert radii[2] == F(1, 97)


def test_right_isolation_refuses_uncertifiable():
    inc = IncreasingSequence(HarmonicTail(2, F(1, 2)))
    with pytest.raises(ValueError, match="certify"):
        right_isolation(inc, 3)  # bound above the limit
    with pytest.raises(ValueError, match="certify"):
        right_isolation(UnitFractionPowers(2), 1)


def test_point_set_report():
    pts = [F(k, 20) for k in range(0, 101)]
    rep = point_set_report(pts, 0, 5, F(1, 20))
    assert rep.result == ProbeResult.EPS_DENSE and rep.elements_found == 101
    rep = point_set_report(pts[:50], 0, 5, F(1, 20))
    assert rep.result == ProbeResult.GAP_WITNESS
    assert rep.gap == (F(49, 20), F(5))


def test_dense_verdict_consistent_with_probe():
    # a Dense classification must survive its own probe at coarse resolutions
    for spec, depth in [(UnitFractionPowers(2), 10), (Geometric(F(2, 3)), 16)]:
        assert classify_density(spec).klass == DensityClass.DENSE
        for eps in (F(1, 10), F(1, 100)):
            assert probe_density(spec, 0, 1, eps, depth=depth).result == ProbeResult.EPS_DENSE
