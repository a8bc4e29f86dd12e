"""Tests for witness search, recovery verification, and the scale probe."""

import itertools
import random
from fractions import Fraction

import pytest

import decg.metric
import reference
from decg import (
    InconsistentCertificate,
    LatticeVector,
    MismatchedSystems,
    NoWitness,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    ball_vectors,
    enumerate_periodic_points,
    find_witness,
    probe_question,
    sample_periodic_points,
    shift_min_diff,
    verify_recovery,
)

SYSTEM = ShiftSystem(2)


def _coset_norm(a, b, w):
    am, bm = a % w, b % w
    return max(min(am, w - am), min(bm, w - bm))


def test_find_witness_min_norm_site():
    # first differing site in scan order is (-1, 1)
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(2, 1, 1)
    res = find_witness(SYSTEM, x, y, 1)
    assert res.vector == LatticeVector(-1, 1)
    assert res.achieved == ShiftDistance(0)


def test_find_witness_identical_points():
    x = PeriodicConfiguration.constant(2, 3)
    with pytest.raises(NoWitness) as info:
        find_witness(SYSTEM, x, x, 4)
    assert info.value.achieved == ShiftDistance.zero()


def test_find_witness_out_of_reach_coset():
    # w=11 pair differing exactly on the coset of (5, 0): every |v| <= 1
    # leaves the nearest differing site at norm >= 4, below the threshold
    x = PeriodicConfiguration.constant(2, 11)
    y = x.with_cell(5, 0, 1)
    # independent oracle: exhaust |v| <= 1 through the raw coset arithmetic
    best = min(_coset_norm(5 - v.x, -v.y, 11) for v in ball_vectors(1))
    assert best == 4
    with pytest.raises(NoWitness) as info:
        find_witness(SYSTEM, x, y, 1)
    assert info.value.achieved == ShiftDistance(4)
    # a radius-5 search reaches the site itself
    res = find_witness(SYSTEM, x, y, 5)
    assert res.vector.norm <= 5
    assert res.achieved == ShiftDistance(0)


def test_find_witness_past_its_precondition_takes_the_first_best_shift():
    # w=11 pair differing only on the coset of (4, 0): distance alpha**-4
    # fails the alpha**-1 precondition, yet every |v| <= 1 with v.x = 1
    # leaves the site at norm 3, the threshold
    x = PeriodicConfiguration.constant(2, 11)
    y = x.with_cell(4, 0, 1)
    exponents = [_coset_norm(4 - v.x, -v.y, 11) for v in ball_vectors(1)]
    assert min(exponents) == 3 == SYSTEM.threshold_exponent
    first = ball_vectors(1)[exponents.index(3)]
    assert first == LatticeVector(1, -1)
    res = find_witness(SYSTEM, x, y, 1)
    assert res.vector == first
    assert res.achieved == ShiftDistance(3)


def test_find_witness_rejects_negative_radius():
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(1, 0, 1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        find_witness(SYSTEM, x, y, -1)


def test_verify_recovery_rejects_negative_scale():
    # the radius -1 window meets no diff, so every pair would be skipped
    # and the report would pass vacuously
    pairs = itertools.combinations(sample_periodic_points(2, 5, 20, 7), 2)
    with pytest.raises(ValueError, match="n must be >= 0"):
        verify_recovery(SYSTEM, pairs, -1)
    assert len(list(pairs)) == 190  # refused before any pair was read


def test_find_witness_succeeds_iff_exponent_within_radius():
    rng = random.Random(31)
    for _ in range(60):
        a = PeriodicConfiguration(5, 2, tuple(rng.randrange(2) for _ in range(25)))
        b = PeriodicConfiguration(5, 2, tuple(rng.randrange(2) for _ in range(25)))
        if a == b:
            continue
        m = shift_min_diff(a, b).exponent
        for n in range(3):
            if m <= n:
                res = find_witness(SYSTEM, a, b, n)
                assert res.achieved == ShiftDistance(0)
                assert res.vector.norm <= n
                # the witness site really differs
                assert a.at(*res.vector) != b.at(*res.vector)


def test_verify_recovery_exhaustive_w3():
    pts = list(enumerate_periodic_points(2, 3))
    report = verify_recovery(SYSTEM, itertools.combinations(pts, 2), 1)
    assert report.pairs_checked == 512 * 511 // 2
    assert report.skipped == 0
    assert report.ok


def test_verify_recovery_empty_stream():
    report = verify_recovery(SYSTEM, [], 3)
    assert report.pairs_checked == 0
    assert report.skipped == 0
    assert report.ok


def test_verify_recovery_skips_far_pairs():
    # distance 2^-5 < 2^-1: the hypothesis fails at n = 1, so the pair is skipped
    x = PeriodicConfiguration.constant(2, 11)
    y = x.with_cell(5, 0, 1)
    report = verify_recovery(SYSTEM, [(x, y)], 1)
    assert report.pairs_checked == 0
    assert report.skipped == 1
    assert report.ok
    # at n = 5 the same pair qualifies and recovers
    report5 = verify_recovery(SYSTEM, [(x, y)], 5)
    assert report5.pairs_checked == 1
    assert report5.ok


def test_verify_recovery_refuses_points_of_another_shift():
    p, q, r, s = sample_periodic_points(3, 3, 4, 1)
    with pytest.raises(MismatchedSystems, match="point over 3 symbols in a 2-symbol shift"):
        verify_recovery(SYSTEM, [(p, q), (r, s)], 1)
    # a first pair of the shift does not let a later one through
    x = PeriodicConfiguration.constant(2, 3)
    with pytest.raises(MismatchedSystems):
        verify_recovery(SYSTEM, [(x, x.with_cell(0, 0, 1)), (r, s)], 1)
    assert verify_recovery(ShiftSystem(3), [(p, q), (r, s)], 1).pairs_checked == 2


def test_probe_question_no_counterexample_at_small_n():
    assert probe_question(SYSTEM, 1) is None
    assert probe_question(SYSTEM, 2) is None


def test_probe_question_finds_and_reverifies_at_n3():
    result = probe_question(SYSTEM, 3)
    assert result is not None
    x, y = result.x, result.y
    assert x.width == 15
    # recheck inequality 1 by independent coset arithmetic: the pair differs
    # exactly on the coset of (7, 0), so d(x, y) = 2^-7 >= 2^-9
    diff = [
        (a, b)
        for a in range(15)
        for b in range(15)
        if x.at(a, b) != y.at(a, b)
    ]
    assert diff == [(7, 0)]
    assert min(_coset_norm(a, b, 15) for a, b in diff) == 7
    assert result.distance == ShiftDistance(7)
    assert result.required_at_least == ShiftDistance(9)
    # recheck inequality 2: every |v| <= 3 leaves the nearest differing site
    # at norm >= 4 > threshold 3
    worst = min(
        _coset_norm(7 - v.x, -v.y, 15) for v in ball_vectors(3)
    )
    assert worst == 4
    assert result.best_shifted == ShiftDistance(4)
    assert result.threshold == ShiftDistance(3)
    assert not result.best_shifted >= result.threshold


def test_probe_question_rejects_bad_n():
    with pytest.raises(ValueError):
        probe_question(SYSTEM, 0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 4)])
def test_probe_question_matches_the_norm_range_search(alpha, k):
    system = ShiftSystem(k, alpha)
    for n in range(1, 9):
        assert probe_question(system, n) == reference.probe_question(system, n)


def test_probe_question_raises_when_its_pair_fails_the_recheck(monkeypatch):
    # with the shift (s, 0) in the ball, the differing site moves to the origin
    s = 4 + SYSTEM.threshold_exponent + 1
    ball = ball_vectors(4) + (LatticeVector(s, 0),)
    monkeypatch.setattr(decg.metric, "ball_vectors", lambda radius: ball)
    with pytest.raises(InconsistentCertificate, match=f"norm-{s} pair"):
        probe_question(SYSTEM, 4)


@pytest.mark.parametrize(
    ("alpha", "n", "message"),
    [
        # t = 3 puts the n = 28 pair at width 65, one past the widest
        (Fraction(2), 28, "pair at n = 28 has 4225 cells per pattern"),
        (Fraction(2), 100000, "pair at n = 100000 has 40003600081 cells per pattern"),
        # t = 141 puts the n = 13 pair at width 2 * 155 + 1
        (Fraction(101, 100), 13, "pair at n = 13 has 96721 cells per pattern"),
    ],
)
def test_probe_question_refuses_oversized_instances_before_building_them(
    monkeypatch, alpha, n, message
):
    def unreachable(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(PeriodicConfiguration, "constant", unreachable)
    with pytest.raises(ValueError, match=message):
        probe_question(ShiftSystem(2, alpha), n)


def test_probe_question_admits_the_widest_pair_under_the_cap(monkeypatch):
    # n = 27 at alpha 2 builds a 63x63 pair, 3969 cells: it must reach the build
    def reached(*args):
        raise LookupError("built")

    monkeypatch.setattr(PeriodicConfiguration, "constant", reached)
    with pytest.raises(LookupError, match="built"):
        probe_question(ShiftSystem(2, Fraction(2)), 27)
