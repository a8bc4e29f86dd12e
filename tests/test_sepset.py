"""Tests for separated sets, exact counts, and growth checks."""

import math
import random
from fractions import Fraction

import pytest

import reference
from decg import (
    GrowthSequence,
    MismatchedSystems,
    PeriodicConfiguration,
    RangeTooSmall,
    SeparatedSet,
    ShiftDistance,
    ShiftSystem,
    dimension_sequence,
    enumerate_periodic_points,
    greedy_separated,
    growth_csv,
    s_count_shift_exact,
    sample_periodic_points,
    separation_check,
    superpoly_check,
)

SYSTEM = ShiftSystem(2)


def test_greedy_rejects_duplicates():
    x = PeriodicConfiguration.constant(2, 3)
    out = greedy_separated(SYSTEM, [x, x], SYSTEM.epsilon(1))
    assert out.points == (x,)
    assert out.maximal_wrt == "stream"


def test_greedy_keeps_all_w3_patterns_at_scale_1():
    # the radius-1 window covers a full period-3 fundamental domain, so
    # distinct patterns always differ there
    pts = list(enumerate_periodic_points(2, 3))
    out = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(1), universe="exhaustive")
    assert len(out) == 512
    assert out.maximal_wrt == "exhaustive"
    ok, pair = separation_check(SYSTEM, out.points, SYSTEM.epsilon(1))
    assert ok and pair is None


def _stream_with_near_duplicates(k, w, seed):
    """Sampled patterns, plus repeats of some of them and copies that differ
    from one of them in a single random cell, shuffled."""
    rng = random.Random(seed)
    base = list(sample_periodic_points(k, w, 30, seed))
    stream = base + [rng.choice(base) for _ in range(10)]
    for _ in range(20):
        p = rng.choice(base)
        stream.append(p.with_cell(rng.randrange(w), rng.randrange(w), rng.randrange(k)))
    rng.shuffle(stream)
    return stream


@pytest.mark.parametrize(("k", "w"), [(2, 3), (2, 5), (3, 4), (3, 7)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_matches_pairwise_reference(k, w, seed):
    system = ShiftSystem(k)
    stream = _stream_with_near_duplicates(k, w, seed)
    for e in range(w // 2 + 2):  # windows inside one period, then covering it
        out = greedy_separated(system, stream, ShiftDistance(e))
        assert out.points == tuple(reference.greedy_separated(system, stream, e)), e


@pytest.mark.parametrize(
    "other", [PeriodicConfiguration.constant(2, 5), PeriodicConfiguration.constant(3, 3)]
)
def test_greedy_refuses_mixed_shifts(other):
    x = PeriodicConfiguration.constant(2, 3)
    with pytest.raises(MismatchedSystems):
        greedy_separated(SYSTEM, [x, other], SYSTEM.epsilon(1))
    with pytest.raises(MismatchedSystems):
        reference.greedy_separated(SYSTEM, [x, other], 1)


def test_points_over_another_alphabet_are_refused():
    # five points of one 3-symbol shift, none of which lives in SYSTEM's 2-symbol one
    points = sample_periodic_points(3, 3, 5, 1)
    with pytest.raises(MismatchedSystems, match="point over 3 symbols in a 2-symbol shift"):
        greedy_separated(SYSTEM, points, SYSTEM.epsilon(1))
    with pytest.raises(MismatchedSystems, match="point over 3 symbols in a 2-symbol shift"):
        separation_check(SYSTEM, points, SYSTEM.epsilon(1))
    with pytest.raises(MismatchedSystems):
        reference.greedy_separated(SYSTEM, points, 1)
    kept = greedy_separated(ShiftSystem(3), points, SYSTEM.epsilon(1)).points
    assert kept == tuple(reference.greedy_separated(ShiftSystem(3), points, 1))
    assert len(kept) == 5


def test_greedy_requires_positive_epsilon():
    with pytest.raises(ValueError):
        greedy_separated(SYSTEM, [PeriodicConfiguration.constant(2, 3)], ShiftDistance.zero())


def test_zero_epsilon_is_refused_by_both_entry_points():
    x = PeriodicConfiguration.constant(2, 3)
    pair = [x, x.with_cell(0, 0, 1)]
    with pytest.raises(ValueError, match="epsilon must be positive"):
        greedy_separated(SYSTEM, pair, ShiftDistance.zero())
    with pytest.raises(ValueError, match="epsilon must be positive"):
        separation_check(SYSTEM, pair, ShiftDistance.zero())


def test_separation_check_singleton_and_violation():
    x = PeriodicConfiguration.constant(2, 3)
    assert separation_check(SYSTEM, [x], SYSTEM.epsilon(1)) == (True, None)
    # at scale alpha^0 = 1 two patterns agreeing at the origin cell violate
    pts = list(enumerate_periodic_points(2, 3))
    ok, pair = separation_check(SYSTEM, pts, SYSTEM.epsilon(0))
    assert not ok
    i, j = pair
    assert pts[i].at(0, 0) == pts[j].at(0, 0)


def test_subsets_stay_separated():
    pts = list(enumerate_periodic_points(2, 3))
    out = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(1))
    subset = out.points[10:200:7]
    ok, _ = separation_check(SYSTEM, subset, SYSTEM.epsilon(1))
    assert ok


def test_s_count_matches_greedy_oracle():
    # (2, 0): greedy over both period-1 patterns keeps both
    pts0 = list(enumerate_periodic_points(2, 1))
    kept0 = greedy_separated(SYSTEM, pts0, SYSTEM.epsilon(0), universe="exhaustive")
    assert len(kept0) == 2 == s_count_shift_exact(2, 0)
    # (2, 1): greedy over all 512 period-3 patterns keeps all
    pts1 = list(enumerate_periodic_points(2, 3))
    kept1 = greedy_separated(SYSTEM, pts1, SYSTEM.epsilon(1), universe="exhaustive")
    assert len(kept1) == 512 == s_count_shift_exact(2, 1)


def test_s_count_ternary():
    # 3^9 confirmed by enumeration; separation spot-checked on a slice
    sys3 = ShiftSystem(3)
    pts = list(enumerate_periodic_points(3, 3))
    assert len(pts) == len(set(pts)) == 19683 == s_count_shift_exact(3, 1)
    ok, _ = separation_check(sys3, pts[5000:5300], sys3.epsilon(1))
    assert ok


def test_s_count_validation():
    with pytest.raises(ValueError):
        s_count_shift_exact(1, 2)
    with pytest.raises(ValueError):
        s_count_shift_exact(2, -1)


def test_growth_sequence_validation():
    with pytest.raises(ValueError):
        GrowthSequence(((2, 4), (1, 8)))  # n not increasing
    with pytest.raises(ValueError):
        GrowthSequence(((1, 0),))  # nonpositive count
    with pytest.raises(ValueError):
        GrowthSequence(((1, (1, 5)),))  # base below 2


def test_dimension_sequence_closed_form():
    seq = GrowthSequence.shift_closed_form(2, 4)
    terms = dimension_sequence(seq, Fraction(2))
    expected = [(2 * n + 1) ** 2 / n for n in range(1, 5)]
    for got, want in zip(terms, expected):
        assert abs(got - want) < 1e-9
    assert terms[0] == pytest.approx(9.0)
    assert terms[1] == pytest.approx(12.5)
    assert terms[2] == pytest.approx(49 / 3)


def test_dimension_sequence_plain_integers():
    seq = GrowthSequence(tuple((n, 2 ** ((2 * n + 1) ** 2)) for n in range(1, 4)))
    terms = dimension_sequence(seq, Fraction(2))
    assert terms[2] == pytest.approx(49 / 3, abs=1e-9)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(1, 2)])
def test_dimension_sequence_rejects_alpha_at_most_1(alpha):
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        dimension_sequence(GrowthSequence.shift_closed_form(2, 2), alpha)


def test_separated_set_and_dimension_sequence_refuse_bad_input():
    with pytest.raises(ValueError, match="maximal_wrt must be 'exhaustive' or 'stream'"):
        SeparatedSet((), SYSTEM.epsilon(1), maximal_wrt="x")
    with pytest.raises(ValueError, match="empty growth sequence"):
        dimension_sequence(GrowthSequence(()), Fraction(2))


@pytest.mark.parametrize(
    "mode, parameter, grid_limit, error, message",
    [
        ("exponential-ratio", 0, 10**6, ValueError, "comparison base must be positive"),
        ("exponential-ratio", Fraction(-1, 2), 10**6, ValueError, "base must be positive"),
        ("log-composition", 0, 10**6, ValueError, "polynomial degree must be >= 1"),
        # the grid to 7 is ceil(e**0) = 1 and ceil(e**1) = 3 only
        ("log-composition", 5, 7, RangeTooSmall, "geometric grid up to 7 has 2 points"),
    ],
)
def test_superpoly_refuses_bad_parameters(mode, parameter, grid_limit, error, message):
    seq = GrowthSequence.shift_closed_form(2, 14)
    with pytest.raises(error, match=message):
        superpoly_check(seq, mode, parameter, grid_limit=grid_limit)


def test_superpoly_exponential_ratio():
    seq = GrowthSequence.shift_closed_form(2, 6)
    report = superpoly_check(seq, "exponential-ratio", 1024, n0=2)
    assert report.established
    # gaps in natural log: (2n+1)^2*ln2 - n*ln1024 = (4n^2-6n+1)*ln2
    gaps = dict(report.samples)
    assert gaps[1] == pytest.approx(-math.log(2))
    assert gaps[2] == pytest.approx(5 * math.log(2))
    assert gaps[3] == pytest.approx(19 * math.log(2))
    # from n0=1 the gap at n=1 is negative, so the check must not pass
    report1 = superpoly_check(seq, "exponential-ratio", 1024, n0=1)
    assert not report1.established


def test_superpoly_subexponential_fails():
    seq = GrowthSequence(tuple((n, (2, n)) for n in range(1, 9)))
    report = superpoly_check(seq, "exponential-ratio", 4, n0=1)
    assert not report.established


@pytest.mark.parametrize(
    "counts, mode, parameter, n0, detail",
    [
        ((100, 150, 1000), "exponential-ratio", 2, 1, "gap not increasing at n = 2"),  # 150*2 < 100*4
        ((100, 1000, 10000), "exponential-ratio", 2, 3, "fewer than 2 samples at n >= 3"),
        # the grid to 10 is 1, 3, 8, composed with floor(ln n) + 1 = 1, 2, 3: 5*1 < 5*3
        ((5, 5, 5), "log-composition", 1, 1, "composed value not increasing at n = 3"),
    ],
)
def test_superpoly_verdicts_that_are_not_established(counts, mode, parameter, n0, detail):
    seq = GrowthSequence(tuple(enumerate(counts, 1)))
    report = superpoly_check(seq, mode, parameter, n0=n0, grid_limit=10)
    assert not report.established
    assert report.detail == detail


def test_superpoly_log_composition():
    seq = GrowthSequence.shift_closed_form(2, 14)
    report = superpoly_check(seq, "log-composition", 5)
    assert report.established
    assert len(report.samples) >= 10
    # values strictly increase along the geometric grid
    values = [v for _, v in report.samples]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_superpoly_log_composition_needs_coverage():
    seq = GrowthSequence.shift_closed_form(2, 3)
    with pytest.raises(RangeTooSmall):
        superpoly_check(seq, "log-composition", 5)


def test_superpoly_range_too_small():
    seq = GrowthSequence(((1, 2), (2, 32)))
    with pytest.raises(RangeTooSmall):
        superpoly_check(seq, "exponential-ratio", 2)


def test_superpoly_unknown_mode():
    seq = GrowthSequence.shift_closed_form(2, 4)
    with pytest.raises(ValueError):
        superpoly_check(seq, "nonsense", 2)


def test_growth_csv():
    seq = GrowthSequence.shift_closed_form(2, 3)
    text = growth_csv(seq, Fraction(2))
    lines = text.strip().split("\n")
    assert lines[0] == "n,count_log2,term"
    assert lines[1] == "1,9.0,9.0"
    assert lines[2] == "2,25.0,12.5"
    assert lines[3].startswith("3,49.0,16.33333333333333")


def test_growth_csv_reads_exact_integer_counts():
    exact = growth_csv(GrowthSequence(((1, 8), (2, 1024))), Fraction(2))
    assert exact == growth_csv(GrowthSequence(((1, (2, 3)), (2, (2, 10)))), Fraction(2))
    assert exact == "n,count_log2,term\n1,3.0,3.0\n2,10.0,5.0\n"
