"""Tests for the shift action."""

import random
from fractions import Fraction

import pytest

from decg import (
    CapExceeded,
    LatticeVector,
    MismatchedSystems,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    ball_vectors,
    encode_pattern,
    enumerate_periodic_points,
    mix64,
    parse_pattern,
    ring_vectors,
    sample_periodic_points,
    shift_min_diff,
)
from decg.action import ORIGIN, min_diff_vector, scan_order, window_mask


def test_lattice_vector_norm():
    assert LatticeVector(0, 0).norm == 0
    assert LatticeVector(3, -5).norm == 5
    assert LatticeVector(-2, 1).norm == 2
    assert LatticeVector(1, 2) + LatticeVector(3, -1) == LatticeVector(4, 1)
    assert -LatticeVector(1, -2) == LatticeVector(-1, 2)


def test_ring_sizes_and_order():
    assert list(ring_vectors(0)) == [LatticeVector(0, 0)]
    for r in range(1, 5):
        ring = list(ring_vectors(r))
        assert len(ring) == (2 * r + 1) ** 2 - (2 * r - 1) ** 2
        assert all(v.norm == r for v in ring)
        assert ring == sorted(ring)  # lexicographic within a ring
    ball = ball_vectors(2)
    assert len(ball) == 25
    assert len(set(ball)) == 25
    # ring-major: norms never decrease along the scan
    norms = [v.norm for v in ball]
    assert norms == sorted(norms)


def test_shift_distance_ordering():
    zero = ShiftDistance.zero()
    assert zero.is_zero
    assert zero < ShiftDistance(100)
    assert ShiftDistance(5) < ShiftDistance(2)
    assert ShiftDistance(0) > ShiftDistance(1)
    assert ShiftDistance(3) == ShiftDistance(3)
    assert max(ShiftDistance(4), ShiftDistance(1), zero) == ShiftDistance(1)
    with pytest.raises(ValueError):
        ShiftDistance(-1)


def test_shift_distance_order_is_exhaustively_the_stated_one():
    # ascending: zero, then alpha**-6 < alpha**-5 < ... < alpha**0
    ascending = [None, 6, 5, 4, 3, 2, 1, 0]
    for a in ascending:
        for b in ascending:
            x, y = ShiftDistance(a), ShiftDistance(b)
            ra, rb = ascending.index(a), ascending.index(b)
            assert (x < y) == (ra < rb), (a, b)
            assert (x == y) == (ra == rb), (a, b)
            assert (x <= y) == (ra <= rb), (a, b)
            assert (x > y) == (ra > rb), (a, b)


def test_configuration_validation():
    with pytest.raises(ValueError):
        PeriodicConfiguration(0, 2, ())
    with pytest.raises(ValueError):
        PeriodicConfiguration(2, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        PeriodicConfiguration(2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        PeriodicConfiguration(2, 2, (0, 0, 0, 5))


def test_configuration_wraps():
    p = PeriodicConfiguration(3, 2, (0, 1, 0, 0, 0, 0, 0, 0, 1))
    assert p.at(0, 1) == 1
    assert p.at(2, 2) == 1
    assert p.at(3, 4) == 1  # (3, 4) = (0, 1) mod 3
    assert p.at(-1, -1) == 1  # (-1, -1) = (2, 2) mod 3


def test_apply_identity_and_fixed_point():
    system = ShiftSystem(2)
    zero = PeriodicConfiguration.constant(2, 3)
    x = zero.with_cell(1, 2, 1)
    assert system.apply(LatticeVector(0, 0), x) == x
    assert system.apply(LatticeVector(1, 0), zero) == zero


def test_apply_moves_single_cell():
    # one 1 at cell (1, 0); shifting by (1, 0) must move it to (0, 0)
    system = ShiftSystem(2)
    x = PeriodicConfiguration.constant(2, 3).with_cell(1, 0, 1)
    shifted = system.apply(LatticeVector(1, 0), x)
    # hand evaluation of x'(u) = x(u + v) over the whole domain
    for a in range(3):
        for b in range(3):
            assert shifted.at(a, b) == x.at(a + 1, b)
    assert shifted.at(0, 0) == 1
    assert sum(shifted.cells) == 1


def test_apply_group_law_exhaustive_small_ball():
    system = ShiftSystem(2)
    rng = random.Random(11)
    patterns = [
        PeriodicConfiguration(3, 2, tuple(rng.randrange(2) for _ in range(9)))
        for _ in range(12)
    ]
    for x in patterns:
        for u in ball_vectors(2):
            for v in ball_vectors(2):
                lhs = system.apply(u, system.apply(v, x))
                rhs = system.apply(u + v, x)
                assert lhs == rhs


def test_apply_rejects_foreign_alphabet():
    system = ShiftSystem(2)
    p3 = PeriodicConfiguration.constant(3, 2)
    with pytest.raises(MismatchedSystems):
        system.apply(LatticeVector(0, 0), p3)


@pytest.mark.parametrize("w", range(1, 10))
def test_scan_order_numbers_every_ball_as_a_prefix(w):
    vectors, bit = scan_order(w)
    assert sorted(bit) == list(range(w * w))
    for i in range(w * w):  # the vector of a cell's rank reaches that cell
        v = vectors[bit[i]]
        assert (v.x % w) * w + v.y % w == i
    for r in range(w // 2 + 2):
        cells = {(v.x % w) * w + v.y % w for v in ball_vectors(r)}
        assert {bit[i] for i in cells} == set(range(len(cells)))
        assert window_mask(w, ORIGIN, r) == (1 << len(cells)) - 1


def test_min_diff_identical_and_origin():
    a = PeriodicConfiguration.constant(2, 3)
    assert shift_min_diff(a, a) == ShiftDistance.zero()
    b = a.with_cell(0, 0, 1)
    assert shift_min_diff(a, b) == ShiftDistance(0)


def test_min_diff_coset_oracle():
    # differ only at cell (2, 1): the coset (2, 1) + 3Z^2 has min sup norm 1
    a = PeriodicConfiguration.constant(2, 3)
    b = a.with_cell(2, 1, 1)
    oracle = min(
        max(abs(2 + 3 * s), abs(1 + 3 * t))
        for s in range(-4, 5)
        for t in range(-4, 5)
    )
    assert oracle == 1
    assert shift_min_diff(a, b) == ShiftDistance(1)
    v, d = min_diff_vector(a, b)
    assert d == ShiftDistance(1)
    assert v == LatticeVector(-1, 1)


def test_min_diff_mismatched():
    with pytest.raises(MismatchedSystems):
        shift_min_diff(
            PeriodicConfiguration.constant(2, 3), PeriodicConfiguration.constant(2, 4)
        )
    with pytest.raises(MismatchedSystems):
        shift_min_diff(
            PeriodicConfiguration.constant(2, 3), PeriodicConfiguration.constant(3, 3)
        )


def test_min_diff_bounded_by_period():
    rng = random.Random(5)
    for w in (2, 3, 5):
        for _ in range(50):
            a = PeriodicConfiguration(w, 2, tuple(rng.randrange(2) for _ in range(w * w)))
            b = PeriodicConfiguration(w, 2, tuple(rng.randrange(2) for _ in range(w * w)))
            if a == b:
                continue
            assert shift_min_diff(a, b).exponent <= w


def test_translation_moves_exponent_by_at_most_norm():
    system = ShiftSystem(2)
    rng = random.Random(17)
    for _ in range(40):
        a = PeriodicConfiguration(5, 2, tuple(rng.randrange(2) for _ in range(25)))
        b = PeriodicConfiguration(5, 2, tuple(rng.randrange(2) for _ in range(25)))
        if a == b:
            continue
        m = shift_min_diff(a, b).exponent
        for v in ball_vectors(2):
            shifted = shift_min_diff(system.apply(v, a), system.apply(v, b)).exponent
            assert m - v.norm <= shifted <= m + v.norm


def test_separation_recovery_is_exact_on_the_shift():
    # the minimal differing site v0 satisfies |v0| = m and recovers distance 1
    system = ShiftSystem(2)
    rng = random.Random(23)
    for w in (3, 5):
        for _ in range(60):
            a = PeriodicConfiguration(w, 2, tuple(rng.randrange(2) for _ in range(w * w)))
            b = PeriodicConfiguration(w, 2, tuple(rng.randrange(2) for _ in range(w * w)))
            if a == b:
                continue
            v0, d = min_diff_vector(a, b)
            assert v0.norm == d.exponent
            recovered = shift_min_diff(system.apply(v0, a), system.apply(v0, b))
            assert recovered == ShiftDistance(0)


def test_distance_at_least_matches_exact():
    system = ShiftSystem(2)
    rng = random.Random(3)
    for _ in range(80):
        a = PeriodicConfiguration(4, 2, tuple(rng.randrange(2) for _ in range(16)))
        b = PeriodicConfiguration(4, 2, tuple(rng.randrange(2) for _ in range(16)))
        d = shift_min_diff(a, b)
        for n in range(5):
            assert system.distance_at_least(a, b, n) == (d >= ShiftDistance(n))


def test_threshold_exponent():
    assert ShiftSystem(2, Fraction(2)).threshold_exponent == 3
    assert ShiftSystem(2, Fraction(3)).threshold_exponent == 3  # 3^3 = 27 >= 12
    assert ShiftSystem(2, Fraction(3, 2)).threshold_exponent == 5  # (3/2)^5 > 6


def test_enumerate_counts():
    assert len(list(enumerate_periodic_points(2, 1))) == 2
    assert len(list(enumerate_periodic_points(2, 2))) == 16
    pts = list(enumerate_periodic_points(2, 3))
    assert len(pts) == 512
    assert len(set(pts)) == 512
    assert pts[0] == PeriodicConfiguration.constant(2, 3, 0)
    assert pts[-1] == PeriodicConfiguration.constant(2, 3, 1)


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_periodic_points(2, 3, cap=100))
    with pytest.raises(CapExceeded):
        next(enumerate_periodic_points(2, 6))  # 2^36 over the default cap


def test_mix64_reference_values():
    # frozen: raw SplitMix64 finalizer outputs
    assert mix64(0, 0) == 0xE220A8397B1DCDAF
    assert mix64(7, 3) == 0x953AEB70673E29CB


def test_sample_exhaustive_small():
    got = sample_periodic_points(2, 1, 2, seed=0)
    assert len(got) == 2
    assert set(got) == set(enumerate_periodic_points(2, 1))


def test_sample_deterministic_and_seed_sensitive():
    a = sample_periodic_points(2, 5, 1000, seed=7)
    b = sample_periodic_points(2, 5, 1000, seed=7)
    c = sample_periodic_points(2, 5, 1000, seed=8)
    assert a == b
    assert a != c
    assert len(set(a)) == 1000


def test_sample_cap():
    with pytest.raises(CapExceeded):
        sample_periodic_points(2, 1, 3, seed=0)


def test_pattern_encoding_round_trip():
    p = PeriodicConfiguration(3, 2, (0, 1, 0, 1, 1, 0, 0, 0, 1))
    text = encode_pattern(p)
    assert text == "k2:w3:010110001"
    assert parse_pattern(text) == p
    q = PeriodicConfiguration(2, 12, (0, 11, 5, 10))
    assert parse_pattern(encode_pattern(q)) == q


def test_pattern_encoding_errors():
    with pytest.raises(ValueError):
        parse_pattern("w3:k2:010110001")
    with pytest.raises(ValueError):
        parse_pattern("k2:w3:0101")
    with pytest.raises(ValueError):
        parse_pattern("k2:w2:0121")  # symbol 2 outside alphabet of 2
