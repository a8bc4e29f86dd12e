"""The packed witness primitive against the tuple-scan reference oracles.

Inputs: every binary w=3 pattern paired with a spread of partners (so every
w=3 diff set occurs), and sampled w=5 pairs for k = 2, 3 and 36, whose
patterns need one, two and six bit-planes.  A sampled w=4 set adds an even
period, where the scan reaches the cells of coset norm w // 2 twice.
"""

import dataclasses
import itertools

import pytest

import decg.metric
import reference
from decg import (
    NoWitness,
    ShiftDistance,
    ShiftSystem,
    ball_vectors,
    color_graph,
    enumerate_periodic_points,
    find_witness,
    greedy_separated,
    probe_question,
    revalidate_edges,
    sample_periodic_points,
    verify_recovery,
)
from decg.action import diff_mask, min_diff_vector, shifted_exponent


def _w3_exhaustive():
    points = list(enumerate_periodic_points(2, 3))
    pairs = [(x, y) for x in points[::73] for y in points]
    return points, pairs


def _sampled(k, w, count=30, seed=11):
    # Random pairs almost always differ near the origin, so one-cell edits
    # of the first point make every cell the first difference of some pair.
    points = sample_periodic_points(k, w, count, seed)
    base = points[0]
    points += [
        base.with_cell(a, b, (base.at(a, b) + 1) % k) for a in range(w) for b in range(w)
    ]
    return points, list(itertools.combinations(points, 2)) + [(base, base)]


CASES = {
    "k2-w3-exhaustive": _w3_exhaustive,
    "k2-w5": lambda: _sampled(2, 5),
    "k3-w5": lambda: _sampled(3, 5),
    "k36-w5": lambda: _sampled(36, 5),
    "k3-w4": lambda: _sampled(3, 4),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    points, pairs = CASES[request.param]()
    return ShiftSystem(points[0].alphabet_size), points, pairs


def test_distance_at_least_matches_window_scan(case):
    system, points, pairs = case
    w = points[0].width
    for x, y in pairs:
        for e in range(w + 2):
            assert system.distance_at_least(x, y, e) == reference.distance_at_least(x, y, e)


def test_min_diff_vector_matches_ring_scan(case):
    _, _, pairs = case
    for x, y in pairs:
        assert min_diff_vector(x, y) == reference.min_diff_vector(x, y)


def test_colorer_witness_matches_table_walk(case):
    system, points, _ = case
    w = points[0].width
    for n in range(w // 2 + 2):  # windows short of, exactly at, and past the period
        vertices = greedy_separated(system, points, system.epsilon(n))
        graph = color_graph(system, vertices, n)
        table = reference.scan_table(w, n)
        for i, j, c, quality in graph.iter_edges():
            assert c == reference.scan_witness(graph.vertices[i], graph.vertices[j], table)
            assert quality == 0


def test_revalidation_exponent_matches_ring_scan(case):
    _, points, pairs = case
    w = points[0].width
    for x, y in pairs:
        diff = diff_mask(x, y)
        cells = reference.diff_cells(x, y)
        for v in ball_vectors(w // 2 + 1):
            expected = reference.revalidation_exponent(x, y, v)
            assert shifted_exponent(diff, w, v) == expected
            if cells:
                assert expected == reference.shifted_exponent(cells, v, w)


def test_verify_recovery_counts_match_window_scan(case):
    system, points, pairs = case
    w = points[0].width
    for n in range(w + 2):  # past w // 2 every residue mod w is in the ball
        report = verify_recovery(system, pairs, n)
        skipped = sum(not reference.distance_at_least(x, y, n) for x, y in pairs)
        assert (report.skipped, report.pairs_checked) == (skipped, len(pairs) - skipped)
        assert report.ok


def test_revalidate_edges_recomputes_a_non_witness_color():
    system = ShiftSystem(2)
    points = sample_periodic_points(2, 5, 12, 3)
    graph = color_graph(system, points, 2)
    # the first edge and color vector that leave the pair at exponent > 0
    e, i, j, c, exponent = next(
        (e, i, j, c, ex)
        for e, (i, j, _, _) in enumerate(graph.iter_edges())
        for c, v in enumerate(graph.colors)
        if (ex := reference.revalidation_exponent(points[i], points[j], v)) > 0
    )

    def with_edge(quality):
        colors, qualities = graph.edge_colors[:], dict(graph.edge_quality)
        colors[e], qualities[e] = c, quality
        return dataclasses.replace(graph, edge_colors=colors, edge_quality=qualities)

    assert revalidate_edges(with_edge(exponent)) is None
    assert revalidate_edges(with_edge(exponent + 1)) == (
        i, j, f"stored exponent {exponent + 1}, recomputed {exponent}"
    )


def test_recovery_paths_on_the_probe_counterexample(monkeypatch):
    system = ShiftSystem(2)
    n = 4  # differs from the threshold exponent 3, so the masks below are told apart
    cx = probe_question(system, n)
    x, y = cx.x, cx.y
    cells = reference.diff_cells(x, y)
    assert cells == [(8, 0)]
    best = min(reference.shifted_exponent(cells, v, x.width) for v in ball_vectors(n))
    assert best == 4

    # d(x, y) = alpha**-8 misses the hypothesis at n = 4 and meets it at n = 8
    assert not reference.distance_at_least(x, y, n)
    report = verify_recovery(system, [(x, y)], n)
    assert (report.pairs_checked, report.skipped, report.ok) == (0, 1, True)
    report = verify_recovery(system, [(x, y)], 8)
    assert (report.pairs_checked, report.skipped, report.ok) == (1, 0, True)

    with pytest.raises(NoWitness) as info:
        find_witness(system, x, y, n)
    assert info.value.achieved == ShiftDistance(best)

    # On the shift a checked pair always recovers, so the failure record is
    # reached only by admitting the pair (every cell in the radius-n window)
    # and withholding every recovery window (radius t).
    full = (1 << x.width * x.width) - 1
    monkeypatch.setattr(
        decg.metric, "window_mask", lambda width, v, radius: full if radius == n else 0
    )
    report = verify_recovery(system, [(x, y)], n)
    assert report.pairs_checked == 1
    assert report.failures == [(x, y, ShiftDistance(best))]
