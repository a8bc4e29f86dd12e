"""Tests for the exact clique engine and monochromatic analysis."""

import functools
import itertools
import random

import pytest

import reference
from decg import (
    CapExceeded,
    PeriodicConfiguration,
    ShiftSystem,
    UnknownColor,
    color_graph,
    enumerate_periodic_points,
    greedy_separated,
    max_clique,
    mono_clique_report,
    opposite_upper_bound,
    revalidate_edges,
    sample_periodic_points,
    separation_check,
)
from decg.cliques import _degeneracy_order, color_classes
from decg.colorer import ColoredGraph

SYSTEM = ShiftSystem(2)


def _adjacency(q, edges):
    masks = [0] * q
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _brute_force_max_clique(q, edges):
    edge_set = {frozenset(e) for e in edges}
    best = 1 if q else 0
    for size in range(2, q + 1):
        for combo in itertools.combinations(range(q), size):
            if all(frozenset(p) in edge_set for p in itertools.combinations(combo, 2)):
                best = max(best, size)
    return best


def test_max_clique_triangle():
    order, witness = max_clique(_adjacency(3, [(0, 1), (0, 2), (1, 2)]))
    assert order == 3
    assert witness == [0, 1, 2]


def test_max_clique_five_cycle():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert _brute_force_max_clique(5, edges) == 2
    order, witness = max_clique(_adjacency(5, edges))
    assert order == 2
    i, j = witness
    assert frozenset((i, j)) in {frozenset(e) for e in edges}


def test_max_clique_empty_adjacency():
    order, witness = max_clique([0] * 5)
    assert order == 1
    assert len(witness) == 1
    assert max_clique([]) == (0, [])


def test_max_clique_cap():
    with pytest.raises(CapExceeded):
        max_clique([0] * 10, cap=5)


def test_max_clique_agrees_with_brute_force():
    for seed in range(100):
        rng = random.Random(seed)
        q = rng.randrange(2, 13)
        edges = [
            (i, j)
            for i in range(q)
            for j in range(i + 1, q)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        order, witness = max_clique(_adjacency(q, edges))
        assert order == _brute_force_max_clique(q, edges)
        # the witness really is a clique of that order
        assert len(witness) == order
        edge_set = {frozenset(e) for e in edges}
        for p in itertools.combinations(witness, 2):
            assert frozenset(p) in edge_set


@pytest.mark.parametrize("density", (0.1, 0.3, 0.5, 0.7, 0.9))
def test_max_clique_agrees_with_networkx(density):
    nx = pytest.importorskip("networkx")
    rng = random.Random(int(density * 10))
    for q in range(1, 41):
        edges = [
            (i, j) for i in range(q) for j in range(i + 1, q) if rng.random() < density
        ]
        graph = nx.Graph(edges)
        graph.add_nodes_from(range(q))
        _, expected = nx.max_weight_clique(graph, weight=None)
        order, witness = max_clique(_adjacency(q, edges))
        assert order == expected, (q, density)
        assert len(witness) == order
        assert graph.subgraph(witness).number_of_edges() == order * (order - 1) // 2


def _random_adjacency(rng, q, density):
    return _adjacency(
        q, [(i, j) for i in range(q) for j in range(i + 1, q) if rng.random() < density]
    )


@pytest.mark.parametrize("density", [d / 10 for d in range(11)])
def test_degeneracy_order_matches_reference_random(density):
    # density 0 and 1 give the empty and the complete graph on every q
    rng = random.Random(round(density * 10))
    for q in range(61):
        masks = _random_adjacency(rng, q, density)
        assert _degeneracy_order(masks) == reference.degeneracy_order(masks), (q, density)


@functools.cache
def _shift_graph(n, max_vertices=None):
    """The `decg color --k 2 --n n` graph: exhaustive, or sampled at seed 7."""
    width = 2 * n + 1
    if max_vertices is None:
        pts = enumerate_periodic_points(2, width)
        sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(n), universe="exhaustive")
        return color_graph(SYSTEM, sep, n)
    pts = sample_periodic_points(2, width, max_vertices, seed=7)
    sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(n))
    return color_graph(SYSTEM, sep, n, sampled="subsampled seed=7")


@pytest.mark.parametrize(("n", "max_vertices"), [(1, None), (2, 200)])
def test_degeneracy_order_matches_reference_on_color_classes(n, max_vertices):
    g = _shift_graph(n, max_vertices)
    assert g.vertex_count == (512 if max_vertices is None else max_vertices)
    for c, masks in enumerate(color_classes(g)):
        assert _degeneracy_order(masks) == reference.degeneracy_order(masks), c


@pytest.mark.parametrize(("n", "max_vertices"), [(1, None), (2, 200)])
def test_color_classes_match_color_class_adjacency(n, max_vertices):
    g = _shift_graph(n, max_vertices)
    classes = color_classes(g)
    assert len(classes) == len(g.colors)
    for c, masks in enumerate(classes):
        assert masks == reference.color_class_adjacency(g, c), c


def _k16():
    pts = list(enumerate_periodic_points(2, 2))
    sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(1), universe="exhaustive")
    return color_graph(SYSTEM, sep, 1)


def test_color_class_adjacency_recount():
    g = _k16()
    masks = reference.color_class_adjacency(g, 4)  # color (0, 0)
    # independent recount: edges whose endpoints differ at the origin cell
    # and agree on every site of smaller scan rank (none: origin is first)
    for i in range(16):
        for j in range(i + 1, 16):
            expected = g.vertices[i].at(0, 0) != g.vertices[j].at(0, 0)
            assert bool(masks[i] >> j & 1) == expected


def test_color_class_adjacency_trivial():
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(0, 0, 1)
    g = color_graph(SYSTEM, [x, y], 1)
    masks = reference.color_class_adjacency(g, g.color_of(0, 1))
    assert masks == [2, 1]
    absent = (g.color_of(0, 1) + 1) % 9
    assert reference.color_class_adjacency(g, absent) == [0, 0]
    with pytest.raises(UnknownColor):
        reference.color_class_adjacency(g, 9)


def test_mono_clique_report_single_edge():
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(0, 0, 1)
    g = color_graph(SYSTEM, [x, y], 1)
    report = mono_clique_report(g)
    assert report.overall_max == 2
    assert report.separation_passed


def test_mono_clique_report_k16():
    g = _k16()
    report = mono_clique_report(g)
    assert report.overall_max == 2
    assert report.separation_passed
    # alphabet bound: three points cannot pairwise differ at one cell over
    # two symbols, so no color class has a triangle
    for entry in report.colors:
        assert entry.order <= 2
    winner = report.colors[report.winning_color]
    images = [SYSTEM.apply(winner.vector, g.vertices[i]) for i in winner.witness]
    ok, _ = separation_check(SYSTEM, images, SYSTEM.threshold)
    assert ok


def test_overall_max_monotone_in_vertices_and_bounded_by_alphabet():
    pts = sample_periodic_points(2, 3, 60, seed=5)
    prev = 0
    for count in (10, 30, 60):
        g = color_graph(SYSTEM, pts[:count], 1)
        m = mono_clique_report(g).overall_max
        assert prev <= m <= 2
        prev = m


def test_alphabet_bound_three_symbols():
    sys3 = ShiftSystem(3)
    pts = sample_periodic_points(3, 3, 40, seed=1)
    sep = greedy_separated(sys3, pts, sys3.epsilon(1))
    g = color_graph(sys3, sep, 1)
    report = mono_clique_report(g)
    assert report.overall_max <= 3
    assert report.separation_passed


def test_revalidate_passes_honest_graph():
    assert revalidate_edges(_k16()) is None


def test_revalidate_catches_tampering():
    g = _k16()
    bad_colors = list(g.edge_colors)
    # point edge 0 at a vector where its endpoints happen to agree
    i, j = 0, 1
    ci, cj = g.vertices[i], g.vertices[j]
    for c, v in enumerate(g.colors):
        if ci.at(*v) == cj.at(*v):
            bad_colors[0] = c
            break
    tampered = ColoredGraph(
        system=g.system,
        n=g.n,
        vertices=g.vertices,
        edge_colors=tuple(bad_colors),
        edge_quality=g.edge_quality,
        sampled=g.sampled,
    )
    bad = revalidate_edges(tampered)
    assert bad is not None
    assert bad[:2] == (0, 1)


def test_revalidate_catches_wrong_stored_exponent():
    g = _k16()
    quality = list(g.edge_quality)
    quality[5] = 1
    tampered = ColoredGraph(
        system=g.system,
        n=g.n,
        vertices=g.vertices,
        edge_colors=g.edge_colors,
        edge_quality=tuple(quality),
        sampled=g.sampled,
    )
    bad = revalidate_edges(tampered)
    assert bad is not None
    assert "stored exponent" in bad[2]


def test_opposite_upper_bound_certificates():
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(0, 0, 1)
    two = color_graph(SYSTEM, [x, y], 1)
    cert = opposite_upper_bound(mono_clique_report(two), two)
    assert cert.bound == 2
    assert cert.statement == "R_9(3) > 2"
    assert cert.verified
    assert cert.to_json()["kind"] == "ramsey_lower_bound"

    g = _k16()
    cert16 = opposite_upper_bound(mono_clique_report(g), g)
    assert cert16.statement == "R_9(3) > 16"
    assert cert16.verified
    assert cert16.graph_checksum == g.checksum_hex()

    single = color_graph(SYSTEM, [x], 1)
    assert opposite_upper_bound(mono_clique_report(single), single) is None
