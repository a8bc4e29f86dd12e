"""Tests for the exact clique engine and monochromatic analysis."""

import functools
import itertools
import json
import random
from array import array

import pytest

import reference
from decg import (
    CapExceeded,
    MismatchedSystems,
    PeriodicConfiguration,
    ShiftSystem,
    UnknownColor,
    color_graph,
    decg_dumps,
    enumerate_periodic_points,
    fnv1a64,
    greedy_separated,
    max_clique,
    mono_clique_report,
    opposite_upper_bound,
    read_decg,
    revalidate_edges,
    sample_periodic_points,
    separation_check,
)
from decg.cliques import _LazyOrder, color_classes
from decg.colorer import ColoredGraph
from decg.record import recording, stage

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
        max_clique([0] * 5001)


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


def _partitioned_graph(rng, q, k, density):
    """(adjacency, parts, edges): a random graph whose vertices get one of
    k random labels, with edges only between different labels, so the
    labels' vertex sets are a proper hint."""
    label = [rng.randrange(k) for _ in range(q)]
    edges = [
        (i, j)
        for i in range(q)
        for j in range(i + 1, q)
        if label[i] != label[j] and rng.random() < density
    ]
    parts = [sum(1 << v for v in range(q) if label[v] == s) for s in range(k)]
    return _adjacency(q, edges), parts, edges


def _searched(adjacency, parts=()):
    """max_clique's result and the counters its search recorded."""
    with recording() as stages, stage("search"):
        result = max_clique(adjacency, parts=parts)
    return result, stages[0]["counters"]


def test_max_clique_with_a_proper_hint_matches_the_reference_and_brute_force():
    settled = 0
    for seed in range(150):
        rng = random.Random(seed)
        q = rng.randrange(1, 13)
        adjacency, parts, edges = _partitioned_graph(
            rng, q, rng.randrange(1, 5), rng.choice((0.3, 0.7, 1.0))
        )
        expected = reference.max_clique(adjacency)
        assert expected[0] == _brute_force_max_clique(q, edges)
        assert max_clique(adjacency) == expected, seed
        (order, witness), counters = _searched(adjacency, parts)
        assert (order, witness) == expected, seed
        settled += counters.get("hint_stops", 0)
    assert settled > 50  # the bound is often tight on these graphs


@pytest.mark.parametrize("k", (2, 3, 5))
def test_max_clique_with_a_proper_hint_agrees_with_networkx(k):
    nx = pytest.importorskip("networkx")
    rng = random.Random(k)
    for q in range(1, 41):
        adjacency, parts, edges = _partitioned_graph(rng, q, k, rng.choice((0.2, 0.6, 0.9)))
        graph = nx.Graph(edges)
        graph.add_nodes_from(range(q))
        _, expected = nx.max_weight_clique(graph, weight=None)
        order, witness = max_clique(adjacency, parts=parts)
        assert order == expected, (q, k)
        assert graph.subgraph(witness).number_of_edges() == order * (order - 1) // 2
        assert (order, witness) == reference.max_clique(adjacency)


@pytest.mark.parametrize("k", (2, 3, 4))
def test_max_clique_hint_settles_the_search_early(k):
    # complete k-partite: the first clique found, down one branch, is a maximum
    adjacency, parts, _ = _partitioned_graph(random.Random(k), 40, k, 1.0)
    assert all(parts)
    (plain, plain_counters), (hinted, counters) = _searched(adjacency), _searched(adjacency, parts)
    assert plain == hinted == reference.max_clique(adjacency)
    assert plain[0] == k
    positions = {2: 3, 3: 11, 4: 21}[k]  # of the smallest-last order, read down one branch
    assert counters == {"clique_nodes": k - 1, "order_positions": positions, "hint_stops": 1}
    assert plain_counters["clique_nodes"] > k - 1 and "hint_stops" not in plain_counters
    assert plain_counters["order_positions"] > positions  # the order is built as far as it is read


TRIANGLE_PLUS = _adjacency(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "parts",
    [
        [0b0011, 0b1100],  # the edge {0, 1} lies inside a part: accepted, it would stop at 2
        [0b0001, 0b0010, 0b0100],  # vertex 3 lies in no part
        # independent parts, but vertex 3 lies in two: accepted, it would count a hint stop
        [0b1001, 0b1010, 0b0100],
        [0b0001, 0b0010, 0b0100, 0b1000, 0b10000],  # a bit past the last vertex
        [0b0001, 0b0010, -0b0100],  # a negative mask
        [0b1111],  # one part holding every edge
    ],
)
def test_max_clique_ignores_an_improper_hint(parts):
    result, counters = _searched(TRIANGLE_PLUS, parts)
    assert result == reference.max_clique(TRIANGLE_PLUS) == (3, [0, 1, 2])
    assert "hint_stops" not in counters


def test_max_clique_matches_the_reference_on_color_classes():
    # k = 3 and 4: classes whose clique number can sit below their part count
    for k, count, seed in ((2, 300, 7), (3, 200, 3), (4, 150, 5)):
        system = ShiftSystem(k)
        points = sample_periodic_points(k, 3, count, seed)
        g = color_graph(system, greedy_separated(system, points, system.epsilon(1)), 1)
        class_masks = color_classes(g)
        for c in sorted(g.colors_used()):
            masks = class_masks(c)
            v = g.colors[c]
            parts = [
                sum(1 << i for i, x in enumerate(g.vertices) if x.at(v.x, v.y) == s)
                for s in range(k)
            ]
            expected = reference.max_clique(masks)
            assert max_clique(masks, parts=parts) == expected, (k, c)
            assert max_clique(masks) == expected, (k, c)


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
        order = list(_LazyOrder(masks).ranked((1 << len(masks)) - 1))
        assert order == reference.degeneracy_order(masks), (q, density)


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
    class_masks = color_classes(g)
    for c in sorted(g.colors_used()):
        masks = class_masks(c)
        order = list(_LazyOrder(masks).ranked((1 << len(masks)) - 1))
        assert order == reference.degeneracy_order(masks), c


@pytest.mark.parametrize(("n", "max_vertices"), [(1, None), (2, 200)])
def test_color_classes_match_color_class_adjacency(n, max_vertices):
    g = _shift_graph(n, max_vertices)
    class_masks = color_classes(g)
    for c in range(len(g.colors)):  # an unused color's class has no edges
        assert class_masks(c) == reference.color_class_adjacency(g, c), c


@pytest.mark.parametrize(
    ("n", "width", "count", "typecode"), [(1, 3, 60, "B"), (2, 5, 150, "B"), (40, 5, 80, "H")]
)
def test_class_masks_match_the_one_pass_build(n, width, count, typecode):
    # palettes 9, 25 and 6561: one byte plane, and two (color indices near
    # 3280 = 0x0cd0, so both bytes vary)
    pts = sample_periodic_points(2, width, count, seed=n)
    g = color_graph(SYSTEM, greedy_separated(SYSTEM, pts, SYSTEM.epsilon(width // 2)), n)
    assert g.edge_colors.typecode == typecode
    expected = reference.color_classes(g)
    class_masks = color_classes(g)
    for c in range(len(g.colors)):
        assert class_masks(c) == expected.get(c, [0] * g.vertex_count), c


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


X11 = PeriodicConfiguration.constant(2, 11)


@pytest.mark.parametrize(
    "vertices, certificate",
    [
        ((X11,), (None, True)),  # no pair to separate
        ((X11, X11), (None, False)),  # identical images are at distance zero
        ((X11, X11.with_cell(5, 0, 1)), (5, False)),  # exponent 5 misses the threshold 3
    ],
)
def test_certificate_on_hand_built_graphs(vertices, certificate):
    edges = len(vertices) * (len(vertices) - 1) // 2
    g = ColoredGraph(SYSTEM, 0, vertices, array("B", bytes(edges)), {})  # every edge (0, 0)
    report = mono_clique_report(g)
    assert (report.attained_exponent, report.separation_passed) == certificate


@pytest.mark.parametrize("q", [1, 2, 5])
def test_unused_color_entry_is_max_clique_of_an_empty_class(q):
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, q, seed=3), 2)
    unused = set(range(len(g.colors))) - g.colors_used()
    assert unused
    empty = max_clique([0] * q)
    assert empty == (1, [0])
    for entry in mono_clique_report(g).colors:
        if entry.index in unused:
            assert (entry.order, list(entry.witness)) == empty


def test_small_graph_with_large_palette_keeps_its_report():
    # 4 vertices at n = 40: two of the 6561 colors are used, and every
    # unused one still gets its report entry without a search
    pts = sample_periodic_points(2, 3, 4, seed=1)
    g = read_decg(decg_dumps(color_graph(SYSTEM, pts, 40)).encode())
    assert len(g.colors) == 6561 and len(g.colors_used()) == 2
    report = mono_clique_report(g)
    for entry in report.colors:
        adjacency = reference.color_class_adjacency(g, entry.index)
        assert (entry.order, list(entry.witness)) == max_clique(adjacency), entry.index
    text = json.dumps(report.to_json(), indent=2) + "\n"
    assert f"{fnv1a64(text.encode()):016x}" == "d0a3b268a79e51b0"


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
    bad_colors = g.edge_colors[:]
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
        edge_colors=bad_colors,
        edge_quality=g.edge_quality,
        sampled=g.sampled,
    )
    bad = revalidate_edges(tampered)
    assert bad is not None
    assert bad[:2] == (0, 1)


def test_revalidate_catches_wrong_stored_exponent():
    g = _k16()
    quality = dict(g.edge_quality)
    quality[5] = 1
    tampered = ColoredGraph(
        system=g.system,
        n=g.n,
        vertices=g.vertices,
        edge_colors=g.edge_colors,
        edge_quality=quality,
        sampled=g.sampled,
    )
    bad = revalidate_edges(tampered)
    assert bad is not None
    assert "stored exponent" in bad[2]


def _mutated(graph, rng, edits):
    """The graph with `edits` random edges given a random color and a
    random stored exponent."""
    colors, quality = graph.edge_colors[:], dict(graph.edge_quality)
    t = graph.system.threshold_exponent
    for _ in range(edits):
        e = rng.randrange(graph.edge_count)
        if rng.random() < 0.5:
            colors[e] = rng.randrange(len(graph.colors))
        if rng.random() < 0.5:
            quality[e] = rng.choice((0, 1, 2, t, t + 1, rng.randrange(10**6)))
    quality = {e: x for e, x in quality.items() if x}  # stored sparsely
    return ColoredGraph(graph.system, graph.n, graph.vertices, colors, quality, graph.sampled)


@pytest.mark.parametrize(("k", "n", "count"), [(2, 1, 40), (3, 1, 30), (4, 2, 20), (2, 3, 25)])
def test_row_revalidation_reports_the_references_first_bad_edge(k, n, count):
    system = ShiftSystem(k)
    points = sample_periodic_points(k, 2 * n + 1, count, seed=k + n)
    g = color_graph(system, greedy_separated(system, points, system.epsilon(n)), n)
    assert revalidate_edges(g) is None is reference.revalidate_edges(g)
    rng = random.Random(k * 100 + n)
    failures = 0
    for trial in range(60):
        bad = _mutated(g, rng, rng.choice((1, 1, 2, 5)))
        expected = reference.revalidate_edges(bad)
        assert revalidate_edges(bad) == expected, trial
        failures += expected is not None
    assert failures > 30


@functools.cache
def _sampled_n1():
    points = sample_periodic_points(2, 3, 40, seed=3)
    return color_graph(SYSTEM, greedy_separated(SYSTEM, points, SYSTEM.epsilon(1)), 1)


def _revalidated(graph):
    """revalidate_edges(graph) and its count of edges measured one by one."""
    with recording() as stages, stage("revalidate"):
        bad = revalidate_edges(graph)
    return bad, stages[0]["counters"]["edges_measured"]


def test_row_pass_still_measures_a_bad_last_edge_of_its_row():
    g = _sampled_n1()
    q = g.vertex_count
    assert _revalidated(g) == (None, 0)
    i = 7
    x, y = g.vertices[i], g.vertices[q - 1]
    colors = g.edge_colors[:]
    # a cell where the endpoints agree: the shift by it separates them less
    colors[g.edge_index(i, q - 1)] = next(c for c, v in enumerate(g.colors) if x.at(*v) == y.at(*v))
    bad = ColoredGraph(g.system, g.n, g.vertices, colors, {}, g.sampled)
    expected = reference.revalidate_edges(bad)
    assert expected[:2] == (i, q - 1)
    assert _revalidated(bad) == (expected, 1)


def test_row_pass_does_not_skip_a_row_hiding_one_stored_exponent():
    g = _sampled_n1()
    e = g.edge_index(5, 20)  # mid-row: its neighbours pass at their cells
    bad = ColoredGraph(g.system, g.n, g.vertices, g.edge_colors, {e: 1}, g.sampled)
    assert reference.revalidate_edges(bad) == (5, 20, "stored exponent 1, recomputed 0")
    assert _revalidated(bad) == ((5, 20, "stored exponent 1, recomputed 0"), 1)


@pytest.mark.parametrize(
    "colors, exponents, bad",
    [
        ((120, 60, 120), {}, (0, 2, "endpoints are identical points")),
        # the stored exponent is the achieved one, but above the threshold
        ((60, 120, 120), {0: 5}, (0, 1, "achieved exponent 5 exceeds threshold 3")),
        ((120, 120, 120), {1: 1}, (0, 2, "endpoints are identical points")),
        ((120, 120, 120), {0: 1}, (0, 1, "stored exponent 1, recomputed 0")),
    ],
)
def test_row_revalidation_names_each_kind_of_bad_edge(colors, exponents, bad):
    # vertices 0 and 2 are identical and differ from vertex 1 only at (5, 5);
    # at n = 5, color 120 is the vector (5, 5) and color 60 is (0, 0)
    x = PeriodicConfiguration.constant(2, 11)
    y = x.with_cell(5, 5, 1)
    g = ColoredGraph(SYSTEM, 5, (x, y, x), array("B", colors), exponents)
    assert revalidate_edges(g) == reference.revalidate_edges(g) == bad


@pytest.mark.parametrize("other", [PeriodicConfiguration.constant(2, 5), PeriodicConfiguration.constant(3, 3)])
def test_revalidation_refuses_vertices_from_different_shifts(other):
    # the graph refuses such vertices itself, so revalidation never meets them
    x = PeriodicConfiguration.constant(2, 3)
    with pytest.raises(MismatchedSystems):
        ColoredGraph(SYSTEM, 1, (x, x.with_cell(0, 0, 1), other), array("B", (4, 4, 4)), {})
    # one period, but not the graph's alphabet
    z = PeriodicConfiguration.constant(3, 3)
    vertices = (z, z.with_cell(0, 0, 1), z.with_cell(0, 0, 2))
    with pytest.raises(MismatchedSystems, match="point over 3 symbols in a 2-symbol shift"):
        ColoredGraph(SYSTEM, 1, vertices, array("B", (4, 4, 4)), {})
    g = ColoredGraph(ShiftSystem(3), 1, vertices, array("B", (4, 4, 4)), {})
    assert revalidate_edges(g) is None and reference.revalidate_edges(g) is None


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
