"""Tests for the edge colorer and the DECG file format."""

import random

import pytest

import reference
from decg import (
    BadFormat,
    ChecksumMismatch,
    ColorSet,
    LatticeVector,
    NoWitness,
    PeriodicConfiguration,
    ShiftSystem,
    UnknownColor,
    color_graph,
    decg_dumps,
    enumerate_periodic_points,
    find_witness,
    fnv1a64,
    greedy_separated,
    read_decg,
    sample_periodic_points,
    write_decg,
)

SYSTEM = ShiftSystem(2)


def _graph(width, n, count=None, seed=7):
    if count is None:
        pts = list(enumerate_periodic_points(2, width))
        sampled = "full"
    else:
        pts = sample_periodic_points(2, width, count, seed)
        sampled = f"subsampled seed={seed}"
    sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(n))
    return color_graph(SYSTEM, sep, n, sampled=sampled)


def test_fnv1a64_reference_vectors():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@pytest.mark.parametrize("n", range(5))
def test_color_set_matches_the_materialized_table(n):
    table = reference.color_vectors(n)
    colors = ColorSet(n)
    assert len(colors) == len(table) == (2 * n + 1) ** 2
    assert tuple(colors) == table
    for c, v in enumerate(table):
        assert colors[c] == v
        assert colors.index_of(v) == c
    for c in (-1, len(table)):
        with pytest.raises(UnknownColor):
            colors[c]


def test_color_set_corners_and_centre():
    c1 = ColorSet(1)
    assert c1[0] == LatticeVector(-1, -1)
    assert c1[8] == LatticeVector(1, 1)
    assert c1.index_of(LatticeVector(0, 0)) == 4
    assert ColorSet(2).index_of(LatticeVector(0, 0)) == 12


def test_color_set_rejects_outside_vectors():
    with pytest.raises(UnknownColor):
        ColorSet(1).index_of(LatticeVector(2, 0))
    with pytest.raises(ValueError):
        ColorSet(-1)


def test_color_set_costs_nothing_at_a_huge_scale():
    n = 10**9
    colors = ColorSet(n)
    last = (2 * n + 1) ** 2 - 1
    assert colors[last] == LatticeVector(n, n)
    assert colors.index_of(LatticeVector(-n, n)) == 2 * n


def test_single_edge_graph():
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(2, 1, 1)
    g = color_graph(SYSTEM, [x, y], 1)
    assert g.edge_count == 1
    assert g.colors[g.color_of(0, 1)] == LatticeVector(-1, 1)
    assert g.edge_quality == (0,)


def test_mini_pipeline_k16():
    g = _graph(2, 1)
    assert g.vertex_count == 16
    assert g.edge_count == 120
    assert len(g.colors) == 9
    assert g.colors_used() <= set(range(9))
    # every edge's color matches the witness search, and shifting by it
    # separates the endpoints maximally
    for i, j, c, quality in g.iter_edges():
        res = find_witness(SYSTEM, g.vertices[i], g.vertices[j], 1)
        assert g.colors[c] == res.vector
        assert quality == 0
        vi = SYSTEM.apply(res.vector, g.vertices[i])
        vj = SYSTEM.apply(res.vector, g.vertices[j])
        assert vi.at(0, 0) != vj.at(0, 0)


def test_color_graph_rejects_unseparated_input():
    x = PeriodicConfiguration.constant(2, 11)
    y = x.with_cell(5, 0, 1)  # distance 2^-5 < 2^-1
    with pytest.raises(NoWitness):
        color_graph(SYSTEM, [x, y], 1)


def test_color_graph_rejects_mixed_periods():
    from decg import MismatchedSystems

    x = PeriodicConfiguration.constant(2, 3)
    y = PeriodicConfiguration.constant(2, 5).with_cell(0, 0, 1)
    with pytest.raises(MismatchedSystems):
        color_graph(SYSTEM, [x, y], 1)


def test_edge_colors_follow_points_not_indices():
    pts = sample_periodic_points(2, 3, 40, seed=3)
    g = color_graph(SYSTEM, pts, 1)
    perm = list(range(40))
    random.Random(0).shuffle(perm)
    permuted = [pts[i] for i in perm]
    h = color_graph(SYSTEM, permuted, 1)
    where = {p: idx for idx, p in enumerate(permuted)}
    for i in range(40):
        for j in range(i + 1, 40):
            a, b = where[pts[i]], where[pts[j]]
            lo, hi = min(a, b), max(a, b)
            assert g.colors[g.color_of(i, j)] == h.colors[h.color_of(lo, hi)]


def test_decg_round_trip_single_vertex():
    g = color_graph(SYSTEM, [PeriodicConfiguration.constant(2, 3)], 1)
    text = decg_dumps(g)
    back = read_decg(text.encode())
    assert decg_dumps(back) == text
    assert back.vertex_count == 1
    assert back.edge_count == 0


def test_decg_round_trip_bytes_stable(tmp_path):
    g = _graph(2, 1)
    path = tmp_path / "g.decg"
    write_decg(g, path)
    data = path.read_bytes()
    back = read_decg(data)
    assert decg_dumps(back).encode() == data
    assert back.sampled == "full"
    assert back.system == g.system
    assert back.vertices == g.vertices
    assert back.edge_colors == g.edge_colors


def test_decg_round_trip_file(tmp_path):
    g = _graph(3, 1, count=30)
    path = tmp_path / "g.decg"
    write_decg(g, path)
    back = read_decg(path)
    assert back.sampled == "subsampled seed=7"
    assert decg_dumps(back) == decg_dumps(g)


def test_decg_truncated_file():
    g = _graph(2, 1)
    text = decg_dumps(g)
    lines = text.split("\n")
    cut = "\n".join(lines[:30]) + "\n"
    with pytest.raises(BadFormat) as info:
        read_decg(cut.encode())
    assert info.value.line_no == 31
    # cutting mid-line drops the final newline
    with pytest.raises(BadFormat):
        read_decg(text[: len(text) // 2].encode())


def test_decg_checksum_mismatch():
    g = _graph(2, 1)
    text = decg_dumps(g)
    tampered = text.replace("e 0 1 ", "e 0 1  ", 1)
    with pytest.raises((ChecksumMismatch, BadFormat)):
        read_decg(tampered.encode())


def test_decg_stored_checksum_tampered():
    g = _graph(2, 1)
    text = decg_dumps(g)
    stored = text.rsplit("end ", 1)[1].strip()
    flipped = ("0" if stored[0] != "0" else "1") + stored[1:]
    with pytest.raises(ChecksumMismatch):
        read_decg(text.replace(f"end {stored}", f"end {flipped}").encode())


def test_decg_color_vector_consistency():
    g = color_graph(
        SYSTEM,
        [PeriodicConfiguration.constant(2, 3), PeriodicConfiguration.constant(2, 3).with_cell(0, 0, 1)],
        1,
    )
    text = decg_dumps(g)
    # edge line says color 4 = (0, 0); claim a different vector
    bad_line = text.replace("e 0 1 4 0 0 0", "e 0 1 4 1 0 0")
    body, _, _ = bad_line.rpartition("end ")
    rebuilt = body + f"end {fnv1a64(body.encode()):016x}\n"
    with pytest.raises(BadFormat):
        read_decg(rebuilt.encode())


def test_decg_bad_header():
    with pytest.raises(BadFormat) as info:
        read_decg(b"decg 2\n")
    assert info.value.line_no == 1
