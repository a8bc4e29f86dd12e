"""Tests for the edge colorer and the DECG file format."""

import dataclasses
import functools
import gc
import random
import re
import sys
import time
import tracemalloc
import zlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from decg import cliques, colorer
from decg import (
    BadFormat,
    CapExceeded,
    ChecksumMismatch,
    ColoredGraph,
    ColorSet,
    LatticeVector,
    NoWitness,
    PeriodicConfiguration,
    SeparatedSet,
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
from decg.record import recording, stage

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
    assert g.edge_quality == {}  # no edge above exponent 0


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
    # every other pair differs at (0, 0) or (0, 1); the error names (1, 3)
    points = [x.with_cell(0, 0, 1), x, x.with_cell(0, 1, 1), y]
    with pytest.raises(NoWitness, match="vertices 1 and 3 agree") as info:
        color_graph(SYSTEM, points, 1)
    assert info.value.pair == (1, 3)


def test_color_graph_rejects_no_vertices():
    for vertices in ([], SeparatedSet((), SYSTEM.epsilon(1))):
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            color_graph(SYSTEM, vertices, 1)


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


def test_vertex_cap_holds_for_graphs_and_for_decg_headers():
    """A header past the cap fails at its own line, before any vertex
    line is read; one at the cap reads on, to the missing vertex lines.
    No graph past the cap can be built, so the reader accepts every graph
    the writer can write."""
    assert cliques.CLIQUE_CAP == colorer.CLIQUE_CAP == 5000
    header = b"decg 1\nsystem shift k=2 alpha=2/1\nn 2\nvertices %d  colors 25  sampled full\n"
    for q, line_no in ((5000, 5), (5001, 4), (10**6, 4)):
        with pytest.raises(BadFormat) as info:
            read_decg(header % q)
        assert info.value.line_no == line_no, q
    assert str(info.value) == "line 4: vertex count 1000000 is not between 1 and the cap 5000"
    x = PeriodicConfiguration.constant(2, 3)
    with pytest.raises(CapExceeded, match="^5001 vertices exceeds cap 5000$"):
        ColoredGraph(SYSTEM, 1, (x,) * 5001, array("B"), {})
    with pytest.raises(CapExceeded, match="^5001 vertices exceeds cap 5000$"):
        color_graph(SYSTEM, [x] * 5001, 1)  # before any edge, so not NoWitness


@pytest.mark.parametrize(
    "graph",
    [
        color_graph(SYSTEM, [PeriodicConfiguration.constant(2, 3)], 1),
        _graph(2, 1),
        _graph(3, 1, count=30),
    ],
    ids=["one-vertex", "w2-full", "w3-sampled"],
)
def test_write_decg_and_checksum_match_decg_dumps(tmp_path, graph):
    path = tmp_path / "g.decg"
    write_decg(graph, path)
    data = path.read_bytes()
    assert data == decg_dumps(graph).encode()
    body = data[: data.rindex(b"end ")]
    fresh = dataclasses.replace(read_decg(data))  # hashed again by checksum_hex
    assert fresh.checksum_hex() == f"{reference.fnv1a64(body):016x}"


def test_a_replaced_graph_does_not_keep_the_old_checksum():
    graph = read_decg(decg_dumps(_graph(2, 1)).encode())
    colors = graph.edge_colors[:]
    colors[0] = (colors[0] + 1) % len(graph.colors)
    changed = dataclasses.replace(graph, edge_colors=colors)
    checksum = changed.checksum_hex()  # before decg_dumps, which would set it
    assert checksum != graph.checksum_hex()
    assert decg_dumps(changed).endswith(f"end {checksum}\n")


def test_a_graph_refuses_assignment():
    graph = _graph(2, 1)
    graph.checksum_hex()
    for name, value in [("system", ShiftSystem(3)), ("edge_quality", {0: 1}), ("_checksum", None)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(graph, name, value)
    assert read_decg(decg_dumps(graph).encode()) == graph


def _with_exponents(g, quality):
    return ColoredGraph(
        g.system, g.n, g.vertices, g.edge_colors, {e: x for e, x in enumerate(quality) if x}
    )


def _distinct_tail_graph():
    # a distinct exponent on every edge gives every edge line its own tail,
    # more of them than the reader remembers as checked or the hasher
    # builds step tables for
    g = _graph(5, 2, count=100)
    assert g.edge_count > colorer._TAIL_CAP
    return _with_exponents(g, range(g.edge_count))


def test_decg_reader_past_its_checked_tail_cap_matches_reference():
    h = _distinct_tail_graph()
    data = decg_dumps(h).encode()
    assert read_decg(data) == reference.read_decg(data) == h


def _best_read_cpu_s(data: bytes) -> float:
    times = []
    for _ in range(3):
        start = time.process_time()
        read_decg(data)
        times.append(time.process_time() - start)
    return min(times)


def test_reader_work_stays_linear_when_every_line_is_checked_singly():
    """A 300-vertex graph read as written, and with exponent e + 1 on edge
    e, so that each of its 44 850 edge lines has its own tail and is
    checked on its own.  Measured on CPython 3.11: the second read costs
    2.6-3.7 times the first; a reader that re-scanned the rest of its
    batch after each such line took 15-16 times."""
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, 300, 2), 2)
    honest = decg_dumps(g).encode()
    distinct = decg_dumps(_with_exponents(g, range(1, g.edge_count + 1))).encode()
    assert _best_read_cpu_s(distinct) <= 8 * _best_read_cpu_s(honest)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=24), st.integers(0, 2**64 - 1))
def test_one_step_table_step_is_fnv1a64_of_its_token(token, state):
    power, steps = colorer._step_table(token)
    assert (state * power + steps[state & 255]) % 2**64 == fnv1a64(token, state)


INDICES = (0, 9, 10, 99, 100, 101, 999, 1000, 4999)
# negative vectors and nonzero exponents; the first three recur, the last
# is new on every line
TAILS = (b"0 -2 -2 7\n", b"11 -1 1 0\n", b"24 2 2 123456789\n")


def _row_tails(i, j):
    """Tails of the edge lines (i, i+1..j)."""
    return [TAILS[k % 3] if k % 7 else b"12 0 0 %d\n" % k for k in range(i + 1, j + 1)]


def test_edge_hasher_equals_reference_fnv_of_the_formatted_lines():
    hasher = colorer._EdgeHasher(5001)  # one hasher: its tables serve any row, in any order
    for i in INDICES:
        for j in [j for j in INDICES if j > i] or [i + 1]:
            tails = _row_tails(i, j)
            lines = b"".join(b"e %d %d " % (i, k) + t for k, t in enumerate(tails, i + 1))
            assert hasher.row(0xCBF29CE484222325, i, tails) == reference.fnv1a64(lines), (i, j)
    assert set(TAILS) <= set(hasher.tails)  # tabled at their first lines
    assert len(hasher.tails) == colorer._TAIL_CAP  # the "12 0 0 k" tails fill the rest


def test_edge_hasher_tail_tables_stay_within_their_cap():
    cap = colorer._TAIL_CAP
    hasher = colorer._EdgeHasher(cap + 102)  # rows 0 and 1 reach j = cap + 101
    state, lines = 0xCBF29CE484222325, []
    for i in range(2):  # every line has its own tail, across rows too
        tails = [b"%d 0 0 %d\n" % (i, k) for k in range(cap + 100)]
        state = hasher.row(state, i, tails)
        lines += [b"e %d %d " % (i, j) + t for j, t in enumerate(tails, i + 1)]
    assert len(hasher.tails) == cap
    assert state == reference.fnv1a64(b"".join(lines))


@pytest.mark.parametrize("exponents", [False, True], ids=["honest", "exponents"])
def test_decg_round_trip_across_the_base_100_boundary(tmp_path, exponents):
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, 130, 7), 2)
    assert g.vertex_count == 130
    if exponents:
        g = _with_exponents(g, (k % 3 for k in range(g.edge_count)))
    path = tmp_path / "g.decg"
    write_decg(g, path)
    data = path.read_bytes()
    assert data == decg_dumps(g).encode()
    body = data[: data.rindex(b"end ")]
    assert g.checksum_hex() == f"{reference.fnv1a64(body):016x}"
    assert read_decg(path) == reference.read_decg(data) == g


@pytest.mark.parametrize("q", [1, 2, 99, 100, 101, 102, 201, 202])
def test_checksum_and_round_trip_at_the_hasher_table_boundaries(q):
    """q at each step of the hasher's index tables: min(q, 100) "j "
    tables, the "jj " and "h" tables from q = 101 (a third "h" at 201),
    and one more row head at q = 102 and at 202."""
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, q, 7), 2)
    assert g.vertex_count == q
    data = decg_dumps(g).encode()
    assert g.checksum_hex() == f"{reference.fnv1a64(data[: data.rindex(b'end ')]):016x}"
    assert read_decg(data) == reference.read_decg(data) == g


def _count_tail_tables(monkeypatch) -> list:
    """Record every tail ("...\\n") that gets a step table from now on."""
    built = []
    real = colorer._step_table

    def counting(token):
        if token.endswith(b"\n"):
            built.append(token)
        return real(token)

    monkeypatch.setattr(colorer, "_step_table", counting)
    return built


@pytest.mark.parametrize("graph", ["honest", "distinct", "recurring"])
def test_tail_tables_are_capped_in_writer_and_reader(tmp_path, monkeypatch, graph):
    if graph == "honest":
        h = _graph(3, 1)  # one tail per color used, each tabled at its first line
        expected = 9
    elif graph == "distinct":
        h = _distinct_tail_graph()  # every line has its own tail: the cap stops the tables
        expected = colorer._TAIL_CAP
    else:
        # 50 exponents per color, each tail on about 4 of 4950 lines: far more
        # tails than the (lowered) cap admits
        monkeypatch.setattr(colorer, "_TAIL_CAP", 5)
        g = _graph(5, 2, count=100)
        h = _with_exponents(g, (k % 50 for k in range(g.edge_count)))
        expected = 5
    built = _count_tail_tables(monkeypatch)
    path = tmp_path / "g.decg"
    write_decg(h, path)
    assert len(built) == expected <= colorer._TAIL_CAP
    built.clear()
    data = path.read_bytes()
    assert read_decg(data) == reference.read_decg(data) == h
    assert len(built) == expected


def test_decg_non_utf8_line_is_reported_at_its_own_line():
    lines = decg_dumps(_graph(2, 1)).encode().split(b"\n")
    for line_no in (3, 7, 30):  # a header, a vertex and an edge line
        broken = list(lines)
        broken[line_no - 1] += b"\xff"
        with pytest.raises(BadFormat, match="not UTF-8") as info:
            read_decg(b"\n".join(broken))
        assert info.value.line_no == line_no


def _peak_traced_bytes(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _crc32_row(hasher, state, i, tails):
    """A stand-in for colorer._EdgeHasher.row, on a hasher that has built
    its index tables (it builds no tail tables): CRC-32 of the row index
    and the tails, chained over rows, so the writer and the reader still
    agree."""
    return zlib.crc32(b"".join(tails), zlib.crc32(b"%d" % i, state & 0xFFFFFFFF))


def test_decg_reader_and_writer_memory_grows_with_edges_not_text(tmp_path, monkeypatch):
    """Peak traced allocation of write_decg and read_decg on the exhaustive
    n = 1 graph (512 vertices, 130 816 edges, a 2.4 MB file).

    Measured on CPython 3.11: write_decg peaks at 0.49 MB (3.7 B/edge) and
    read_decg at 0.64 MB (4.9 B/edge), the color array (1 B/edge), the
    vertices and the index step tables; it peaked at 3.8 MB (29.2 B/edge)
    while the edges were two tuples of ints.  Both include the hasher's
    index step tables, about 120 tables of 2 KB.  The whole-text writer and
    reader that streaming replaced peaked at 22.2 MB (170 B/edge) and
    19.4 MB (148 B/edge).

    tracemalloc traces every int the step arithmetic makes, which would
    cost several seconds per call, so a CRC-32 of each row stands in for
    `row`; the hasher still builds its index tables from the vertex
    count.  The stand-in builds no tail tables, which the real `row`
    builds as tails earn them (at most one per color used here, 18 KB):
    the figures measure what the writer and reader hold with index tables
    only, and the hash holds nothing.
    """
    monkeypatch.setattr(colorer._EdgeHasher, "row", _crc32_row)
    graph = _graph(3, 1)
    assert graph.edge_count == 130816
    path = tmp_path / "g.decg"
    written = _peak_traced_bytes(lambda: write_decg(graph, path))
    read = _peak_traced_bytes(lambda: read_decg(path))
    assert written < 8 * graph.edge_count
    assert read < 64 * graph.edge_count


@functools.cache
def _w2_shaped_graph():
    """The graph of `decg color --k 2 --n 2 --max-vertices 400 --seed 7`
    (W2 at 400 of its 1000 vertices, 79 800 edges), and its DECG text."""
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, 400, seed=7), 2, "subsampled seed=7")
    assert g.vertex_count == 400
    return g, decg_dumps(g).encode()


def test_read_decg_holds_an_edge_in_a_byte_or_two(tmp_path, monkeypatch):
    """Peak traced allocation of read_decg on a 400-vertex n = 2 graph.

    Measured on CPython 3.11: 0.60 MB, 7.5 B/edge, of which the color
    array is 1 B/edge and the rest is the vertices, the index step tables
    and one row's tails; the CRC-32 stand-in for `row` builds no tail
    tables (at most one per color used, 50 KB).  Edges held as two tuples
    of ints (16 B/edge), built through lists, peaked at 2.56 MB (32.1
    B/edge), so the bound fails them.
    """
    g = _w2_shaped_graph()[0]  # its cached text is signed before the stand-in
    monkeypatch.setattr(colorer._EdgeHasher, "row", _crc32_row)
    path = tmp_path / "g.decg"
    write_decg(g, path)
    assert read_decg(path).edge_colors.typecode == "B"
    assert _peak_traced_bytes(lambda: read_decg(path)) < 16 * g.edge_count


def test_nonzero_exponents_round_trip():
    g = _graph(5, 2, count=40)
    quality = {0: 1, 7: 255, 8: 256, 9: 2**70, g.edge_count - 1: 3}
    h = ColoredGraph(g.system, g.n, g.vertices, g.edge_colors, quality)
    data = decg_dumps(h).encode()
    back = read_decg(data)
    assert back == h == reference.read_decg(data)
    assert back.edge_quality == quality
    assert [e for *_, e in back.iter_edges()] == [quality.get(e, 0) for e in range(g.edge_count)]
    assert decg_dumps(back).encode() == data


def test_graph_takes_only_the_stored_edge_forms():
    g = _graph(5, 2, count=40)
    edges = g.edge_count
    make = functools.partial(ColoredGraph, g.system, g.n, g.vertices)
    assert make(g.edge_colors, {edges - 1: 1}).edge_quality == {edges - 1: 1}
    for colors, quality in [
        (tuple(g.edge_colors), {}),  # not an array
        (array("H", g.edge_colors), {}),  # 25 colors are held in bytes
        (g.edge_colors, (0,) * edges),  # not a dict
        (g.edge_colors, {edges: 1}),
        (g.edge_colors, {-1: 1}),
        (g.edge_colors, {0: -1}),
        (g.edge_colors, {0: 0}),  # exponent 0 is not stored
    ]:
        with pytest.raises(ValueError):
            make(colors, quality)


def _mutations(data: bytes):
    """(name, mutated DECG text) pairs, each edit in a different row.  Only
    the edits that leave a readable file are signed again."""
    lines = data.split(b"\n")

    def at(i: int, j: int) -> int:  # the index in `lines` of edge line (i, j)
        return 4 + 400 + i * (2 * 400 - i - 1) // 2 + (j - i - 1)

    def edit(i: int, j: int, new: bytes, resign: bool = False) -> bytes:
        out = list(lines)
        out[at(i, j)] = new
        if not resign:
            return b"\n".join(out)
        body = b"".join(line + b"\n" for line in out[:-2])  # out[-2] is the end line
        return body + b"end %016x\n" % fnv1a64(body)

    tail = lines[at(40, 44)].split(b" ", 3)[3]
    yield "tail only", edit(40, 44, tail)
    yield "wrong j", edit(45, 100, lines[at(45, 100)].replace(b" 100 ", b" 101 "))
    yield "wrong i", edit(50, 100, lines[at(50, 100)].replace(b"e 50 ", b"e 51 "))
    yield "non-UTF-8", edit(55, 57, lines[at(55, 57)] + b"\xff")
    yield "unseen exponent", edit(200, 201, lines[at(200, 201)][:-1] + b"9", resign=True)
    yield "exponent above 255", edit(210, 216, lines[at(210, 216)][:-1] + b"300", resign=True)
    yield "leading zero", edit(205, 206, lines[at(205, 206)] + b"9", resign=True)
    yield "unseen exponent, unsigned", edit(60, 61, lines[at(60, 61)][:-1] + b"1")
    fields = lines[at(65, 67)].split(b" ")
    fields[4] = b"%d" % (int(fields[4]) + 1)  # vx
    yield "vector mismatch", edit(65, 67, b" ".join(fields))
    yield "duplicated line", b"\n".join(lines[: at(70, 71)] + lines[at(70, 71) - 1 :])
    yield "dropped line", b"\n".join(lines[: at(75, 80)] + lines[at(75, 80) + 1 :])
    yield "truncated mid-row", b"\n".join(lines[: at(80, 350)])
    yield "missing final newline", b"\n".join(lines[: at(85, 355) + 1])


def _outcome(data: bytes):
    try:
        return read_decg(data)
    except (BadFormat, ChecksumMismatch) as exc:
        return type(exc).__name__, str(exc)  # BadFormat's text is "line N: message"


def test_reader_names_the_first_bad_edge_line():
    outcomes = {name: _outcome(mutated) for name, mutated in _mutations(_w2_shaped_graph()[1])}
    read = {name: outcomes.pop(name).edge_quality for name in ("unseen exponent", "exponent above 255")}
    # edge (200, 201) has index 200 * 599 // 2 and (210, 216) 210 * 589 // 2 + 5
    assert read == {"unseen exponent": {59900: 9}, "exponent above 255": {61850: 300}}
    assert outcomes == {
        # a line that is only a tail already checked on an earlier line;
        # edge line (40, 44) is line 5 + 400 + 40 * 759 // 2 + 3 of the file
        "tail only": ("BadFormat", "line 15588: malformed edge line"),
        "wrong j": ("BadFormat", "line 17424: edge (45, 101) out of order, expected (45, 100)"),
        "wrong i": ("BadFormat", "line 19179: edge (51, 100) out of order, expected (50, 100)"),
        "non-UTF-8": (
            "BadFormat",
            "line 20866: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 17: "
            "invalid start byte",
        ),
        # exponent "09": edge line (205, 206) is line 5 + 400 + 205 * 594 // 2
        "leading zero": ("BadFormat", "line 61290: edge fields are not integers as the writer formats them"),
        "unseen exponent, unsigned": (
            "ChecksumMismatch",
            "stored checksum cfb87b2a72feca1e, recomputed defc434b87461e8f",
        ),
        "vector mismatch": ("BadFormat", "line 24261: color index 8 does not encode vector (0, 1)"),
        "duplicated line": ("BadFormat", "line 25920: edge (69, 399) out of order, expected (70, 71)"),
        "dropped line": ("BadFormat", "line 27559: edge (75, 81) out of order, expected (75, 80)"),
        "truncated mid-row": ("BadFormat", "line 29433: file truncated: missing final newline"),
        "missing final newline": ("BadFormat", "line 31019: file truncated: missing final newline"),
    }


def test_reader_stops_at_the_first_bad_edge_line(tmp_path):
    """A bad first edge line fails before the rest of its row is read: the
    398 lines of 25 KB after it (10 MB) are never held."""
    data = _w2_shaped_graph()[1]
    path = tmp_path / "g.decg"
    path.write_bytes(data[: data.index(b"e 0 1 ")] + b"e 0 1 junk\n" + (b"x" * 25_000 + b"\n") * 398)

    def read():
        with pytest.raises(BadFormat, match="line 405: malformed edge line"):
            read_decg(path)

    assert _peak_traced_bytes(read) < 1_000_000


def _batches(data: bytes) -> list[range]:
    """The line numbers of each batch of edge lines that `read_decg` reads
    from a file: lines until their bytes pass min(4096, 14 * edge lines left - 1)."""
    lines = data.split(b"\n")
    q = int(lines[3].split(b" ")[1])
    start, end = 5 + q, 5 + q + q * (q - 1) // 2  # the first edge line and the end line
    batches = []
    while start < min(end, len(lines)):  # a file cut short has fewer lines
        stop, size = start, 0
        while size <= min(4096, 14 * (end - start) - 1):
            size += len(lines[stop - 1]) + 1
            stop += 1
        batches.append(range(start, stop))
        start = stop
    return batches


def _edge_line_no(q: int, i: int, j: int) -> int:
    return 5 + q + i * (2 * q - i - 1) // 2 + (j - i - 1)


@pytest.mark.parametrize("where", ["mid-row", "batch end"])
def test_reader_stops_at_a_bad_line_inside_a_row_or_at_a_batch_end(tmp_path, where):
    """A bad edge line after good lines of its row, or the last line of a
    batch, fails at its own line before the 10 MB of junk lines after it
    are held."""
    data = _w2_shaped_graph()[1]
    lines = data.split(b"\n")
    # its bytes cross the 4 KB hint of the 41st batch, or it is well inside the 3rd
    line_no = _batches(data)[40][-1] if where == "batch end" else _edge_line_no(400, 3, 150)
    bad = lines[line_no - 1][:-1] + b"x"  # same length: the batches up to it stay as they were
    path = tmp_path / "g.decg"
    path.write_bytes(b"\n".join(lines[: line_no - 1] + [bad, b""]) + (b"x" * 25_000 + b"\n") * 398)
    k, batch = next((k, b) for k, b in enumerate(_batches(path.read_bytes())) if line_no in b)
    assert _batches(data)[:k] == _batches(path.read_bytes())[:k]
    if where == "batch end":
        assert (k, batch[-1]) == (40, line_no)
    else:
        assert batch[0] < line_no < batch[-1]

    def read():
        with pytest.raises(BadFormat, match=f"line {line_no}: non-integer edge fields"):
            read_decg(path)

    assert _peak_traced_bytes(read) < 1_000_000


def test_reader_matches_reference_with_exponents_at_batch_ends(tmp_path):
    g = _graph(5, 2, count=100)
    data = decg_dumps(g).encode()
    batches = _batches(data)
    assert len(batches) > 10
    first = 5 + g.vertex_count
    # a one-digit exponent keeps every line's length, so the batches stay put
    ends = {b[0] - first: 1 + k % 9 for k, b in enumerate(batches[::3])}
    ends |= {b[-1] - first: 1 + k % 7 for k, b in enumerate(batches[1::3])}
    h = _with_exponents(g, (ends.get(e, 0) for e in range(g.edge_count)))
    path = tmp_path / "h.decg"
    write_decg(h, path)
    written = path.read_bytes()
    assert _batches(written) == batches
    assert read_decg(path) == reference.read_decg(written) == h
    assert read_decg(path).edge_quality == ends


def test_reader_matches_reference_where_batches_span_short_rows(tmp_path):
    g = color_graph(SYSTEM, sample_periodic_points(2, 5, 130, 7), 2)
    path = tmp_path / "g.decg"
    write_decg(g, path)
    data = path.read_bytes()
    q = g.vertex_count
    row_of = [i for i in range(q - 1) for _ in range(i + 1, q)]  # by edge index
    rows_of = [{row_of[line_no - 5 - q] for line_no in b} for b in _batches(data)]
    # the triangle's last rows, a few lines each, several to a batch
    assert [len(rows) for rows in rows_of[-5:]] == [10, 11, 6, 3, 2]
    with recording() as stages, stage("read"):
        assert read_decg(path) == reference.read_decg(data) == g
    assert stages[0]["counters"]["lines_checked_singly"] == len(g.colors_used())


def test_writer_matches_the_per_line_reference(monkeypatch):
    """Rows meet new colors mid-row and some hold nonzero exponents among
    exponent-0 edges.  The writer's tail map is uncapped; lowering the
    tail cap to 5 caps both hashers' step tables and the reader's `zero`
    map of exponent-0 tails, which new colors outrun on most rows."""
    g = _graph(5, 2, count=60)
    h = _with_exponents(g, (k % 5 if k % 97 < 3 else 0 for k in range(g.edge_count)))
    for graph in (g, h):
        assert decg_dumps(graph) == reference.decg_dumps(graph)
    monkeypatch.setattr(colorer, "_TAIL_CAP", 5)
    for graph in (g, h):
        text = decg_dumps(dataclasses.replace(graph))  # hashed afresh
        assert text == reference.decg_dumps(graph)
        assert read_decg(text.encode()) == graph


def test_palette_past_sys_maxsize_is_refused(tmp_path, capsys):
    # (2n + 1)^2 <= sys.maxsize = 2**63 - 1 exactly when n <= 1518500249:
    # past it len() cannot count the palette
    x = PeriodicConfiguration.constant(2, 3)
    for n in (1518500250, 2**31 - 1, 2**31):
        with pytest.raises(ValueError, match=f"colors exceeds {sys.maxsize}"):
            color_graph(SYSTEM, [x], n)
    assert color_graph(SYSTEM, [x], 1518500249).edge_colors.typecode == "Q"
    header = b"decg 1\nsystem shift k=2 alpha=2/1\nn %d\nvertices 1  colors %d  sampled full\n"
    for n, line_no in ((2**31, 4), (2**31 - 1, 4), (1518500250, 4), (1518500249, 5)):
        with pytest.raises(BadFormat) as info:
            read_decg(header % (n, (2 * n + 1) ** 2))
        assert info.value.line_no == line_no  # the body is missing


# 5 vertices of period 3 over 3 symbols: lines 5-9 are vertex lines, and
# line 10 is edge (0, 1), whose exponent is 0
CANONICAL = decg_dumps(
    color_graph(ShiftSystem(3), sample_periodic_points(3, 3, 5, seed=1), 1, "subsampled seed=7")
)


def _signed_edit(line_no: int, written: str, read: str) -> bytes:
    """CANONICAL with the last `written` on line `line_no` replaced by
    `read`, signed again so that only the edit is wrong."""
    lines = CANONICAL.split("\n")[:-2]  # without the end line
    head, sep, tail = lines[line_no - 1].rpartition(written)
    assert sep, (line_no, written)
    lines[line_no - 1] = head + read + tail
    body = "".join(line + "\n" for line in lines).encode()
    return body + b"end %016x\n" % fnv1a64(body)


@pytest.mark.parametrize(
    "line_no, written, read",
    [
        (2, "k=3", "k=03"),
        (2, "alpha=2/1", "alpha=4/2"),
        (3, "n 1", "n 01"),
        (3, "n 1", "n \u0661"),  # an Arabic-Indic one
        (4, "vertices 5", "vertices 05"),
        (4, "colors 9", "colors 09"),
        (4, "seed=7", "seed=007"),
        (5, "v 0 k3:", "v 0 k03:"),
        (5, ":w3:", ":w03:"),
        (10, "e 0 1 ", "e 0 1 0"),  # the color field
        (10, "e 0 1 ", "e 0 1 +"),
        (10, "e 0 1 ", "e 0 1 \t"),
        (10, "e 0 1 ", "e 0 1 \u00a0"),  # a no-break space
        (10, " 0", " 00"),  # the exponent field
        (10, " 0", " -0"),
        (10, " 0", " +0"),
        (10, " 0", " 0_0"),
        (10, "e 0 1 ", "e 0 1 x"),  # not an integer at all
        (10, " 0", " -1"),  # the writer's form, but a negative exponent
    ],
)
def test_reader_refuses_integers_the_writer_would_not_write(line_no, written, read):
    assert decg_dumps(read_decg(CANONICAL.encode())) == CANONICAL
    data = _signed_edit(line_no, written, read)
    for reader in (read_decg, reference.read_decg):
        with pytest.raises(BadFormat) as info:
            reader(data)
        assert info.value.line_no == line_no


def test_a_non_canonical_field_past_the_line_checks_fails_the_checksum(monkeypatch):
    """The trailer is checked against the writer's text of the graph read,
    so a re-signed `n 01` that a loosened `n` line check lets through
    still fails."""
    monkeypatch.setattr(colorer, "_N_RE", re.compile("n 0*([0-9]+)"))
    with pytest.raises(ChecksumMismatch):
        read_decg(_signed_edit(3, "n 1", "n 01"))


def test_checksum_hex_hashes_the_graph_without_formatting_its_text(monkeypatch):
    graph = dataclasses.replace(read_decg(CANONICAL.encode()))  # no cached checksum

    def unreachable(graph):
        raise AssertionError("checksum_hex formatted the DECG text")

    monkeypatch.setattr(colorer, "_signed_pieces", unreachable)
    assert graph.checksum_hex() == "c96b7049b18bf9be" == CANONICAL[-17:-1]


@pytest.mark.parametrize(
    "written, read, message",
    [
        ("v 1 k3:", "v 1 k4:", "vertex alphabet 4 does not match header k=3"),
        (CANONICAL.split("\n")[5], "v 1 k3:w1:0", "vertex period 1 differs from 3"),
        (  # one row past MAX_PATTERN_CELLS, refused before its cells are checked
            CANONICAL.split("\n")[5],
            "v 1 k3:w65:" + "0" * 65 * 65,
            "65x65 = 4225 cells exceeds the cap of 4096",
        ),
    ],
)
def test_reader_refuses_a_vertex_of_another_shift(written, read, message):
    data = _signed_edit(6, written, read)
    for reader in (read_decg, reference.read_decg):
        with pytest.raises(BadFormat, match=f"^line 6: {message}$"):
            reader(data)


@pytest.mark.parametrize("i, j", [(2, 1), (1, 1), (0, 3), (-1, 0)])
def test_edge_index_refuses_pairs_out_of_order_or_range(i, j):
    g = color_graph(SYSTEM, sample_periodic_points(2, 3, 3, seed=1), 1)
    assert [g.edge_index(0, 1), g.edge_index(0, 2), g.edge_index(1, 2)] == [0, 1, 2]
    with pytest.raises(IndexError, match=f"bad edge \\({i}, {j}\\)"):
        g.edge_index(i, j)


def test_graph_refuses_no_vertex_a_wrong_edge_count_and_a_bad_sampled_tag():
    g = _graph(3, 1, count=30)
    make = functools.partial(ColoredGraph, g.system, g.n)
    with pytest.raises(ValueError, match="at least one vertex"):
        make((), array("B"), {})
    with pytest.raises(ValueError, match=f"needs {g.edge_count} edges"):
        make(g.vertices, g.edge_colors[1:], {})
    for tag in ("subsampled", "subsampled seed=007", "subsampled seed=-1", "subsampled seed=\u0661"):
        with pytest.raises(ValueError, match="bad sampled tag"):
            make(g.vertices, g.edge_colors, {}, tag)
    assert make(g.vertices, g.edge_colors, {}, "subsampled seed=0").sampled == "subsampled seed=0"
