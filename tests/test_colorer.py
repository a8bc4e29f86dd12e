"""Tests for the edge colorer and the DECG file format."""

import gc
import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from decg import colorer
from decg import (
    BadFormat,
    ChecksumMismatch,
    ColoredGraph,
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
    fresh = read_decg(data)
    fresh._checksum = None  # hashed again from the pieces, without the text
    assert fresh.checksum_hex() == f"{reference.fnv1a64(body):016x}"


def _with_exponents(g, quality):
    return ColoredGraph(g.system, g.n, g.vertices, g.edge_colors, tuple(quality))


def _distinct_tail_graph():
    # a distinct exponent on every edge gives every edge line its own tail,
    # more of them than the reader keeps as checked
    g = _graph(5, 2, count=100)
    assert g.edge_count > colorer._CHECKED_TAILS_CAP
    return _with_exponents(g, range(g.edge_count))


def test_decg_reader_past_its_checked_tail_cap_matches_reference():
    h = _distinct_tail_graph()
    data = decg_dumps(h).encode()
    assert read_decg(data) == reference.read_decg(data) == h


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=24), st.integers(0, 2**64 - 1))
def test_one_step_table_step_is_fnv1a64_of_its_token(token, state):
    power, steps = colorer._step_table(token)
    assert (state * power + steps[state & 255]) % 2**64 == fnv1a64(token, state)


INDICES = (0, 9, 10, 99, 100, 101, 999, 1000, 4999)
# negative vectors and nonzero exponents; the first three recur often
# enough to get step tables, the last is new on every line
TAILS = (b"0 -2 -2 7\n", b"11 -1 1 0\n", b"24 2 2 123456789\n")


def _row_tails(i, j):
    """Tails of the edge lines (i, i+1..j)."""
    return [TAILS[k % 3] if k % 7 else b"12 0 0 %d\n" % k for k in range(i + 1, j + 1)]


def test_edge_hasher_equals_reference_fnv_of_the_formatted_lines():
    hasher = colorer._EdgeHasher()  # one hasher: its tables serve any row, in any order
    for i in INDICES:
        for j in [j for j in INDICES if j > i] or [i + 1]:
            tails = _row_tails(i, j)
            lines = b"".join(b"e %d %d " % (i, k) + t for k, t in enumerate(tails, i + 1))
            assert hasher.row(0xCBF29CE484222325, i, tails) == reference.fnv1a64(lines), (i, j)
    assert set(TAILS) <= set(hasher.tails)  # the rest, seen at most 8 times each, have none
    assert len(hasher.tails) == len(TAILS)


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


@pytest.mark.parametrize("graph", ["distinct", "recurring"])
def test_tail_tables_are_capped_in_writer_and_reader(tmp_path, monkeypatch, graph):
    if graph == "distinct":
        h = _distinct_tail_graph()  # no tail recurs, so none earns a table
        expected = 0
    else:
        # 50 exponents per color, each tail on about 4 of 4950 lines: far more
        # tails earn a table than the (lowered) cap admits
        monkeypatch.setattr(colorer, "_TAIL_TABLE_USES", 3)
        monkeypatch.setattr(colorer, "_TAIL_TABLES_CAP", 5)
        g = _graph(5, 2, count=100)
        h = _with_exponents(g, (k % 50 for k in range(g.edge_count)))
        expected = 5
    built = _count_tail_tables(monkeypatch)
    path = tmp_path / "g.decg"
    write_decg(h, path)
    assert len(built) == expected <= colorer._TAIL_TABLES_CAP
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


def _crc32_steps(hasher, state, prefix, i, tails):
    """A stand-in for colorer._EdgeHasher._steps, after `_prepare` has
    built the same tables: CRC-32 of the row index and the tails, chained
    over rows, so the writer and the reader still agree."""
    return zlib.crc32(b"".join(tails), zlib.crc32(b"%d" % i, state & 0xFFFFFFFF))


def test_decg_reader_and_writer_memory_grows_with_edges_not_text(tmp_path, monkeypatch):
    """Peak traced allocation of write_decg and read_decg on the exhaustive
    n = 1 graph (512 vertices, 130 816 edges, a 2.4 MB file).

    Measured on CPython 3.11: write_decg peaks at 0.44 MB (3.3 B/edge) and
    read_decg at 3.8 MB (29.2 B/edge), mostly the graph's two edge tuples.
    Both include the hasher's step tables, about 130 tables of 2 KB.  The
    whole-text writer and reader that streaming replaced peaked at 22.2 MB
    (170 B/edge) and 19.4 MB (148 B/edge).

    tracemalloc traces every int the step arithmetic makes, which would
    cost several seconds per call, so a CRC-32 of each row stands in for
    the steps once the real tables are built: the figures measure what the
    writer and reader hold, tables included, and the hash holds nothing.
    """
    monkeypatch.setattr(colorer._EdgeHasher, "_steps", _crc32_steps)
    graph = _graph(3, 1)
    assert graph.edge_count == 130816
    path = tmp_path / "g.decg"
    written = _peak_traced_bytes(lambda: write_decg(graph, path))
    read = _peak_traced_bytes(lambda: read_decg(path))
    assert written < 8 * graph.edge_count
    assert read < 64 * graph.edge_count
