"""Tests for the opposite-Ramsey oracle and classical bound formulas.

The oracle's pruned search is cross-checked against plain unpruned
enumeration wherever that is affordable, and against certificate
re-verification everywhere else.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

import reference
from decg import (
    CapExceeded,
    InconsistentCertificate,
    OppositeRamseyResult,
    PeriodicConfiguration,
    PrecisionLoss,
    ShiftSystem,
    color_graph,
    floor_log_shift,
    gg_upper,
    lr_lower,
    mono_clique_report,
    opposite_ramsey_exact,
    opposite_upper_bound,
    ramsey_holds,
    sandwich_report,
    verify_extremal,
)
from decg import intlog
from decg.intlog import ceil_exp, floor_ln
from decg.ramsey import DEFAULT_ORACLE_CAP, bounds_record, edge_list
from decg.record import recording, stage


def _searched(p, q, **kwargs):
    """opposite_ramsey_exact's result and the search nodes it counted."""
    with recording() as stages, stage("search"):
        result = opposite_ramsey_exact(p, q, **kwargs)
    return result, stages[0]["counters"]["oracle_nodes"]


def _max_mono_order(q, edges, coloring):
    """Unpruned reference: largest monochromatic clique of a full coloring."""
    color = dict(zip(edges, coloring))
    best = 1
    for size in range(2, q + 1):
        for combo in itertools.combinations(range(q), size):
            seen = {color[p] for p in itertools.combinations(combo, 2)}
            if len(seen) == 1:
                best = max(best, size)
    return best


def _oracle_r(p, q):
    """Plain enumeration over all p**E colorings, no pruning at all."""
    edges = edge_list(q)
    return min(
        _max_mono_order(q, edges, coloring)
        for coloring in itertools.product(range(p), repeat=len(edges))
    )


# The reference enumerator settles this whole grid in well under a second.
GRID = [(p, q) for p in range(1, 5) for q in range(2, 9)]
UNCAPPED = 10**30


@functools.cache
def _reference(p, q):
    return reference.opposite_ramsey_reference(p, q)


@pytest.mark.parametrize("p,q", GRID)
def test_oracle_matches_unbounded_reference(p, q):
    # the bounded clique search and propagation prune only subtrees that
    # cannot lower the running minimum: same r, same first extremal
    # coloring
    result = opposite_ramsey_exact(p, q, cap=UNCAPPED)
    assert (result.r, result.extremal_coloring) == _reference(p, q)


@pytest.mark.parametrize("p,q", GRID)
def test_ramsey_holds_matches_reference(p, q):
    r, _ = _reference(p, q)
    for k in range(2, q + 2):
        assert ramsey_holds(p, k, q, cap=UNCAPPED) == (k <= r)


@pytest.mark.parametrize("q", range(2, 7))
def test_single_color_is_whole_graph(q):
    result = opposite_ramsey_exact(1, q)
    assert result.r == q
    assert verify_extremal(result)


@pytest.mark.parametrize("p", range(1, 5))
def test_two_vertices(p):
    result = opposite_ramsey_exact(p, 2)
    assert result.r == 2
    assert verify_extremal(result)


def test_r_2_4_against_unpruned_enumeration():
    assert opposite_ramsey_exact(2, 4).r == _oracle_r(2, 4) == 2


@pytest.mark.parametrize("p,q", [(1, 4), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
def test_extremal_is_first_in_enumeration_order(p, q):
    # pruning and color-symmetry breaking must not change the sequential
    # result: same minimum, same lexicographically first extremal coloring
    edges = edge_list(q)
    best, best_col = q + 1, None
    for coloring in itertools.product(range(p), repeat=len(edges)):
        value = _max_mono_order(q, edges, coloring)
        if value < best:
            best, best_col = value, coloring
    result = opposite_ramsey_exact(p, q)
    assert result.r == best
    assert result.extremal_coloring == best_col


def test_r_2_5_pentagon():
    result = opposite_ramsey_exact(2, 5)
    assert result.r == _oracle_r(2, 5) == 2
    assert verify_extremal(result)
    # the extremal coloring is a pentagon/pentagram split: both classes are
    # 2-regular, triangle-free, connected 5-cycles
    edges = edge_list(5)
    for c in (0, 1):
        cls = [e for e, col in zip(edges, result.extremal_coloring) if col == c]
        assert len(cls) == 5
        deg = [0] * 5
        for i, j in cls:
            deg[i] += 1
            deg[j] += 1
        assert deg == [2] * 5


def test_r_3_4_against_unpruned_enumeration():
    result = opposite_ramsey_exact(3, 4)
    assert result.r == _oracle_r(3, 4) == 2
    assert verify_extremal(result)


def test_r_2_6_against_bitmask_enumeration():
    # independent oracle: all 2^15 colorings as bitmasks; a coloring has a
    # monochromatic K_s iff some s-subset's edge mask is constant
    edges = edge_list(6)
    idx = {e: t for t, e in enumerate(edges)}
    subset_masks = {
        size: [
            sum(1 << idx[p] for p in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(6), size)
        ]
        for size in (3, 4, 5, 6)
    }
    best = 7
    for coloring in range(1 << 15):
        value = 2
        for size in (3, 4, 5, 6):
            if any(
                (coloring & m) == 0 or (coloring & m) == m for m in subset_masks[size]
            ):
                value = size
            else:
                break
        best = min(best, value)
    assert best == 3
    result = opposite_ramsey_exact(2, 6)
    assert result.r == 3
    assert verify_extremal(result)


def test_r_3_6_certificate():
    # full unpruned enumeration of 3^15 colorings is out of reach here; the
    # extremal coloring itself certifies r <= 2, and r >= 2 holds because
    # every coloring of a graph with an edge has a monochromatic K_2
    result = opposite_ramsey_exact(3, 6)
    assert result.r == 2
    edges = edge_list(6)
    for coloring_class in range(3):
        cls = {
            frozenset(e)
            for e, c in zip(edges, result.extremal_coloring)
            if c == coloring_class
        }
        for combo in itertools.combinations(range(6), 3):
            assert not all(frozenset(p) in cls for p in itertools.combinations(combo, 2))
    assert verify_extremal(result)


def test_monotonicity():
    values = {
        (p, q): opposite_ramsey_exact(p, q).r
        for p in range(1, 4)
        for q in range(2, 7)
    }
    for p in range(1, 4):
        for q in range(2, 6):
            assert values[(p, q + 1)] >= values[(p, q)]
    for p in range(1, 3):
        for q in range(2, 7):
            assert values[(p + 1, q)] <= values[(p, q)]


def test_definition_consistency_with_ramsey_holds():
    for p, q in [(1, 4), (2, 4), (2, 5), (2, 6), (3, 4)]:
        r = opposite_ramsey_exact(p, q).r
        held = [k for k in range(2, q + 1) if ramsey_holds(p, k, q)]
        assert max(held) == r


def test_ramsey_holds_basics():
    for p in (1, 2, 3):
        for q in (2, 3, 5):
            assert ramsey_holds(p, 2, q)
    assert ramsey_holds(2, 3, 6)
    assert not ramsey_holds(2, 3, 5)
    assert not ramsey_holds(2, 4, 6)
    assert not ramsey_holds(3, 3, 16)  # R_3(3) > 16 (Greenwood & Gleason, 1955)


def test_oracle_cap():
    # the cap is a budget of search nodes, not of nominal colorings
    with pytest.raises(CapExceeded, match="budget of 1000 nodes"):
        opposite_ramsey_exact(2, 12, cap=1000)
    with pytest.raises(CapExceeded, match="budget of 10 nodes"):
        ramsey_holds(3, 3, 8, cap=10)
    # 2^28 and 3^28 nominal colorings, 72 and 62 search nodes
    assert opposite_ramsey_exact(2, 8).r == 3
    assert not ramsey_holds(3, 3, 8)


def test_oracle_refuses_what_it_cannot_hold_before_searching():
    # the search recurses once per edge, and K_33 has 528
    with pytest.raises(CapExceeded, match="K_33 has 528 edges"):
        ramsey_holds(2, 3, 33)
    # nothing prunes before the first leaf, which costs q(q-1)/2 + 1 nodes,
    # so the search's own budget refuses any smaller cap
    with pytest.raises(CapExceeded, match="budget of 15 nodes"):
        opposite_ramsey_exact(1, 6, cap=15)
    assert _searched(1, 6, cap=16)[1] == 16


@pytest.mark.parametrize("q", [3, 4])
def test_colors_past_the_edge_count_change_nothing(q):
    # fresh colors enter one per edge, so 100 colors hold q(q-1)/2 classes
    # (the CLI argv sweep runs 10**9 colors, in a child with a memory limit)
    many, many_nodes = _searched(100, q)
    few, few_nodes = _searched(q * (q - 1) // 2, q)
    assert (many.r, many.extremal_coloring, many_nodes) == (few.r, few.extremal_coloring, few_nodes)
    assert verify_extremal(many)
    # the re-check builds only the classes a coloring uses, whatever their index
    assert verify_extremal(OppositeRamseyResult(100, 3, 2, (0, 5, 99)))


# Taken from the forward-checking search that propagation replaced (23 s
# there): the lexicographically first 2-coloring of K_10 with no
# monochromatic K_4.  Propagation alone took 24 755 nodes, and with the
# lex-leader prune the search takes 292.
P2_Q10_COLORING = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1,
    0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0,
)

# Taken from the propagation search before the lex-leader prune, run once
# with cap=400000 (262 547 nodes, 19 s on a 2-core host under CPython
# 3.11): the lexicographically first 2-coloring of K_11 with no
# monochromatic K_4.  The default budget refused it there.
P2_Q11_COLORING = (
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1,
    1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0,
    0, 0, 0, 0, 0, 0, 1,
)


def test_p2_q10_is_pinned():
    result, nodes = _searched(2, 10)
    assert result.r == 3
    assert result.extremal_coloring == P2_Q10_COLORING
    assert verify_extremal(result)
    assert nodes <= DEFAULT_ORACLE_CAP


def test_p2_q11_is_pinned_under_the_default_budget():
    result = opposite_ramsey_exact(2, 11)
    assert result.r == 3
    assert result.extremal_coloring == P2_Q11_COLORING
    assert verify_extremal(result)


# r(3, 13) = 2 in 3 825 nodes, and the first 3-coloring of K_13 with no
# monochromatic triangle.  The default budget refused (3, 13) before the
# lex-leader prune; verify_extremal re-checks the coloring through the
# clique engine, which shares no code with the search.
P3_Q13_COLORING = (
    0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 0, 0, 1, 1, 1, 0, 0, 2,
    1, 2, 1, 1, 0, 0, 2, 0, 0, 2, 1, 1, 1, 0, 2, 0, 0, 2, 1, 0, 0, 1, 1, 2,
    0, 0, 0, 2, 2, 0, 1, 0, 0, 2, 0, 2, 0, 1, 2, 0, 0, 2, 2, 1, 2, 2, 1, 2,
    0, 2, 1, 1, 0, 1,
)


def test_p3_q13_is_pinned():
    result, nodes = _searched(3, 13)
    assert (result.r, result.extremal_coloring, nodes) == (2, P3_Q13_COLORING, 3825)
    assert verify_extremal(result)


def test_oracle_validation():
    with pytest.raises(ValueError):
        opposite_ramsey_exact(0, 4)
    with pytest.raises(ValueError):
        opposite_ramsey_exact(2, 1)


def test_gg_upper():
    assert gg_upper(2, 2) == 16
    assert gg_upper(1, 7) == 1
    value = gg_upper(9, 2)
    assert value == 150094635296999121
    # cross-check big exponentiation by a naive product
    naive = 1
    for _ in range(18):
        naive *= 9
    assert value == naive


def test_lr_lower():
    assert lr_lower(2, 2, 1) == 16
    assert lr_lower(9, 2, 1) == 262144
    assert lr_lower(9, 2, Fraction(1, 2)) == 512
    assert lr_lower(3, 3, Fraction(1, 3)) == 8
    with pytest.raises(ValueError):
        lr_lower(2, 2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (functools.partial(floor_ln, 0), "floor_ln requires n >= 1, got 0"),
        (functools.partial(ceil_exp, -1), "ceil_exp requires j >= 0, got -1"),
        (functools.partial(ramsey_holds, 0, 3, 4), "parameters must satisfy p >= 1"),
        (functools.partial(lr_lower, 0, 1), "g and k must be >= 1"),
    ],
    ids=["floor_ln", "ceil_exp", "ramsey_holds", "lr_lower"],
)
def test_exact_helpers_refuse_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_exact_helpers_refuse_what_their_bracket_of_e_cannot_decide(monkeypatch):
    # with e bracketed only by [2, 3], e**2 may lie on either side of 5 and ceil(e) may be 2 or 3
    monkeypatch.setattr(intlog, "_e_bounds", lambda: (Fraction(2), Fraction(3)))
    with pytest.raises(PrecisionLoss, match=r"^cannot certify floor_ln\(5\) at m=2$"):
        floor_ln(5)
    with pytest.raises(PrecisionLoss, match=r"^cannot certify ceil_exp\(1\)$"):
        ceil_exp(1)


def test_lower_bound_below_upper_bound():
    for g in range(2, 8):
        for k in range(1, 5):
            rec = bounds_record(g, k)
            assert rec.lr_lower <= rec.gg_upper


def test_sandwich_report_from_certificate():
    report = sandwich_report(9, 512, 2)
    assert report.statements == ("R_9(3) > 512",)
    assert report.lr_at == 2**27
    assert report.certificate_weaker_than_lr
    report2 = sandwich_report(25, 1000, 2)
    assert report2.statements == ("R_25(3) > 1000",)


def test_sandwich_report_exact_mode():
    result = opposite_ramsey_exact(2, 6)
    report = sandwich_report(2, 6, result.r, exact=True)
    assert "R_2(4) > 6" in report.statements
    assert "R_2(3) <= 6" in report.statements


def test_sandwich_report_checks_certificate():
    system = ShiftSystem(2)
    x = PeriodicConfiguration.constant(2, 3)
    y = x.with_cell(0, 0, 1)
    g = color_graph(system, [x, y], 1)
    cert = opposite_upper_bound(mono_clique_report(g), g)
    report = sandwich_report(9, 2, 2, certificate=cert, graph=g)
    assert report.statements == ("R_9(3) > 2",)
    with pytest.raises(InconsistentCertificate):
        sandwich_report(9, 3, 2, certificate=cert, graph=g)
    other = color_graph(system, [x, y, x.with_cell(1, 1, 1)], 1)
    with pytest.raises(InconsistentCertificate):
        sandwich_report(9, 2, 2, certificate=cert, graph=other)


def test_floor_log_shift_small_values():
    assert floor_log_shift(1) == 1
    assert floor_log_shift(2) == 1
    assert floor_log_shift(3) == 2


def test_floor_log_shift_against_float_log():
    # float log is reliable away from the boundaries; spot-check agreement
    for n in list(range(1, 400)) + [10**6, 10**9, 10**12 + 7]:
        f = math.log(n)
        if min(f % 1.0, 1.0 - (f % 1.0)) > 1e-9:
            assert floor_log_shift(n) == int(f) + 1


def test_floor_log_shift_boundaries():
    from decg.intlog import ceil_exp

    # n = ceil(e^m) is the first integer with floor(ln n) = m
    for m in range(1, 30):
        n = ceil_exp(m)
        assert floor_log_shift(n) == m + 1
        assert floor_log_shift(n - 1) == m
