"""Acceptance suite: the end-to-end exit criteria of the artifact.

Each criterion prints one pass/fail line.  All checks are exact (integer
or boolean) except the box-dimension terms, which carry a 1e-9 tolerance;
the runtime ceilings are asserted as part of the criteria.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with the test names.
"""

import itertools
import json
import time
from fractions import Fraction

from decg import (
    GrowthSequence,
    ShiftDistance,
    ShiftSystem,
    color_graph,
    decg_dumps,
    dimension_sequence,
    enumerate_periodic_points,
    gg_upper,
    greedy_separated,
    lr_lower,
    mono_clique_report,
    opposite_ramsey_exact,
    opposite_upper_bound,
    probe_question,
    read_decg,
    revalidate_edges,
    s_count_shift_exact,
    sample_periodic_points,
    sandwich_report,
    superpoly_check,
    verify_extremal,
    verify_recovery,
)
from decg.cli import main

SYSTEM = ShiftSystem(2, Fraction(2))


def _report(num, name, ok, elapsed=None):
    state = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[acceptance {num}] {name}: {state}{timing}")


def _build(n, count=None, seed=7):
    width = 2 * n + 1
    if count is None:
        pts = enumerate_periodic_points(2, width)
        sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(n), universe="exhaustive")
        sampled = "full"
    else:
        pts = sample_periodic_points(2, width, count, seed)
        sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(n))
        sampled = f"subsampled seed={seed}"
    return color_graph(SYSTEM, sep, n, sampled=sampled)


def test_criterion_1_main_pipeline_n1():
    ok = False
    start = time.perf_counter()
    try:
        pts = enumerate_periodic_points(2, 3)
        sep = greedy_separated(SYSTEM, pts, SYSTEM.epsilon(1), universe="exhaustive")
        assert len(sep) == 512 == s_count_shift_exact(2, 1)
        graph = color_graph(SYSTEM, sep, 1, sampled="full")
        assert graph.edge_count == 130816
        assert len(graph.colors) == 9
        assert len(graph.colors_used()) <= 9
        assert revalidate_edges(graph) is None  # threshold exponent <= 3
        assert all(q <= 3 for q in graph.edge_quality.values())
        report = mono_clique_report(graph)
        assert report.overall_max == 2
        assert report.separation_passed
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, budget 60s"
        ok = True
    finally:
        _report(1, "main pipeline at n=1 (512 vertices, 9 colors, max clique 2)",
                ok, time.perf_counter() - start)


def test_criterion_2_bounded_clique_persistence():
    ok = False
    start = time.perf_counter()
    try:
        for n, count, palette, budget in ((2, 1000, 25, 120.0), (3, 500, 49, 120.0)):
            t0 = time.perf_counter()
            graph = _build(n, count=count, seed=7)
            assert graph.vertex_count == count
            assert len(graph.colors) == palette
            assert revalidate_edges(graph) is None
            report = mono_clique_report(graph)
            assert report.overall_max == 2, f"n={n}: overall {report.overall_max}"
            assert report.separation_passed
            elapsed = time.perf_counter() - t0
            assert elapsed < budget, f"n={n} took {elapsed:.1f}s, budget {budget}s"
        ok = True
    finally:
        _report(2, "bounded clique order persists at n=2 and n=3 (both exactly 2)",
                ok, time.perf_counter() - start)


def test_criterion_3_opposite_ramsey_oracle():
    ok = False
    start = time.perf_counter()
    try:
        results = {}
        for q in range(2, 7):
            results[(1, q)] = opposite_ramsey_exact(1, q)
            assert results[(1, q)].r == q
        for p in range(1, 5):
            result = opposite_ramsey_exact(p, 2)
            results[(p, 2)] = result
            assert result.r == 2
        for p, q, want in ((2, 5, 2), (2, 6, 3), (3, 4, 2)):
            results[(p, q)] = opposite_ramsey_exact(p, q)
            assert results[(p, q)].r == want
        for p in range(1, 4):
            for q in range(2, 7):
                if (p, q) not in results:
                    results[(p, q)] = opposite_ramsey_exact(p, q)
        for p in range(1, 4):
            for q in range(2, 6):
                assert results[(p, q + 1)].r >= results[(p, q)].r
        for p in range(1, 3):
            for q in range(2, 7):
                assert results[(p + 1, q)].r <= results[(p, q)].r
        # every extremal coloring re-verifies through the clique engine
        for result in results.values():
            assert verify_extremal(result)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"oracle suite took {elapsed:.1f}s, budget 300s"
        ok = True
    finally:
        _report(3, "opposite-Ramsey oracle values, monotonicity, extremal re-verification",
                ok, time.perf_counter() - start)


def test_criterion_4_recovery_contract():
    ok = False
    start = time.perf_counter()
    try:
        # w=3: every pair of all 512 patterns, at every applicable scale
        pts3 = list(enumerate_periodic_points(2, 3))
        for n in (1, 2, 3):
            report = verify_recovery(SYSTEM, itertools.combinations(pts3, 2), n)
            assert report.ok, f"w=3 n={n}: {len(report.failures)} failures"
            assert report.pairs_checked + report.skipped == 512 * 511 // 2
        # w=5: every pair of the standard seed-7 sample of 1000 patterns
        # (the full 2^25-point universe is out of desk-scale reach)
        pts5 = sample_periodic_points(2, 5, 1000, seed=7)
        for n in (1, 2, 3, 4, 5):
            report = verify_recovery(SYSTEM, itertools.combinations(pts5, 2), n)
            assert report.ok, f"w=5 n={n}: {len(report.failures)} failures"
            assert report.pairs_checked + report.skipped == 1000 * 999 // 2
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"recovery suite took {elapsed:.1f}s, budget 120s"
        ok = True
    finally:
        _report(4, "recovery contract holds on every checked pair (w=3 exhaustive, w=5 sampled)",
                ok, time.perf_counter() - start)


def test_criterion_5_growth_and_dimension():
    ok = False
    start = time.perf_counter()
    try:
        seq = GrowthSequence.shift_closed_form(2, 14)
        terms = dimension_sequence(GrowthSequence(seq.entries[:4]), Fraction(2))
        for n, term in zip(range(1, 5), terms):
            assert abs(term - (2 * n + 1) ** 2 / n) < 1e-9
        assert all(b > a for a, b in zip(terms[1:], terms[2:]))  # increasing from n=2
        exp_report = superpoly_check(seq, "exponential-ratio", 1024, n0=2)
        assert exp_report.established
        log_report = superpoly_check(seq, "log-composition", 5, grid_limit=10**6)
        assert log_report.established
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"growth checks took {elapsed:.1f}s, budget 10s"
        ok = True
    finally:
        _report(5, "dimension terms match closed form to 1e-9; both growth checks pass",
                ok, time.perf_counter() - start)


def test_criterion_6_question_probe():
    ok = False
    start = time.perf_counter()
    try:
        assert probe_question(SYSTEM, 1) is None
        assert probe_question(SYSTEM, 2) is None
        result = probe_question(SYSTEM, 3)
        assert result is not None
        # both defining inequalities, rechecked exhaustively here
        assert result.distance >= ShiftDistance(9)
        from decg import ball_vectors, shift_min_diff

        best = None
        for v in ball_vectors(3):
            d = shift_min_diff(SYSTEM.apply(v, result.x), SYSTEM.apply(v, result.y))
            if best is None or d > best:
                best = d
        assert not best >= SYSTEM.threshold
        assert best == result.best_shifted
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"probe took {elapsed:.1f}s, budget 30s"
        ok = True
    finally:
        _report(6, "probe: none at n=1,2; verified counterexample at n=3",
                ok, time.perf_counter() - start)


def test_criterion_7_classical_comparisons():
    ok = False
    start = time.perf_counter()
    try:
        assert gg_upper(9, 2) == 9**18 == 150094635296999121
        assert lr_lower(9, 2, 1) == 2**18 == 262144
        graph = _build(1)
        report = mono_clique_report(graph)
        cert = opposite_upper_bound(report, graph)
        assert cert.statement == "R_9(3) > 512"
        assert cert.verified
        sandwich = sandwich_report(9, 512, 2, certificate=cert, graph=graph)
        assert sandwich.statements == ("R_9(3) > 512",)
        assert sandwich.lr_at == lr_lower(9, 3, 1) == 2**27
        assert sandwich.certificate_weaker_than_lr  # 512 < 2^27, reported honestly
        ok = True
    finally:
        _report(7, "classical bound values and the verified R_9(3) > 512 certificate",
                ok, time.perf_counter() - start)


def test_criterion_8_reproducibility(tmp_path):
    ok = False
    start = time.perf_counter()
    try:
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            g = d / "g.decg"
            threads = "1" if run == "a" else "4"
            assert main(["color", "--k", "2", "--n", "1", "--threads", threads,
                         "--out", str(g)]) == 0
            rep = d / "rep.json"
            assert main(["cliques", str(g), "--threads", threads, "--out", str(rep)]) == 0
            opp = d / "opp.json"
            assert main(["opposite", "--p", "2", "--q", "6", "--out", str(opp)]) == 0
            dim = d / "dim.csv"
            assert main(["dimension", "--k", "2", "--n-max", "4", "--out", str(dim)]) == 0
            prb = d / "probe.json"
            assert main(["probe", "--n", "3", "--out", str(prb)]) == 0
            bnd = d / "bounds.json"
            assert main(["bounds", "--g", "9", "--k", "2", "--out", str(bnd)]) == 0
            outputs.append({p.name: p.read_bytes() for p in (g, rep, opp, dim, prb, bnd)})
        assert outputs[0] == outputs[1]
        # DECG round trip is byte-stable
        data = (tmp_path / "a" / "g.decg").read_bytes()
        assert decg_dumps(read_decg(data)).encode() == data
        payload = json.loads(outputs[0]["rep.json"])
        assert payload["clique_report"]["overall_max"] == 2
        ok = True
    finally:
        _report(8, "byte-identical outputs across runs and threads; DECG round trip stable",
                ok, time.perf_counter() - start)
