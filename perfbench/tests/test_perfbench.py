"""Tests of the benchmark harness itself (not of decg).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Pipeline, Runner, largest_mono_clique  # noqa: E402


def tiny_pipeline(tmp_path, cls=Pipeline) -> Pipeline:
    runner = Runner(ROOT, tmp_path / "work")
    return cls(runner, 3, name="tiny", n=1, max_vertices=30, statement="R_9(3) > 30", pins={})


def test_tiny_pipeline_passes_its_checks(tmp_path):
    steps = tiny_pipeline(tmp_path).iteration(trace=False)
    assert [(s.name, s.exit_code, s.error) for s in steps] == [("color", 0, None), ("cliques", 0, None)]


@pytest.mark.parametrize("where", [0.3, 0.5, 0.9])
def test_flipped_byte_is_a_failed_operation(tmp_path, where):
    class Corrupting(Pipeline):
        def check_color(self):
            verdict = super().check_color()
            path = self.runner.root / self.decg
            data = bytearray(path.read_bytes())
            data[int(len(data) * where)] ^= 0x01
            path.write_bytes(bytes(data))
            return verdict

    color, cliques = tiny_pipeline(tmp_path, Corrupting).iteration(trace=False)
    assert not color.failed
    assert cliques.exit_code == 5
    assert cliques.failed and cliques.error.startswith("exit 5")


def test_wrong_pinned_checksum_fails_the_color_step(tmp_path):
    pipeline = tiny_pipeline(tmp_path)
    pipeline.expected = "0" * 16
    (color,) = pipeline.iteration(trace=False)
    assert color.exit_code == 0 and "expected 0000000000000000" in color.error


def test_counters_repeat_across_traced_runs(tmp_path):
    pipeline = tiny_pipeline(tmp_path)
    first, second = (
        tracer.summarize(s.trace for s in pipeline.iteration(trace=True)) for _ in range(2)
    )
    assert {c: first[c] for c in tracer.COUNTERS} == {c: second[c] for c in tracer.COUNTERS}
    assert first["cliques.edges_revalidated"] == 30 * 29 // 2
    assert first["sepset.kept_ratio"] == 1.0
    decg_size = (ROOT / pipeline.decg).stat().st_size
    # decg_dumps and read_decg each hash the body once (the file minus its
    # 21-byte end line); the CLI hashes the whole file once per command,
    # plus the report that `cliques` emits.
    report_size = (ROOT / pipeline.report).stat().st_size
    assert first["colorer.fnv1a64_bytes"] == 2 * (decg_size - 21)
    assert first["cli.fnv1a64_bytes"] == 2 * decg_size + report_size


def test_self_times_subtract_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 8.0, 0],
        ["c", 7.0, 9.0, 0],  # overlaps b: 5..9 is covered once
        ["d", 9.5, 11.0, 0],  # clipped to the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 3.0, 2.0, 1.5])


def test_summarize_derives_layer_metrics():
    trace = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["colorer.read_decg", 1.0, 5.0, 0],
            ["colorer.fnv1a64", 3.0, 4.0, 1],
            ["cliques.mono_clique_report", 6.0, 9.0, 0],
            ["cliques.max_clique", 6.0, 6.5, 3],
            ["cliques.max_clique", 7.0, 8.5, 3],
        ],
        "counts": {"colorer.fnv1a64_bytes": 100, "cliques.max_clique_calls": 2,
                   "sepset.points_streamed": 4, "sepset.points_kept": 3},
    }
    m = tracer.summarize([trace, trace])
    assert m["cli.self_s"] == pytest.approx(2 * 3.0)
    assert m["colorer.read_decg_s"] == pytest.approx(8.0)
    assert m["colorer.read_decg_self_s"] == pytest.approx(6.0)
    assert m["cliques.max_clique_s"] == pytest.approx(4.0)
    assert m["cliques.max_clique_max_s"] == pytest.approx(1.5)
    assert m["cliques.mono_clique_report_self_s"] == pytest.approx(2.0)
    assert m["cliques.max_clique_calls"] == 4
    assert m["colorer.fnv1a64_bytes"] == 200
    assert m["sepset.kept_ratio"] == pytest.approx(0.75)
    assert set(m) == {name for name, _ in tracer.PER_LAYER}


def test_brute_force_clique_oracle():
    pentagon = [0 if (j - i) % 5 in (1, 4) else 1 for i in range(5) for j in range(i + 1, 5)]
    assert largest_mono_clique(5, pentagon, 2) == 2
    assert largest_mono_clique(4, [0] * 6, 1) == 4
    assert largest_mono_clique(4, [0] * 5, 1) == -1


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER + run.TRACE_EXTRA)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_exits_nonzero_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-p3-q9", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
