"""Tests for the batch CLI: exit codes, outputs, manifests, reproducibility."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import decg
import reference
from decg import fnv1a64, read_decg
from decg.cli import main
from decg.schemas import load_schema


def _validated(path, schema_name):
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


def _run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["color", "--k", "2"])  # --n and --out missing
    assert info.value.code == 2


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusals
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["color", "--k", "2", "--n", "1", "--vertex-cap", "0"], 2),
        (["color", "--k", "2", "--n", "1", "--vertex-cap", "-1"], 2),
        (["color", "--k", "2", "--n", "1", "--vertex-cap", "many"], 2),
        (["color", "--k", "1", "--n", "1"], 2),
        (["color", "--k", "37", "--n", "1"], 2),
        (["color", "--k", "2", "--n", "-1"], 2),
        (["color", "--k", "2", "--n", "1", "--alpha", "1"], 2),
        (["color", "--k", "2", "--n", "1", "--alpha", "2/0"], 2),
        (["color", "--k", "2", "--n", "1", "--alpha", "two"], 2),
        (["color", "--k", "2", "--n", "1", "--max-vertices", "0"], 2),
        (["cliques", "{tmp}"], 4),
        (["opposite", "--p", "2", "--q", "3", "--cap", "0"], 2),
        (["opposite", "--p", "2", "--q", "3", "--cap", "-5"], 2),
        (["opposite", "--p", "0", "--q", "3"], 2),
        (["opposite", "--p", "2", "--q", "1"], 2),
        (["bounds", "--g", "9", "--k", "2", "--c", "1/0"], 2),
        (["bounds", "--g", "9", "--k", "2", "--c", "-1"], 2),
        (["bounds", "--g", "0", "--k", "2"], 2),
        (["dimension", "--k", "2", "--n-max", "0"], 2),
        (["dimension", "--k", "1", "--n-max", "2"], 2),
        (["dimension", "--k", "37", "--n-max", "2"], 2),
        (["dimension", "--k", "2", "--n-max", "2", "--alpha", "1"], 2),
        (["dimension", "--k", "2", "--n-max", "2", "--alpha", "1/2"], 2),
        (["dimension", "--k", "2", "--n-max", "2", "--alpha", "x"], 2),
        (["probe", "--n", "0"], 2),
        (["probe", "--n", "1", "--k", "37"], 2),
        (["probe", "--n", "1", "--alpha", "1"], 2),
    ],
)
def test_malformed_argv_exits_with_its_code(tmp_path, capsys, argv, code):
    # `cliques` is handed a directory; `color` always gets a fresh --out
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if argv[0] == "color":
        argv += ["--out", str(tmp_path / "g.decg")]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err


# An 87-byte header whose palette is (2*50000+1)^2 colors; the body is
# missing.  Decoding colors by arithmetic reads it in constant memory.
HUGE_PALETTE_HEADER = (
    b"decg 1\nsystem shift k=2 alpha=2/1\nn 50000\n"
    b"vertices 2  colors 10000200001  sampled full\n"
)


def _limit_address_space():
    limit = 512 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_cliques_huge_palette_header_exits_5_in_flat_memory(tmp_path):
    path = tmp_path / "h.decg"
    path.write_bytes(HUGE_PALETTE_HEADER)
    assert len(HUGE_PALETTE_HEADER) == 87
    src = str(Path(decg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "decg.cli", "cliques", str(path)],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: line 5: ")


def test_color_and_cliques_happy_path(tmp_path, capsys):
    out = tmp_path / "g.decg"
    code = main(["color", "--system", "shift", "--k", "2", "--n", "1", "--out", str(out)])
    assert code == 0
    graph = read_decg(out)
    assert graph.vertex_count == 512
    assert graph.sampled == "full"
    manifest = _validated(tmp_path / "g.decg.manifest.json", "manifest")
    assert manifest["subcommand"] == "color"
    assert manifest["parameters"]["k"] == 2
    assert str(out) in manifest["outputs"]

    rep_path = tmp_path / "report.json"
    code = main(["cliques", str(out), "--out", str(rep_path)])
    assert code == 0
    payload = _validated(rep_path, "cliques")
    assert payload["clique_report"]["overall_max"] == 2
    assert payload["bound_certificate"]["statement"] == "R_9(3) > 512"
    assert payload["bound_certificate"]["verified"] is True


def test_manifest_checksums_are_whole_file_fnv(tmp_path):
    # The CLI continues the body hash over the end line instead of rehashing
    # the file; an independent hash of the bytes on disk must agree.
    out = tmp_path / "g.decg"
    rep = tmp_path / "r.json"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "40",
                 "--out", str(out)]) == 0
    assert main(["cliques", str(out), "--out", str(rep)]) == 0
    expected = f"{reference.fnv1a64(out.read_bytes()):016x}"
    color = json.loads((tmp_path / "g.decg.manifest.json").read_text())
    cliques = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert color["outputs"] == {str(out): expected}
    assert cliques["inputs"] == {str(out): expected}
    assert cliques["outputs"] == {str(rep): f"{reference.fnv1a64(rep.read_bytes()):016x}"}


# FNV-1a-64 of the `decg cliques` report on the exhaustive n=1 graph (the
# DECG file pinned at 43bc3d89ab4e5347).  Every color class there has
# order 2, so the pin guards the witnesses, which the clique search's
# branch order picks.
N1_REPORT_FNV = "30501820f0fe5353"


def test_cliques_report_n1_is_pinned(tmp_path):
    out = tmp_path / "g.decg"
    rep = tmp_path / "r.json"
    assert main(["color", "--k", "2", "--n", "1", "--out", str(out)]) == 0
    assert f"{fnv1a64(out.read_bytes()):016x}" == "43bc3d89ab4e5347"
    assert main(["cliques", str(out), "--out", str(rep)]) == 0
    assert f"{fnv1a64(rep.read_bytes()):016x}" == N1_REPORT_FNV


def test_cliques_single_vertex_graph(tmp_path):
    out = tmp_path / "one.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "1",
                 "--out", str(out)]) == 0
    rep = tmp_path / "one.json"
    assert main(["cliques", str(out), "--out", str(rep)]) == 0
    payload = _validated(rep, "cliques")
    assert payload["clique_report"]["overall_max"] == 1
    assert payload["bound_certificate"] is None


def test_color_subsampled(tmp_path):
    out = tmp_path / "s.decg"
    code = main(
        ["color", "--k", "2", "--n", "2", "--max-vertices", "100", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    graph = read_decg(out)
    assert graph.vertex_count == 100
    assert graph.sampled == "subsampled seed=7"
    assert len(graph.colors) == 25


def test_color_cap_exit_3(tmp_path, capsys):
    out = tmp_path / "never.decg"
    code = main(["color", "--k", "2", "--n", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "2^25" in err
    assert "exceeds cap" in err
    assert not out.exists()


def test_cliques_missing_file_exit_4(tmp_path):
    code = main(["cliques", str(tmp_path / "absent.decg")])
    assert code == 4


def test_cliques_corrupted_edge_exit_5(tmp_path, capsys):
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "16",
                 "--out", str(out)]) == 0
    graph = read_decg(out)
    # find an edge and a color whose vector the endpoints agree at, so the
    # substituted witness is genuinely invalid
    target = None
    for i, j, c, _ in graph.iter_edges():
        for new, v in enumerate(graph.colors):
            if graph.vertices[i].at(*v) == graph.vertices[j].at(*v):
                target = (i, j, c, new, v)
                break
        if target:
            break
    assert target is not None
    i, j, old, new, v = target
    text = out.read_text()
    body, _, _ = text.rpartition("end ")
    lines = body.split("\n")
    needle = f"e {i} {j} "
    for idx, line in enumerate(lines):
        if line.startswith(needle):
            parts = line.split(" ")
            parts[3], parts[4], parts[5] = str(new), str(v.x), str(v.y)
            lines[idx] = " ".join(parts)
            break
    rebuilt = "\n".join(lines)
    rebuilt += f"end {fnv1a64(rebuilt.encode()):016x}\n"
    out.write_bytes(rebuilt.encode())
    code = main(["cliques", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert f"edge ({i}, {j})" in err


def test_cliques_checksum_mismatch_exit_5(tmp_path, capsys):
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "8",
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    out.write_bytes(data.replace(b"sampled subsampled", b"sampled  subsampled"))
    assert main(["cliques", str(out)]) == 5


@pytest.mark.parametrize(
    "line_no, header",
    [
        (2, "system shift k=2 alpha=2/0"),
        (2, "system shift k=1 alpha=2/1"),
        (2, "system shift k=2 alpha=1/1"),
        (3, "n " + "1" * 5000),  # past int's default 4300-digit limit
        (3, "n \u00b2"),  # str.isdigit accepts superscripts; int does not
        (4, f"vertices {'1' * 5000}  colors 9  sampled full"),
    ],
)
def test_cliques_bad_header_numbers_exit_5(tmp_path, capsys, line_no, header):
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    lines[line_no - 1] = header
    out.write_text("\n".join(lines))
    assert main(["cliques", str(out)]) == 5
    assert f"error: line {line_no}: " in capsys.readouterr().err


def test_opposite_output(tmp_path):
    out = tmp_path / "r.json"
    assert main(["opposite", "--p", "2", "--q", "6", "--out", str(out)]) == 0
    payload = _validated(out, "opposite")
    assert payload["r"] == 3
    assert len(payload["extremal_coloring"]) == 15
    assert payload["edge_order"][0] == [0, 1]


# FNV-1a-64 of the `decg opposite --p 3 --q 9` output (r = 2), taken from the
# enumerator now kept as tests/reference.py::opposite_ramsey_reference: the
# pruned search must write the same bytes.
P3_Q9_FNV = "1b6f508629cadfc9"


def test_opposite_p3_q9_is_pinned(tmp_path):
    out = tmp_path / "o.json"
    argv = ["opposite", "--p", "3", "--q", "9", "--cap", str(10**18), "--out", str(out)]
    assert main(argv) == 0
    assert f"{fnv1a64(out.read_bytes()):016x}" == P3_Q9_FNV


def test_opposite_cap_exit_3(tmp_path, capsys):
    assert main(["opposite", "--p", "2", "--q", "12", "--cap", "1000"]) == 3
    assert "budget of 1000 nodes" in capsys.readouterr().err


# The (3, 9) search visits 488 nodes; a ceiling well above that but far
# below forward checking alone (245 365) catches a propagation regression.
ORACLE_NODE_CEILING = 2000


def test_opposite_manifest_counts_search_nodes(tmp_path):
    # no --cap: the default node budget, not the nominal 3^36 colorings,
    # limits this run, and it writes the pinned bytes
    counters = []
    for run in range(2):
        out = tmp_path / f"o{run}.json"
        assert main(["opposite", "--p", "3", "--q", "9", "--out", str(out)]) == 0
        assert f"{fnv1a64(out.read_bytes()):016x}" == P3_Q9_FNV
        manifest = _validated(tmp_path / f"o{run}.json.manifest.json", "manifest")
        counters.append(json.dumps(manifest["counters"]).encode())
    assert counters[0] == counters[1]
    nodes = json.loads(counters[0])["oracle_nodes"]
    assert 0 < nodes < ORACLE_NODE_CEILING


def test_bounds_output(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bounds", "--g", "9", "--k", "2", "--out", str(out)]) == 0
    payload = _validated(out, "bounds")
    assert payload["gg_upper"] == 150094635296999121
    assert payload["lr_lower"] == 262144


def test_dimension_output(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["dimension", "--k", "2", "--n-max", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,count_log2,term"
    assert lines[1] == "1,9.0,9.0"
    assert lines[2] == "2,25.0,12.5"


def test_probe_outputs(tmp_path):
    out1 = tmp_path / "p1.json"
    assert main(["probe", "--n", "1", "--out", str(out1)]) == 0
    payload1 = _validated(out1, "probe")
    assert payload1["found"] is False
    assert payload1["searched_norm_range"] == [5, 1]

    out3 = tmp_path / "p3.json"
    assert main(["probe", "--n", "3", "--out", str(out3)]) == 0
    payload3 = _validated(out3, "probe")
    assert payload3["found"] is True
    assert payload3["width"] == 15
    assert payload3["distance_exponent"] == 7
    assert payload3["best_shifted_exponent"] == 4
    assert payload3["verified"] is True


def test_repeat_runs_byte_identical(tmp_path):
    pairs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        files = {
            "g": d / "g.decg",
            "r": d / "r.json",
            "o": d / "o.json",
            "b": d / "b.json",
            "c": d / "d.csv",
            "p": d / "p.json",
        }
        assert main(["color", "--k", "2", "--n", "2", "--max-vertices", "60",
                     "--seed", "7", "--out", str(files["g"])]) == 0
        assert main(["cliques", str(files["g"]), "--out", str(files["r"])]) == 0
        assert main(["opposite", "--p", "2", "--q", "5", "--out", str(files["o"])]) == 0
        assert main(["bounds", "--g", "9", "--k", "3", "--out", str(files["b"])]) == 0
        assert main(["dimension", "--k", "2", "--n-max", "4", "--out", str(files["c"])]) == 0
        assert main(["probe", "--n", "3", "--out", str(files["p"])]) == 0
        pairs.append({k: p.read_bytes() for k, p in files.items()})
    assert pairs[0] == pairs[1]


def test_threads_do_not_change_output(tmp_path):
    outs = []
    for t in ("1", "4"):
        path = tmp_path / f"g{t}.decg"
        assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "80",
                     "--threads", t, "--out", str(path)]) == 0
        rep = tmp_path / f"r{t}.json"
        assert main(["cliques", str(path), "--threads", t, "--out", str(rep)]) == 0
        outs.append((path.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_stdout_output_with_stderr_manifest(capsys):
    assert main(["bounds", "--g", "2", "--k", "2"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["gg_upper"] == 16
    manifest = json.loads(captured.err)
    assert manifest["subcommand"] == "bounds"
