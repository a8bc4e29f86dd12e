"""Tests for the batch CLI: exit codes, outputs, manifests, reproducibility."""

import json
import os
import resource
import subprocess
import sys
import time
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
        (["dimension", "--k", "2", "--n-max", "2", "--alpha", str(2**64)], 2),
        (["probe", "--n", "0"], 2),
        (["probe", "--n", "1", "--k", "37"], 2),
        (["probe", "--n", "1", "--alpha", "1"], 2),
        (["color", "--k", "2", "--n", "1", "--max-vertices", "4", "--seed", "-5"], 2),
        (["color", "--k", "2", "--n", "1", "--max-vertices", "4", "--threads", "-3"], 2),
        (["color", "--k", "2", "--n", "1", "--max-vertices", "4", "--threads", "0"], 2),
        (["cliques", "{tmp}", "--threads", "0"], 2),
        (["color", "--k", "2", "--n", "100000", "--max-vertices", "4"], 2),
        (["probe", "--n", "100000"], 2),
        (["color", "--k", "2", "--n", "-3"], 2),
        (["color", "--k", "2", "--n", "-1", "--max-vertices", "1000"], 2),
        (["color", "--k", "2", "--n", "1", "--max-vertices", "-5"], 2),
        (["color", "--k", "2", "--n", "1", "--vertex-cap", "5000"], 2),
        (["dimension", "--k", "2", "--n-max", "100001"], 2),
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


def test_color_names_a_negative_n_or_a_vertex_count_below_one(tmp_path, capsys):
    # without the option types these ran into the size cap (exit 3) or
    # sampled nothing before refusing
    out = str(tmp_path / "g.decg")
    for args, name in [
        (["--n", "-3"], "--n"),
        (["--n", "-1", "--max-vertices", "1000"], "--n"),
        (["--n", "1", "--max-vertices", "0"], "--max-vertices"),
    ]:
        assert _exit_code(["color", "--k", "2", *args, "--out", out]) == 2
        assert f"error: argument {name}: " in capsys.readouterr().err
    assert not (tmp_path / "g.decg").exists()


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
    proc = _decg_child("cliques", str(path))
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: line 5: ")


@pytest.mark.parametrize("n", [2**31 - 1, 2**31])
def test_cliques_palette_past_sys_maxsize_exits_5_at_its_header(tmp_path, capsys, n):
    # (2n + 1)**2 colors: past sys.maxsize, len() cannot count the palette,
    # and the report would need an entry for each
    path = tmp_path / "h.decg"
    path.write_bytes(
        b"decg 1\nsystem shift k=2 alpha=2/1\nn %d\nvertices 2  colors %d  sampled full\n"
        % (n, (2 * n + 1) ** 2)
    )
    assert main(["cliques", str(path)]) == 5
    assert capsys.readouterr().err.startswith(f"error: line 4: a palette of {(2 * n + 1) ** 2}")


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


# FNV-1a-64 of the `decg cliques` report on `color --k 4 --n 1
# --max-vertices 300 --seed 5`, taken from the clique search before the
# partition hint (about 30 s there).  Four of its nine classes have more
# symbols than their clique order, so the search there runs unsettled.
K4_REPORT_FNV = "56e3238a097b6919"


def test_cliques_report_k4_is_pinned(tmp_path):
    out = tmp_path / "g.decg"
    rep = tmp_path / "r.json"
    assert main(["color", "--k", "4", "--n", "1", "--max-vertices", "300", "--seed", "5",
                 "--out", str(out)]) == 0
    assert main(["cliques", str(out), "--out", str(rep)]) == 0
    assert f"{fnv1a64(rep.read_bytes()):016x}" == K4_REPORT_FNV


# FNV-1a-64 of the `decg cliques` report on `color --k 2 --n 2
# --max-vertices 1000 --seed 7`, the graph of the pipeline-n2 benchmark
# workload, taken from the search that relabelled rows into a fully built
# degeneracy order.  Its 20 classes are each settled by the partition hint,
# so the pin guards the witnesses that the first branches pick.
N2_REPORT_FNV = "a38f742ce4cf9d78"


def test_cliques_report_n2_is_pinned(tmp_path):
    out = tmp_path / "g.decg"
    rep = tmp_path / "r.json"
    assert main(["color", "--k", "2", "--n", "2", "--max-vertices", "1000", "--seed", "7",
                 "--out", str(out)]) == 0
    assert main(["cliques", str(out), "--out", str(rep)]) == 0
    assert f"{fnv1a64(rep.read_bytes()):016x}" == N2_REPORT_FNV


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
    assert err == (
        "error: 2^25 = 33554432 vertices exceeds cap 5000; pass --max-vertices to subsample\n"
    )
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # no manifest either

    code = main(["color", "--k", "2", "--n", "2", "--max-vertices", "5001", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: --max-vertices 5001 exceeds cap 5000\n"
    assert list(tmp_path.iterdir()) == []


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
    captured = capsys.readouterr()
    assert captured.out == ""
    # one error line and no manifest, which would go to stderr here
    assert captured.err.startswith(f"error: edge ({i}, {j}) fails revalidation: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


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
        (4, "vertices 5001  colors 9  sampled full"),  # past the vertex cap
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


def _decg_child(*argv, stdin: str | None = None):
    """Run decg in a child process under a 512 MB address-space limit, so
    that a hang or a runaway allocation fails the test."""
    src = str(Path(decg.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "decg.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["opposite", "--p", "2", "--q", "45"], 3),  # deeper than the search recurses
        (["opposite", "--p", "2", "--q", "20000"], 3),  # also past MAX_SEARCH_EDGES
        (["opposite", "--p", "1000000000", "--q", "3"], 0),  # holds 3 classes, not 10^9
        (["bounds", "--g", "1000", "--k", "1000"], 2),
        (["bounds", "--g", "100000", "--k", "100000"], 2),
        (["bounds", "--g", "9", "--k", "2", "--c", "1000000000"], 2),
        (["color", "--k", "2", "--n", "100000", "--max-vertices", "4", "--out", "-"], 2),
        (["probe", "--n", "100000"], 2),
    ],
)
def test_oversized_argv_is_settled_at_once(argv, code):
    started = time.perf_counter()
    proc = _decg_child(*argv)
    assert time.perf_counter() - started < 2
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error" in line]
    assert len(errors) == (code != 0)
    if code:
        assert proc.stderr == errors[0] + "\n"
        assert errors[0].startswith("error: ")


def test_bounds_refuses_exactly_the_unprintable(capsys):
    # 2**e has at most `limit` digits iff 2**e < 10**limit
    limit = sys.get_int_max_str_digits()
    e = (10**limit).bit_length() - 1
    assert main(["bounds", "--g", "1", "--k", "1", "--c", str(e)]) == 0
    assert json.loads(capsys.readouterr().out)["lr_lower"] == 2**e
    assert main(["bounds", "--g", "1", "--k", "1", "--c", str(e + 1)]) == 2
    assert capsys.readouterr().err == (
        f"error: lr_lower = 2**{e + 1} has more than {limit} digits, "
        "the interpreter's limit for printing an integer\n"
    )


def test_cliques_alpha_too_close_to_one_exits_5_without_hanging(tmp_path):
    # a valid file whose line 2 asks for an alpha with a threshold exponent
    # near 138 630, re-signed so that only the alpha is wrong
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    lines[1] = "system shift k=2 alpha=100001/100000"
    body = "\n".join(lines[:-2]) + "\n"
    out.write_text(body + f"end {reference.fnv1a64(body.encode()):016x}\n")
    proc = _decg_child("cliques", str(out))
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: line 2: ")


def test_cliques_alpha_not_in_lowest_terms_exits_5_at_line_2(tmp_path, capsys):
    # 4/2 is alpha = 2, which the writer writes as 2/1; re-signed so that
    # only the alpha's form is wrong
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    lines[1] = "system shift k=2 alpha=4/2"
    body = "\n".join(lines[:-2]) + "\n"
    out.write_text(body + f"end {reference.fnv1a64(body.encode()):016x}\n")
    assert main(["cliques", str(out)]) == 5
    assert capsys.readouterr().err == "error: line 2: alpha 4/2 is not in lowest terms\n"


def test_probe_alpha_too_close_to_one_exits_2_quickly():
    started = time.perf_counter()
    proc = _decg_child("probe", "--n", "2", "--alpha", "1.00001")
    assert time.perf_counter() - started < 2
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: alpha is too close to 1")


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


# The (3, 9) search visits 190 nodes (488 without the lex-leader prune); a
# ceiling well above that but far below forward checking alone (245 365)
# catches a propagation regression.
ORACLE_NODE_CEILING = 2000


def test_opposite_manifest_counts_search_nodes(tmp_path):
    # no --cap: the default node budget, not the nominal 3^36 colorings,
    # limits this run, and it writes the pinned bytes
    runs = []
    for run in range(2):
        out = tmp_path / f"o{run}.json"
        assert main(["opposite", "--p", "3", "--q", "9", "--out", str(out)]) == 0
        assert f"{fnv1a64(out.read_bytes()):016x}" == P3_Q9_FNV
        manifest = _validated(tmp_path / f"o{run}.json.manifest.json", "manifest")
        runs.append(json.dumps([(s["name"], s["counters"]) for s in manifest["stages"]]).encode())
    assert runs[0] == runs[1]
    [(name, counters)] = json.loads(runs[0])
    assert (name, list(counters)) == ("search", ["oracle_nodes"])
    assert 0 < counters["oracle_nodes"] < ORACLE_NODE_CEILING


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


def _stage_counters(manifest_path) -> dict:
    """{stage name: counters} of a manifest, validated."""
    stages = _validated(Path(manifest_path), "manifest")["stages"]
    return {s["name"]: s["counters"] for s in stages}


def test_color_and_cliques_manifests_count_hashed_bytes_and_revalidated_edges(tmp_path):
    counters = []
    for run, threads in enumerate(("1", "1", "4")):
        graph, report = tmp_path / f"g{run}.decg", tmp_path / f"r{run}.json"
        assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "80",
                     "--threads", threads, "--out", str(graph)]) == 0
        assert main(["cliques", str(graph), "--threads", threads, "--out", str(report)]) == 0
        color, cliques = (_stage_counters(f"{path}.manifest.json") for path in (graph, report))
        counters.append([
            color["write"]["bytes_hashed"],
            cliques["read"]["bytes_hashed"],
            cliques["revalidate"]["edges_revalidated"],
        ])
    assert counters[0] == counters[1] == counters[2]
    data = graph.read_bytes()
    q = read_decg(data).vertex_count
    body = data.rindex(b"end ")
    assert counters[0] == [body, body, q * (q - 1) // 2]


def test_cliques_counts_the_same_from_a_pipe_as_from_a_path(tmp_path):
    graph = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "80",
                 "--out", str(graph)]) == 0
    data = graph.read_bytes()
    runs = []
    for source, stdin in ((str(graph), None), ("/dev/stdin", data.decode())):
        report = tmp_path / f"r{len(runs)}.json"
        proc = _decg_child("cliques", source, "--out", str(report), stdin=stdin)
        assert proc.returncode == 0, proc.stderr
        runs.append(_stage_counters(f"{report}.manifest.json"))
    path, piped = runs
    assert path["read"] == piped["read"]
    assert piped["read"]["bytes_hashed"] == len(data) - len(b"end 0123456789abcdef\n")


def test_cliques_stages_count_the_edges_that_leave_the_row_passes(tmp_path):
    """On an honest file every edge line after the first of its tail and
    every edge passes in a row pass: the reader checks singly exactly one
    line per color used, and revalidation measures no edge."""
    runs = []
    for run, threads in enumerate(("1", "1", "4")):
        graph, report = tmp_path / f"g{run}.decg", tmp_path / f"r{run}.json"
        assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "80",
                     "--threads", threads, "--out", str(graph)]) == 0
        assert main(["cliques", str(graph), "--threads", threads, "--out", str(report)]) == 0
        runs.append(_stage_counters(f"{report}.manifest.json"))
    assert runs[0] == runs[1] == runs[2]
    g = read_decg(graph)
    assert runs[0]["revalidate"] == {"edges_measured": 0, "edges_revalidated": g.edge_count}
    assert runs[0]["read"]["lines_checked_singly"] == len(g.colors_used())


def test_manifest_stages_repeat_their_counters_across_runs_and_threads(tmp_path):
    runs = []
    for run, threads in enumerate(("1", "1", "3")):
        graph, report = tmp_path / f"g{run}.decg", tmp_path / f"r{run}.json"
        assert main(["color", "--k", "3", "--n", "1", "--max-vertices", "120", "--seed", "3",
                     "--threads", threads, "--out", str(graph)]) == 0
        assert main(["cliques", str(graph), "--threads", threads, "--out", str(report)]) == 0
        manifests = [_validated(Path(f"{path}.manifest.json"), "manifest") for path in (graph, report)]
        for manifest in manifests:
            assert sum(s["wall_s"] for s in manifest["stages"]) <= manifest["wall_time_s"]
        runs.append(json.dumps(
            [[(s["name"], s["counters"]) for s in m["stages"]] for m in manifests]
        ).encode())
    assert runs[0] == runs[1] == runs[2]
    color, cliques = json.loads(runs[0])
    data = graph.read_bytes()
    q = read_decg(data).vertex_count
    assert color == [["points", {"vertices": q}], ["color", {"edges": q * (q - 1) // 2}],
                     ["write", {"bytes_hashed": data.rindex(b"end ")}]]
    assert [name for name, _ in cliques] == ["read", "revalidate", "color_classes", "clique_search"]
    search = cliques[-1][1]
    assert search["clique_nodes"] >= search["hint_stops"] >= 1


def test_manifests_without_stages_have_no_stages_key(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bounds", "--g", "9", "--k", "2", "--out", str(out)]) == 0
    manifest = _validated(tmp_path / "b.json.manifest.json", "manifest")
    assert "stages" not in manifest and "counters" not in manifest
    with pytest.raises(jsonschema.ValidationError, match="'counters' was unexpected"):
        jsonschema.validate({**manifest, "counters": {}}, load_schema("manifest"))


def test_color_refuses_patterns_past_the_cell_cap(tmp_path, capsys):
    # width 63 (3969 cells) is the widest under the 4096-cell cap
    out = tmp_path / "g.decg"
    assert main(["color", "--k", "2", "--n", "31", "--max-vertices", "2",
                 "--out", str(out)]) == 0
    assert read_decg(out).vertices[0].width == 63
    capsys.readouterr()
    assert main(["color", "--k", "2", "--n", "32", "--max-vertices", "2",
                 "--out", str(tmp_path / "h.decg")]) == 2
    assert capsys.readouterr().err == (
        "error: --n 32 makes patterns of 65x65 = 4225 cells, above the cap of 4096\n"
    )


def test_color_refuses_a_huge_universe_without_printing_it(capsys):
    # 36^3969 has about 20 500 bits: too long to print in the refusal
    assert main(["color", "--k", "36", "--n", "31", "--out", "-"]) == 3
    assert capsys.readouterr().err == (
        "error: 36^3969 vertices exceeds cap 5000; pass --max-vertices to subsample\n"
    )


def test_stdout_output_with_stderr_manifest(capsys):
    assert main(["bounds", "--g", "2", "--k", "2"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["gg_upper"] == 16
    manifest = json.loads(captured.err)
    assert manifest["subcommand"] == "bounds"


# Each subcommand's manifest parameters: every parsed option but --out, in
# declaration order, with rationals as strings.
@pytest.mark.parametrize(
    "argv, parameters",
    [
        (
            ["color", "--k", "2", "--n", "1", "--max-vertices", "40", "--alpha", "3/2",
             "--threads", "3", "--out", "{tmp}/g.decg"],
            [("system", "shift"), ("k", 2), ("n", 1), ("alpha", "3/2"), ("max_vertices", 40),
             ("threads", 3), ("seed", 0)],
        ),
        (
            ["cliques", "{tmp}/g.decg", "--threads", "2", "--out", "{tmp}/r.json"],
            [("path", "{tmp}/g.decg"), ("threads", 2)],
        ),
        (
            ["opposite", "--p", "2", "--q", "5", "--out", "{tmp}/o.json"],
            [("p", 2), ("q", 5), ("cap", 100000)],
        ),
        (
            ["bounds", "--g", "9", "--k", "2", "--c", "3/2", "--out", "{tmp}/b.json"],
            [("g", 9), ("k", 2), ("c", "3/2")],
        ),
        (
            ["dimension", "--k", "2", "--n-max", "3", "--alpha", "5/2", "--out", "{tmp}/d.csv"],
            [("k", 2), ("n_max", 3), ("alpha", "5/2")],
        ),
        (
            ["probe", "--n", "1", "--alpha", "3", "--out", "{tmp}/p.json"],
            [("system", "shift"), ("n", 1), ("k", 2), ("alpha", "3")],
        ),
    ],
)
def test_manifest_parameters_are_the_parsed_options(tmp_path, argv, parameters):
    def fill(value):
        return value.replace("{tmp}", str(tmp_path)) if isinstance(value, str) else value

    if argv[0] == "cliques":
        assert main(["color", "--k", "2", "--n", "1", "--max-vertices", "8",
                     "--out", str(tmp_path / "g.decg")]) == 0
    argv = [fill(a) for a in argv]
    assert main(argv) == 0
    manifest = _validated(Path(argv[-1] + ".manifest.json"), "manifest")
    assert list(manifest["parameters"].items()) == [(k, fill(v)) for k, v in parameters]
