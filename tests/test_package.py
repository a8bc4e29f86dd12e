"""The `decg` package exports its public names lazily: each name imports its
defining module on first use, so an import loads only what it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import decg

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = [
    "BadFormat", "BoundCertificate", "BoundsRecord", "CapExceeded",
    "ChecksumMismatch", "CliqueReport", "ColorSet", "ColoredGraph",
    "Counterexample", "DecgError", "GrowthSequence", "InconsistentCertificate",
    "LatticeVector", "MismatchedSystems", "NoWitness", "OppositeRamseyResult",
    "PeriodicConfiguration", "PrecisionLoss", "RangeTooSmall", "RecoveryReport",
    "SandwichReport", "SeparatedSet", "ShiftDistance", "ShiftSystem",
    "SuperpolyReport", "UnknownColor", "WitnessResult", "ball_vectors",
    "bounds_record", "color_graph", "decg_dumps", "dimension_sequence",
    "encode_pattern", "enumerate_periodic_points", "find_witness",
    "floor_log_shift", "fnv1a64", "gg_upper", "greedy_separated", "growth_csv",
    "lr_lower", "max_clique", "mix64", "mono_clique_report",
    "opposite_ramsey_exact", "opposite_upper_bound", "parse_pattern",
    "probe_question", "ramsey_holds", "read_decg", "revalidate_edges",
    "ring_vectors", "s_count_shift_exact", "sample_periodic_points",
    "sandwich_report", "separation_check", "shift_min_diff", "superpoly_check",
    "verify_extremal", "verify_recovery", "write_decg",
]  # fmt: skip


def test_all_holds_the_exported_names():
    assert len(EXPORTS) == 61
    assert decg.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(decg, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__.startswith("decg.")
    assert name in dir(decg)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from decg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS
    assert all(namespace[name] is getattr(decg, name) for name in EXPORTS)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        decg.nope
    with pytest.raises(ImportError):
        exec("from decg import nope", {})


def _loaded_after(statement: str) -> list[str]:
    """The decg modules a fresh interpreter holds after `statement`."""
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'decg'))"
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; {listing}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return result.stdout.split()


def test_import_decg_loads_no_submodule():
    assert _loaded_after("import decg") == ["decg"]


def test_the_recovery_imports_load_only_their_modules():
    assert _loaded_after("import decg.action, decg.metric") == [
        "decg",
        "decg.action",
        "decg.errors",
        "decg.metric",
    ]


def test_a_name_loads_only_its_module():
    assert _loaded_after("from decg import verify_recovery") == [
        "decg",
        "decg.action",
        "decg.errors",
        "decg.metric",
    ]


def test_a_submodule_still_imports_by_name():
    assert _loaded_after("from decg import errors; errors.DecgError") == ["decg", "decg.errors"]


def test_the_cli_loads_every_module():
    modules = ["action", "cli", "cliques", "colorer", "errors", "intlog"]
    modules += ["metric", "ramsey", "record", "sepset"]
    assert _loaded_after("import decg.cli") == ["decg"] + [f"decg.{m}" for m in modules]
