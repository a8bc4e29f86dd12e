"""decg: edge-colorings of complete graphs from shift dynamics.

Builds separated point sets of the two-dimensional full shift, colors the
complete graph on them by separating shift vectors, analyzes monochromatic
cliques, and compares the resulting certificates against exact
opposite-Ramsey numbers and classical Ramsey bounds.

`import decg` loads no submodule.  Each public name below imports its
defining module the first time it is read (PEP 562), so a caller of
`verify_recovery` compiles `decg.action`, `decg.errors` and `decg.metric`
only, not the coloring, clique or oracle code.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "action": (
        "ColorSet",
        "LatticeVector",
        "PeriodicConfiguration",
        "ShiftDistance",
        "ShiftSystem",
        "ball_vectors",
        "encode_pattern",
        "enumerate_periodic_points",
        "mix64",
        "parse_pattern",
        "ring_vectors",
        "sample_periodic_points",
        "shift_min_diff",
    ),
    "cliques": (
        "BoundCertificate",
        "CliqueReport",
        "max_clique",
        "mono_clique_report",
        "opposite_upper_bound",
        "revalidate_edges",
    ),
    "colorer": (
        "ColoredGraph",
        "color_graph",
        "decg_dumps",
        "fnv1a64",
        "read_decg",
        "write_decg",
    ),
    "errors": (
        "BadFormat",
        "CapExceeded",
        "ChecksumMismatch",
        "DecgError",
        "InconsistentCertificate",
        "MismatchedSystems",
        "NoWitness",
        "PrecisionLoss",
        "RangeTooSmall",
        "UnknownColor",
    ),
    "metric": (
        "Counterexample",
        "RecoveryReport",
        "WitnessResult",
        "find_witness",
        "probe_question",
        "verify_recovery",
    ),
    "ramsey": (
        "BoundsRecord",
        "OppositeRamseyResult",
        "SandwichReport",
        "bounds_record",
        "floor_log_shift",
        "gg_upper",
        "lr_lower",
        "opposite_ramsey_exact",
        "ramsey_holds",
        "sandwich_report",
        "verify_extremal",
    ),
    "sepset": (
        "GrowthSequence",
        "SeparatedSet",
        "SuperpolyReport",
        "dimension_sequence",
        "greedy_separated",
        "growth_csv",
        "s_count_shift_exact",
        "separation_check",
        "superpoly_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
