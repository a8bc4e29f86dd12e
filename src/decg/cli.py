"""Batch command-line front end.

Subcommands: color, cliques, opposite, bounds, dimension, probe.  Each
`cmd_*` only computes: it writes its primary output and returns the
manifest's inputs and outputs, or raises.  `main` owns the run: it starts
the clock, writes the manifest (JSON) and maps exceptions to exit codes
with one `error: ` line on stderr.  The manifest records every parsed
option but --out as its parameters, checksums of inputs and outputs, and
wall time.  `color`, `cliques` and `opposite` also list their stages (see
`decg.record`), each with its wall time and the deterministic counters
the code doing the work counts: the DECG bytes hashed, the edges
revalidated, the oracle's search nodes.  Primary outputs are byte
deterministic given the manifest parameters.  Every command runs in one
thread: `color` and `cliques` accept --threads and record it in the
manifest, but it has no effect.

Exit codes: 0 ok, 2 usage, 3 size cap, 4 I/O, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .action import (
    MAX_PATTERN_CELLS,
    ShiftSystem,
    encode_pattern,
    enumerate_periodic_points,
    sample_periodic_points,
)
from .cliques import mono_clique_report, opposite_upper_bound, revalidate_edges
from .colorer import decg_dumps  # noqa: F401  perfbench/tracer.py rebinds it by this name
from .colorer import CLIQUE_CAP, color_graph, fnv1a64, read_decg, write_decg
from .errors import (
    BadFormat,
    CapExceeded,
    ChecksumMismatch,
    DecgError,
    InconsistentCertificate,
    NoWitness,
)
from .metric import probe_question
from .ramsey import DEFAULT_ORACLE_CAP, bounds_record, opposite_ramsey_exact
from .record import count, recording, stage
from .sepset import GrowthSequence, greedy_separated, growth_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_VERIFY = 5

# The largest --n-max `dimension` takes.  Its rows and CSV text are built
# in memory, which grows with --n-max; 100 000 rows make a 3.76 MB CSV.
MAX_DIMENSION_N = 100_000


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's options are declared in the order its manifest
    lists them: the manifest's parameters are every parsed option but --out."""
    parser = argparse.ArgumentParser(
        prog="decg",
        description="Edge-colorings of complete graphs from shift dynamics, "
        "with exact opposite-Ramsey oracles.",
    )
    parser.add_argument("--version", action="version", version=f"decg {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_color = sub.add_parser("color", help="build and color a complete graph")
    p_color.add_argument("--system", choices=["shift"], default="shift")
    p_color.add_argument("--k", type=int, required=True, help="alphabet size")
    p_color.add_argument("--n", type=_nonnegative_int, required=True, help="separation scale")
    p_color.add_argument("--alpha", type=_fraction, default=Fraction(2))
    p_color.add_argument("--max-vertices", type=_positive_int, default=None)
    p_color.add_argument(
        "--threads", type=_positive_int, default=1, help="recorded only; no effect"
    )
    p_color.add_argument("--seed", type=_nonnegative_int, default=0)
    p_color.add_argument("--out", required=True)
    p_color.set_defaults(func=cmd_color)

    p_cliques = sub.add_parser("cliques", help="analyze a DECG file")
    p_cliques.add_argument("path")
    p_cliques.add_argument(
        "--threads", type=_positive_int, default=1, help="recorded only; no effect"
    )
    p_cliques.add_argument("--out", default=None)
    p_cliques.set_defaults(func=cmd_cliques)

    p_opp = sub.add_parser("opposite", help="exact opposite-Ramsey oracle")
    p_opp.add_argument("--p", type=int, required=True)
    p_opp.add_argument("--q", type=int, required=True)
    p_opp.add_argument(
        "--cap", type=_positive_int, default=DEFAULT_ORACLE_CAP, help="budget of search nodes"
    )
    p_opp.add_argument("--out", default=None)
    p_opp.set_defaults(func=cmd_opposite)

    p_bounds = sub.add_parser("bounds", help="classical Ramsey bound formulas")
    p_bounds.add_argument("--g", type=int, required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--c", type=_fraction, default=Fraction(1))
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_dim = sub.add_parser("dimension", help="box-dimension sequence CSV")
    p_dim.add_argument("--k", type=int, required=True)
    p_dim.add_argument("--n-max", type=_positive_int, required=True)
    p_dim.add_argument("--alpha", type=_fraction, default=Fraction(2))
    p_dim.add_argument("--out", default=None)
    p_dim.set_defaults(func=cmd_dimension)

    p_probe = sub.add_parser("probe", help="search for recovery-scale counterexamples")
    p_probe.add_argument("--system", choices=["shift"], default="shift")
    p_probe.add_argument("--n", type=int, required=True)
    p_probe.add_argument("--k", type=int, default=2)
    p_probe.add_argument("--alpha", type=_fraction, default=Fraction(2))
    p_probe.add_argument("--out", default=None)
    p_probe.set_defaults(func=cmd_probe)

    return parser


def _emit(text: str, out_path: str | None) -> dict[str, str]:
    """Write the primary output; returns {path: checksum} for the manifest."""
    data = text.encode("utf-8")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "wb") as fh:
            fh.write(data)
    return {out_path or "<stdout>": f"{fnv1a64(data):016x}"}


def _decg_checksum(graph) -> str:
    """Whole-file checksum of a graph's DECG text: the body hash that
    write_decg or read_decg holds, continued over the end line."""
    body = graph.checksum_hex()
    end_line = f"end {body}\n".encode("ascii")
    return f"{fnv1a64(end_line, int(body, 16)):016x}"


def _write_manifest(args, inputs: dict, outputs: dict, started: float, stages: list) -> None:
    manifest = {
        "tool": "decg",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": {
            name: str(value) if isinstance(value, Fraction) else value
            for name, value in vars(args).items()
            if name not in ("subcommand", "func", "out")
        },
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if stages:
        manifest["stages"] = stages
    text = _json_text(manifest)
    primary = next((p for p in outputs if p != "<stdout>"), None)
    if primary is None:
        sys.stderr.write(text)
    else:
        with open(primary + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_color(args) -> tuple[dict, dict]:
    system = ShiftSystem(alphabet_size=args.k, alpha=args.alpha)
    width = 2 * args.n + 1
    cells = width * width
    if cells > MAX_PATTERN_CELLS:
        raise ValueError(
            f"--n {args.n} makes patterns of {width}x{width} = {cells} cells, "
            f"above the cap of {MAX_PATTERN_CELLS}"
        )
    if args.max_vertices is None:
        size = args.k**cells
        if size > CLIQUE_CAP:
            shown = f" = {size}" if size.bit_length() <= 64 else ""
            raise CapExceeded(
                f"{args.k}^{cells}{shown} vertices exceeds cap "
                f"{CLIQUE_CAP}; pass --max-vertices to subsample"
            )
    elif args.max_vertices > CLIQUE_CAP:
        raise CapExceeded(f"--max-vertices {args.max_vertices} exceeds cap {CLIQUE_CAP}")
    with stage("points"):  # enumeration or sampling, then the greedy separation
        if args.max_vertices is None:
            stream = enumerate_periodic_points(args.k, width)
            universe = "exhaustive"
            sampled = "full"
        else:
            stream = sample_periodic_points(args.k, width, args.max_vertices, args.seed)
            universe = "stream"
            sampled = f"subsampled seed={args.seed}"
        vertices = greedy_separated(system, stream, system.epsilon(args.n), universe)
        count("vertices", len(vertices.points))
    with stage("color"):
        graph = color_graph(system, vertices, args.n, sampled=sampled)
        count("edges", graph.edge_count)
    with stage("write"):
        write_decg(graph, args.out)
    return {}, {args.out: _decg_checksum(graph)}


def cmd_cliques(args) -> tuple[dict, dict]:
    with stage("read"):
        graph = read_decg(args.path)
    with stage("revalidate"):
        bad = revalidate_edges(graph)
    if bad is not None:
        i, j, reason = bad
        raise InconsistentCertificate(f"edge ({i}, {j}) fails revalidation: {reason}")
    report = mono_clique_report(graph)
    cert = opposite_upper_bound(report, graph, revalidated=True)
    payload = {
        "clique_report": report.to_json(),
        "bound_certificate": cert.to_json() if cert is not None else None,
    }
    return {args.path: _decg_checksum(graph)}, _emit(_json_text(payload), args.out)


def cmd_opposite(args) -> tuple[dict, dict]:
    with stage("search"):
        result = opposite_ramsey_exact(args.p, args.q, cap=args.cap)
    return {}, _emit(_json_text(result.to_json()), args.out)


def _refuse_unprintable(name: str, base: int, exponent: int) -> None:
    """Raise ValueError when base**exponent has more decimal digits than the
    interpreter converts to text, which JSON output needs.  The power is
    computed only once its bit length is known to be at most twice the
    limit's: (bits(base) - 1) * exponent bounds it from below."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if not limit or base < 2 or exponent < 1:
        return
    ceiling = 10**limit
    if (base.bit_length() - 1) * exponent >= ceiling.bit_length() or base**exponent >= ceiling:
        raise ValueError(
            f"{name} = {base}**{exponent} has more than {limit} digits, "
            "the interpreter's limit for printing an integer"
        )


def cmd_bounds(args) -> tuple[dict, dict]:
    _refuse_unprintable("gg_upper", args.g, args.g * args.k)
    _refuse_unprintable("lr_lower", 2, math.ceil(args.c * args.g * args.k))
    record = bounds_record(args.g, args.k, args.c)
    return {}, _emit(_json_text(record.to_json()), args.out)


def cmd_dimension(args) -> tuple[dict, dict]:
    ShiftSystem(alphabet_size=args.k, alpha=args.alpha)  # refuses k and alpha as color does
    if args.n_max > MAX_DIMENSION_N:
        raise ValueError(f"--n-max {args.n_max} exceeds the cap of {MAX_DIMENSION_N}")
    seq = GrowthSequence.shift_closed_form(args.k, args.n_max)
    return {}, _emit(growth_csv(seq, args.alpha), args.out)


def cmd_probe(args) -> tuple[dict, dict]:
    system = ShiftSystem(alphabet_size=args.k, alpha=args.alpha)
    result = probe_question(system, args.n)
    t = system.threshold_exponent
    lo, hi = args.n + t + 1, args.n * args.n
    if result is None:
        payload = {
            "found": False,
            "n": args.n,
            "searched_norm_range": [lo, hi],
            "threshold_exponent": t,
        }
    else:
        payload = {
            "found": True,
            "n": args.n,
            "width": result.x.width,
            "x": encode_pattern(result.x),
            "y": encode_pattern(result.y),
            "distance_exponent": result.distance.exponent,
            "distance_required_exponent": result.required_at_least.exponent,
            "best_shifted_exponent": result.best_shifted.exponent,
            "threshold_exponent": result.threshold.exponent,
            "verified": True,
        }
    return {}, _emit(_json_text(payload), args.out)


# First match wins, as in an except chain.
_EXIT_CODES = (
    (CapExceeded, EXIT_CAP),
    ((BadFormat, ChecksumMismatch, NoWitness, InconsistentCertificate), EXIT_VERIFY),
    (OSError, EXIT_IO),
    ((ValueError, DecgError), EXIT_USAGE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        with recording() as stages:
            inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, started, stages)
        return EXIT_OK
    except (OSError, ValueError, DecgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
