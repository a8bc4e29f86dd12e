"""Batch command-line front end.

Subcommands: color, cliques, opposite, bounds, dimension, probe.  Every
run emits a manifest (JSON) recording the full parameter set, seeds,
checksums of inputs and outputs, wall time and, for `opposite`, the
oracle's search-node count; primary outputs are byte deterministic given
the manifest parameters.  `color` and `cliques` also count the DECG bytes
their checksum covers, and `cliques` the edges it revalidated.  Every
command runs in one thread: `color` and `cliques` accept --threads and
record it in the manifest, but it has no effect.

Exit codes: 0 ok, 2 usage, 3 size cap, 4 I/O, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .action import ShiftSystem, encode_pattern, enumerate_periodic_points, sample_periodic_points
from .cliques import mono_clique_report, opposite_upper_bound, revalidate_edges
from .colorer import decg_dumps  # noqa: F401  perfbench/tracer.py rebinds it by this name
from .colorer import color_graph, fnv1a64, read_decg, write_decg
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
from .sepset import GrowthSequence, greedy_separated, growth_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_IO = 4
EXIT_VERIFY = 5

DEFAULT_VERTEX_CAP = 5000


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
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
    p_color.add_argument("--n", type=int, required=True, help="separation scale")
    p_color.add_argument("--alpha", type=_fraction, default=Fraction(2))
    p_color.add_argument("--max-vertices", type=int, default=None)
    p_color.add_argument("--seed", type=int, default=0)
    p_color.add_argument("--threads", type=int, default=1, help="recorded only; no effect")
    p_color.add_argument("--vertex-cap", type=_positive_int, default=DEFAULT_VERTEX_CAP)
    p_color.add_argument("--out", required=True)
    p_color.set_defaults(func=cmd_color)

    p_cliques = sub.add_parser("cliques", help="analyze a DECG file")
    p_cliques.add_argument("path")
    p_cliques.add_argument("--threads", type=int, default=1, help="recorded only; no effect")
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
    p_dim.add_argument("--n-max", type=int, required=True)
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


def _emit(text: str, out_path: str | None, checksum: str | None = None) -> dict[str, str]:
    """Write the primary output; returns {path: checksum} for the manifest."""
    data = text.encode("utf-8")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "wb") as fh:
            fh.write(data)
    return {out_path or "<stdout>": checksum or f"{fnv1a64(data):016x}"}


def _decg_checksum(graph) -> str:
    """Whole-file checksum of a graph's DECG text: the body hash that
    write_decg or read_decg holds, continued over the end line."""
    body = graph.checksum_hex()
    end_line = f"end {body}\n".encode("ascii")
    return f"{fnv1a64(end_line, int(body, 16)):016x}"


def _hashed_bytes(path) -> int:
    """Bytes of a DECG file that its checksum covers: all but the end line."""
    return os.path.getsize(path) - len("end 0123456789abcdef\n")


def _write_manifest(
    args, params: dict, inputs: dict, outputs: dict, started: float, counters: dict | None = None
) -> None:
    manifest = {
        "tool": "decg",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if counters is not None:
        manifest["counters"] = counters
    text = json.dumps(manifest, indent=2) + "\n"
    primary = next((p for p in outputs if p != "<stdout>"), None)
    if primary is None:
        sys.stderr.write(text)
    else:
        with open(primary + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_color(args) -> int:
    started = time.perf_counter()
    system = ShiftSystem(alphabet_size=args.k, alpha=args.alpha)
    width = 2 * args.n + 1
    size = args.k ** (width * width)
    if args.max_vertices is None:
        if size > args.vertex_cap:
            sys.stderr.write(
                f"error: {args.k}^{width * width} = {size} vertices exceeds cap "
                f"{args.vertex_cap}; pass --max-vertices to subsample\n"
            )
            return EXIT_CAP
        stream = enumerate_periodic_points(args.k, width)
        universe = "exhaustive"
        sampled = "full"
    else:
        if args.max_vertices > args.vertex_cap:
            sys.stderr.write(
                f"error: --max-vertices {args.max_vertices} exceeds cap {args.vertex_cap}\n"
            )
            return EXIT_CAP
        stream = sample_periodic_points(args.k, width, args.max_vertices, args.seed)
        universe = "stream"
        sampled = f"subsampled seed={args.seed}"
    vertices = greedy_separated(system, stream, system.epsilon(args.n), universe)
    graph = color_graph(system, vertices, args.n, sampled=sampled)
    write_decg(graph, args.out)
    outputs = {args.out: _decg_checksum(graph)}
    params = {
        "system": "shift",
        "k": args.k,
        "n": args.n,
        "alpha": str(args.alpha),
        "max_vertices": args.max_vertices,
        "vertex_cap": args.vertex_cap,
        "threads": args.threads,
        "seed": args.seed,
    }
    _write_manifest(args, params, {}, outputs, started, {"bytes_hashed": _hashed_bytes(args.out)})
    return EXIT_OK


def cmd_cliques(args) -> int:
    started = time.perf_counter()
    graph = read_decg(args.path)
    bad = revalidate_edges(graph)
    if bad is not None:
        i, j, reason = bad
        sys.stderr.write(f"error: edge ({i}, {j}) fails revalidation: {reason}\n")
        return EXIT_VERIFY
    report = mono_clique_report(graph)
    cert = opposite_upper_bound(report, graph, revalidated=True)
    payload = {
        "clique_report": report.to_json(),
        "bound_certificate": cert.to_json() if cert is not None else None,
    }
    outputs = _emit(_json_text(payload), args.out)
    params = {"path": args.path, "threads": args.threads}
    counters = {"bytes_hashed": _hashed_bytes(args.path), "edges_revalidated": graph.edge_count}
    _write_manifest(args, params, {args.path: _decg_checksum(graph)}, outputs, started, counters)
    return EXIT_OK


def cmd_opposite(args) -> int:
    started = time.perf_counter()
    result = opposite_ramsey_exact(args.p, args.q, cap=args.cap)
    outputs = _emit(_json_text(result.to_json()), args.out)
    params = {"p": args.p, "q": args.q, "cap": args.cap}
    _write_manifest(args, params, {}, outputs, started, {"oracle_nodes": result.nodes})
    return EXIT_OK


def cmd_bounds(args) -> int:
    started = time.perf_counter()
    record = bounds_record(args.g, args.k, args.c)
    outputs = _emit(_json_text(record.to_json()), args.out)
    params = {"g": args.g, "k": args.k, "c": str(args.c)}
    _write_manifest(args, params, {}, outputs, started)
    return EXIT_OK


def cmd_dimension(args) -> int:
    started = time.perf_counter()
    if args.n_max < 1:
        sys.stderr.write("error: --n-max must be >= 1\n")
        return EXIT_USAGE
    ShiftSystem(alphabet_size=args.k, alpha=args.alpha)  # refuses k and alpha as color does
    seq = GrowthSequence.shift_closed_form(args.k, args.n_max)
    outputs = _emit(growth_csv(seq, args.alpha), args.out)
    params = {"k": args.k, "n_max": args.n_max, "alpha": str(args.alpha)}
    _write_manifest(args, params, {}, outputs, started)
    return EXIT_OK


def cmd_probe(args) -> int:
    started = time.perf_counter()
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
    outputs = _emit(_json_text(payload), args.out)
    params = {
        "system": "shift",
        "n": args.n,
        "k": args.k,
        "alpha": str(args.alpha),
    }
    _write_manifest(args, params, {}, outputs, started)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except (BadFormat, ChecksumMismatch, NoWitness, InconsistentCertificate) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except (ValueError, DecgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
