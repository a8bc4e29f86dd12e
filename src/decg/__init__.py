"""decg: edge-colorings of complete graphs from shift dynamics.

Builds separated point sets of the two-dimensional full shift, colors the
complete graph on them by separating shift vectors, analyzes monochromatic
cliques, and compares the resulting certificates against exact
opposite-Ramsey numbers and classical Ramsey bounds.
"""

__version__ = "0.1.0"

from .action import (
    ColorSet,
    LatticeVector,
    PeriodicConfiguration,
    ShiftDistance,
    ShiftSystem,
    ball_vectors,
    encode_pattern,
    enumerate_periodic_points,
    mix64,
    parse_pattern,
    ring_vectors,
    sample_periodic_points,
    shift_min_diff,
)
from .cliques import (
    BoundCertificate,
    CliqueReport,
    max_clique,
    mono_clique_report,
    opposite_upper_bound,
    revalidate_edges,
)
from .colorer import (
    ColoredGraph,
    color_graph,
    decg_dumps,
    fnv1a64,
    read_decg,
    write_decg,
)
from .errors import (
    BadFormat,
    CapExceeded,
    ChecksumMismatch,
    DecgError,
    InconsistentCertificate,
    MismatchedSystems,
    NoWitness,
    PrecisionLoss,
    RangeTooSmall,
    UnknownColor,
)
from .metric import (
    Counterexample,
    RecoveryReport,
    WitnessResult,
    find_witness,
    probe_question,
    verify_recovery,
)
from .ramsey import (
    BoundsRecord,
    OppositeRamseyResult,
    SandwichReport,
    bounds_record,
    floor_log_shift,
    gg_upper,
    lr_lower,
    opposite_ramsey_exact,
    ramsey_holds,
    sandwich_report,
    verify_extremal,
)
from .sepset import (
    GrowthSequence,
    SeparatedSet,
    SuperpolyReport,
    dimension_sequence,
    greedy_separated,
    growth_csv,
    s_count_shift_exact,
    separation_check,
    superpoly_check,
)
