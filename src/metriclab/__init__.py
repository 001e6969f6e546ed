"""metriclab: finite metric and ultrametric spaces as validated matrices.

The package measures three structural moduli (doubling constant,
bottleneck-chain modulus, annulus-emptiness constant), glues spaces
along clopen partitions, and runs carve-and-replace pipelines that move
any space within a small sup-distance of one with a prescribed
combination of those properties.  A seeded experiment driver and a CLI
sit on top.
"""

import types

from .build import (
    ClopenPartition,
    Embedding,
    UPApproximation,
    amalgamate_metric,
    amalgamate_ultrametric,
    approximate_doubling,
    approximate_ud,
    approximate_up,
    carve_pieces,
    greedy_net,
    merge_singletons,
    pairwise_linf,
)
from .cantor import (
    BinaryPointSet,
    cantor_prefix_metric,
    generate_type,
    geometric_prefix_ultrametric,
    sequential_metric,
)
from .errors import (
    AsymmetricMatrix,
    BadScaleCutoff,
    DegenerateSpace,
    GenerationFailed,
    LabelMismatch,
    MetricLabError,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotUltrametric,
    PieceMismatch,
    SeparationUndefined,
    SequenceTooShort,
    StrongTriangleViolation,
    TooFewPoints,
    TriangleViolation,
    ValidationError,
    ValueOutsideRangeSet,
    WindowMiss,
    ZeroOffDiagonal,
)
from .lab import (
    ExperimentConfig,
    matrix_digest,
    random_s_ultrametric,
    random_space,
    render_report,
    run_experiment,
    trial_rng,
)
from .moduli import (
    DEFAULT_THRESHOLDS,
    DoublingReport,
    Thresholds,
    TypeVector,
    UDReport,
    UPReport,
    bottleneck_matrix,
    classify,
    doubling_constant,
    ud_modulus,
    up_constant,
)
from .rangesets import (
    RangeSet,
    ShrinkingSequence,
    WindowCheck,
    contains,
    double_exponential_range_set,
    exponential_sequence,
    geometric_range_set,
    greatest_leq,
    is_exponential_window,
    ladder,
    least_geq,
    rangeset_from_json,
    realized_envelope,
    sequence_from_json,
    sequence_to_json,
    up_obstruction,
)
from .spaces import (
    DEFAULT_TOL,
    METRIC,
    ULTRAMETRIC,
    FiniteMetricSpace,
    diagnose,
    metric_closure,
    space_from_json,
    space_to_json,
    sup_distance,
    ultra_distance,
    validate,
)

__version__ = "0.1.0"

# every public, non-module name bound above
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
