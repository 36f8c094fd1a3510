"""Rule-based reconstruction of sovereign-debt rating models.

Numeric country indicators are binarized through class-boundary cut-points,
pure conjunctive patterns of bounded degree are mined into per-class DNFs,
and the DNFs are chained into an ordinal first-match cascade over the
16-level rating scale.
"""

from .binarize import (
    BinaryView,
    CutPoint,
    Literal,
    all_candidate_cutpoints,
    binarize,
    minimize_cutpoints,
)
from .cascade import TOOL_VERSION as __version__
from .cascade import (
    CascadeModel,
    KeyVariableReport,
    Provenance,
    classify,
    export_decision_tree,
    first_match,
    import_decision_tree,
    key_variables,
    train_cascade,
)
from .data import (
    BUILTIN_INDICATORS,
    DEFAULT_REGISTRY,
    DEFAULT_SCALE,
    CountryRecord,
    Dataset,
    Indicator,
    RatingScale,
    Split,
    load_dataset,
    make_registry,
    serialize_dataset,
    split_dataset,
)
from .errors import (
    ContradictionError,
    CoverageError,
    DataFormatError,
    DecisionTreeParseError,
    LadError,
)
from .evaluate import (
    EvaluationReport,
    Mismatch,
    MismatchRows,
    RepeatOffenderSummary,
    evaluate,
    repeat_offenders,
    report_from_pairs,
)
from .patterns import (
    ClassDnf,
    MiningConfig,
    Pattern,
    enumerate_patterns,
    select_dnf,
)
