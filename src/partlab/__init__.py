"""Exact integer-partition arithmetic: six counting engines, the pentagonal
and integrated coefficient series with their divisor-sum recurrences, a small
rewrite-system framework whose reduction graphs turn composite recurrences
into direct ones, and the binary path codes carrying the sign-cancellation
combinatorics underneath.

Everything is exact integer arithmetic end to end; any division is checked
and raises if it would truncate.
"""

from types import ModuleType as _ModuleType

from .coefficients import (
    CoeffSeq,
    c_from_product,
    c_from_recurrence,
    e_from_recurrence,
    euler_e,
    euler_product,
    euler_seq,
    f_equals_e_predicate,
    integrated_f,
    pentagonal_index,
    pentagonal_pairs,
    sigma,
    sigma_table,
)
from .codes import (
    Classification,
    DecodedWalk,
    Lemma51Report,
    PathCode,
    classify,
    code_of_path,
    decode_path,
    edge_count,
    enumerate_Bj,
    from_strict_partition,
    involution,
    lemma51,
    pentagonal_codes,
    polarity,
    split_valuation,
    to_strict_partition,
    valuation,
)
from .dag import (
    AuxVertex,
    Dag,
    DagEdge,
    ExtractedRecurrence,
    RootVertex,
    TerminalVertex,
    TerminatingPath,
    build_dag,
    emit_dot,
    enumerate_terminating_paths,
    extract_coefficients,
    extract_from_dag,
    grouped_path_sums,
    signed_multiplicities,
)
from .engines import EngineKind, make_engine, p_all, p_euler
from .errors import (
    AmbiguousRule,
    BudgetExceeded,
    CyclicReduction,
    InvalidCode,
    InvalidPartition,
    NoRuleApplies,
    NonIntegralDivision,
    NotInDomain,
    OracleLimitError,
    PartlabError,
)
from .oracle import (
    ORACLE_CAP,
    count_constrained,
    enumerate_partitions,
    enumerate_strict,
    max_part_histogram,
    p_oracle,
    s_oracle,
    validate_partition,
)
from .rewrite import (
    Auxiliary,
    BUILTIN_NAMES,
    OrthogonalityReport,
    Primary,
    Region,
    Rule,
    RuleKind,
    RewriteSystem,
    UnitarityReport,
    builtin_system,
    check_orthogonal,
    check_unitary,
    eval_atom,
    ground_rule,
    overlapping_minpart_rules,
)
from .verify import Check, SUITES, VerifyConfig, VerifyReport, run as run_verify

__version__ = "0.1.0"

# Every name imported above, once: the submodules the imports bind are not
# part of the list.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
