"""Exact integer-partition arithmetic: six counting engines, the pentagonal
and integrated coefficient series with their divisor-sum recurrences, a small
rewrite-system framework whose reduction graphs turn composite recurrences
into direct ones, and the binary path codes carrying the sign-cancellation
combinatorics underneath.

Everything is exact integer arithmetic end to end; any division is checked
and raises if it would truncate.

The package loads lazily (PEP 562): `import partlab` imports no submodule,
and the first access to a public name imports the submodule that owns it,
so a caller pays only for the layers it uses.
"""

from importlib import import_module as _import_module


def _owned_by(module: str, *names: str) -> dict[str, str]:
    return dict.fromkeys(names, module)


# Every public name, once, with the submodule that defines it; a value
# "module.attr" exports that attribute under another name.
_EXPORTS = {
    **_owned_by(
        "coefficients",
        "CoeffSeq",
        "c_from_product",
        "c_from_recurrence",
        "e_from_recurrence",
        "euler_e",
        "euler_product",
        "euler_seq",
        "f_equals_e_predicate",
        "integrated_f",
        "pentagonal_index",
        "pentagonal_pairs",
        "sigma_table",
    ),
    **_owned_by(
        "codes",
        "Classification",
        "DecodedWalk",
        "Lemma51Report",
        "PathCode",
        "code_of_path",
        "decode_path",
        "enumerate_Bj",
        "from_strict_partition",
        "involution",
        "lemma51",
        "pentagonal_codes",
        "polarity",
        "split_valuation",
        "to_strict_partition",
        "valuation",
    ),
    **_owned_by(
        "dag",
        "AuxVertex",
        "Dag",
        "DagEdge",
        "ExtractedRecurrence",
        "RootVertex",
        "TerminalVertex",
        "TerminatingPath",
        "build_dag",
        "emit_dot",
        "enumerate_terminating_paths",
        "extract_from_dag",
        "grouped_path_sums",
        "signed_multiplicities",
        "terminating_paths",
    ),
    **_owned_by("engines", "EngineKind", "make_engine"),
    **_owned_by(
        "errors",
        "AmbiguousRule",
        "BudgetExceeded",
        "CyclicReduction",
        "InvalidCode",
        "InvalidPartition",
        "NoRuleApplies",
        "NonIntegralDivision",
        "NotInDomain",
        "OracleLimitError",
        "PartlabError",
    ),
    **_owned_by(
        "oracle",
        "ORACLE_CAP",
        "count_constrained",
        "enumerate_partitions",
        "enumerate_strict",
        "max_part_histogram",
        "p_oracle",
        "s_oracle",
        "validate_partition",
    ),
    **_owned_by(
        "rewrite",
        "Auxiliary",
        "BUILTIN_NAMES",
        "OrthogonalityReport",
        "Primary",
        "Region",
        "Rule",
        "RuleKind",
        "RewriteSystem",
        "UnitarityReport",
        "builtin_system",
        "check_orthogonal",
        "check_unitary",
        "eval_atom",
        "overlapping_minpart_rules",
    ),
    **_owned_by("verify", "Check", "SUITES", "VerifyConfig", "VerifyReport"),
    "run_verify": "verify.run",
}

# Submodules load on first access too, as partlab.dag and the like.
_SUBMODULES = {target.partition(".")[0] for target in _EXPORTS.values()} | {"budget"}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that owns a public name, on its first access."""
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    try:
        module, _, attr = _EXPORTS[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), attr or name)
    globals()[name] = value  # later accesses skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
