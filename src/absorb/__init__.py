"""Absorption in finite semigroups and n-ary semigroups.

Decide whether a subalgebra absorbs via the product-plus-exponent
criterion, cross-check against an exact absorbing-term oracle, and
machine-verify the equivalences over exhaustively enumerated corpora.
"""

from .core import (
    NaryTable,
    PowerProfile,
    Subuniverse,
    TableFacts,
    Word,
    canonical_form,
    compute_exponent,
    derive_power_algebra,
    enumerate_subuniverses,
    eval_word,
    is_associative,
    is_closed,
    is_commutative,
    is_idempotent,
    power_profile,
    table_digest,
    table_facts,
)
from .criteria import (
    AbsorptionVerdict,
    CaseTag,
    FailedCondition,
    cond2_products,
    cond3_products,
    construct_witness,
    decide_theorem,
    detect_case,
    verify_witness,
)
from .errors import (
    AbsorbError,
    BudgetExceeded,
    LengthNotEvaluable,
    NotAssociative,
    NotClosed,
    NotProperSubuniverse,
    PreconditionsUnmet,
)
from .generate import GenSpec, enumerate_tables
from .harness import (
    Agreement,
    CorpusReport,
    PairReport,
    check_pair,
    derived_fact_probes,
    oracle_agrees,
    run_corpus,
)
from .oracle import (
    OracleBounds,
    OracleOutcome,
    OracleStop,
    search_absorbing_term,
)
from .version import VERSION

__version__ = VERSION

__all__ = [
    "AbsorbError",
    "AbsorptionVerdict",
    "Agreement",
    "BudgetExceeded",
    "CaseTag",
    "CorpusReport",
    "FailedCondition",
    "GenSpec",
    "LengthNotEvaluable",
    "NaryTable",
    "NotAssociative",
    "NotClosed",
    "NotProperSubuniverse",
    "OracleBounds",
    "OracleOutcome",
    "OracleStop",
    "PairReport",
    "PowerProfile",
    "PreconditionsUnmet",
    "Subuniverse",
    "TableFacts",
    "Word",
    "canonical_form",
    "check_pair",
    "compute_exponent",
    "cond2_products",
    "cond3_products",
    "construct_witness",
    "decide_theorem",
    "derive_power_algebra",
    "derived_fact_probes",
    "detect_case",
    "enumerate_subuniverses",
    "enumerate_tables",
    "eval_word",
    "is_associative",
    "is_closed",
    "is_commutative",
    "is_idempotent",
    "oracle_agrees",
    "power_profile",
    "run_corpus",
    "search_absorbing_term",
    "table_digest",
    "table_facts",
    "verify_witness",
]
