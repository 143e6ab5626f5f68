"""The paper's primary contribution: causality and responsibility for
conjunctive query answers and non-answers.

Highlights
----------
* :func:`~repro.core.causality.actual_causes` — PTIME causes via the
  n-lineage (Theorem 3.2).
* :func:`~repro.core.datalog_causality.generate_cause_program` — causes as a
  two-strata Datalog¬ program (Theorem 3.4) and its Corollary 3.7 special
  case.
* :func:`~repro.core.flow_responsibility.flow_responsibility` — Algorithm 1,
  max-flow responsibility for (weakly) linear queries.
* :func:`~repro.core.dichotomy.classify` — the PTIME / NP-hard dichotomy
  (Theorem 4.13, Corollary 4.14) with certificates.
* :func:`~repro.core.api.explain` — the user-facing "why is this answer
  here / missing?" entry point producing Fig. 2b-style rankings.
"""

from .abstract import AbstractAtom, AbstractQuery, abstract_query
from .api import Explanation, ExplanationSession, causes_of, explain
from .bruteforce import (
    brute_force_causes,
    brute_force_is_cause,
    brute_force_minimum_contingency,
    brute_force_responsibility,
)
from .causality import (
    actual_causes,
    causes_from_lineage,
    causes_with_witnesses,
    counterfactual_causes,
    is_actual_cause,
    witness_contingency,
)
from .datalog_causality import (
    causes_via_datalog,
    corollary_conjunctive_program,
    generate_cause_program,
)
from .definitions import (
    CausalityMode,
    Cause,
    is_counterfactual_cause,
    is_valid_contingency,
    responsibility_value,
)
from .dichotomy import (
    ComplexityCategory,
    DichotomyResult,
    classify,
    classify_abstract,
    is_ptime_responsibility,
)
from .flow_responsibility import (
    FlowEngine,
    FlowResponsibilityResult,
    example_flow_network,
    flow_responsibility,
    flow_responsibility_value,
)
from .hitting_set import minimum_hitting_set, minimum_hitting_set_size
from .hypergraph import DualHypergraph, find_linear_order, is_linear, linear_order
from .responsibility import (
    ResponsibilityResult,
    exact_responsibility,
    responsibilities,
    responsibility,
)
from .rewriting import (
    canonical_h1,
    canonical_h2,
    canonical_h3,
    hardness_certificate,
    is_final,
    matches_canonical_hard_query,
)
from .weakening import (
    WeakeningResult,
    WeakeningStep,
    find_weakening,
    is_weakly_linear,
)
from .whyno import (
    whyno_causes_from_n_lineage,
    whyno_causes_with_responsibility,
    whyno_minimum_contingency,
    whyno_responsibility,
)

__all__ = [
    "AbstractAtom",
    "AbstractQuery",
    "CausalityMode",
    "Cause",
    "ComplexityCategory",
    "DichotomyResult",
    "DualHypergraph",
    "Explanation",
    "ExplanationSession",
    "FlowEngine",
    "FlowResponsibilityResult",
    "ResponsibilityResult",
    "WeakeningResult",
    "WeakeningStep",
    "abstract_query",
    "actual_causes",
    "brute_force_causes",
    "brute_force_is_cause",
    "brute_force_minimum_contingency",
    "brute_force_responsibility",
    "canonical_h1",
    "canonical_h2",
    "canonical_h3",
    "causes_from_lineage",
    "causes_of",
    "causes_via_datalog",
    "causes_with_witnesses",
    "classify",
    "classify_abstract",
    "corollary_conjunctive_program",
    "counterfactual_causes",
    "example_flow_network",
    "exact_responsibility",
    "explain",
    "find_linear_order",
    "find_weakening",
    "flow_responsibility",
    "flow_responsibility_value",
    "generate_cause_program",
    "hardness_certificate",
    "is_actual_cause",
    "is_counterfactual_cause",
    "is_final",
    "is_linear",
    "is_ptime_responsibility",
    "is_valid_contingency",
    "is_weakly_linear",
    "linear_order",
    "matches_canonical_hard_query",
    "minimum_hitting_set",
    "minimum_hitting_set_size",
    "responsibilities",
    "responsibility",
    "responsibility_value",
    "whyno_causes_from_n_lineage",
    "whyno_causes_with_responsibility",
    "whyno_minimum_contingency",
    "whyno_responsibility",
    "witness_contingency",
]
