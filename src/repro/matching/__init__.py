"""Subgraph matching algorithms: direct-enumeration (Ullmann, VF2) and
preprocessing-enumeration (GraphQL, CFL, CFQL)."""

from repro.matching.base import MatchOutcome, PreprocessingMatcher, SubgraphMatcher
from repro.matching.bipartite import (
    has_semi_perfect_matching,
    has_semi_perfect_matching_bits,
    maximum_bipartite_matching,
)
from repro.matching.candidates import (
    CandidateSets,
    ldf_candidate_bits,
    ldf_candidates,
    nlf_candidate_bits,
    nlf_candidates,
)
from repro.matching.cfl import CFLMatcher
from repro.matching.cfql import CFQLMatcher
from repro.matching.enumeration import (
    EnumerationResult,
    enumerate_embeddings,
    enumerate_embeddings_recursive,
)
from repro.matching.graphql import GraphQLMatcher
from repro.matching.ordering import join_based_order, path_based_order
from repro.matching.plan import (
    CompiledOrder,
    PlanCache,
    QueryPlan,
    canonical_query_key,
    compile_order,
    compile_plan,
    exact_query_key,
)
from repro.matching.quicksi import QuickSIMatcher, qi_sequence_order
from repro.matching.spath import SPathMatcher, neighborhood_signature
from repro.matching.turboiso import TurboIsoMatcher
from repro.matching.ullmann import UllmannMatcher
from repro.matching.vf2 import VF2Matcher

__all__ = [
    "CFLMatcher",
    "CFQLMatcher",
    "CandidateSets",
    "CompiledOrder",
    "EnumerationResult",
    "GraphQLMatcher",
    "MatchOutcome",
    "PlanCache",
    "PreprocessingMatcher",
    "QueryPlan",
    "QuickSIMatcher",
    "SPathMatcher",
    "SubgraphMatcher",
    "TurboIsoMatcher",
    "UllmannMatcher",
    "VF2Matcher",
    "canonical_query_key",
    "compile_order",
    "compile_plan",
    "enumerate_embeddings",
    "enumerate_embeddings_recursive",
    "exact_query_key",
    "has_semi_perfect_matching",
    "has_semi_perfect_matching_bits",
    "join_based_order",
    "ldf_candidate_bits",
    "ldf_candidates",
    "maximum_bipartite_matching",
    "neighborhood_signature",
    "nlf_candidate_bits",
    "nlf_candidates",
    "path_based_order",
    "qi_sequence_order",
]
