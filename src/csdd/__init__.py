"""Credal sentential decision diagrams.

Logic circuits (vtrees, SDDs) carrying precise or interval-valued local
distributions, with exact marginal bounds, bracketing conditional bounds,
most-probable-completion queries and robustness analysis, plus learning
from Boolean data and bit-exact file formats.
"""

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    ConnectivityReport,
    Vtree,
    compile_formula,
    enumerate_models,
    evaluate,
    is_consistent,
    model_count,
    multiplicity_report,
)
from .credal import (
    CredalSetError,
    IntervalCredalSet,
    Vertex,
    enumerate_vertices,
    normalize_reachable,
)
from .formula import Formula, Var, conj, disj, parse_formula
from .infer import (
    ConditionalResult,
    EvidenceSession,
    ExactnessCertificate,
    InferenceError,
    InferenceTrace,
    Query,
    RobustnessVerdict,
    brute_force_exact,
    conditional_sign,
    credal_map_upper,
    exactness_certificate,
    joint_probability,
    lower_conditional,
    lower_marginal,
    map_query,
    marginal,
    robustness,
    strong_extension_oracle,
    upper_conditional,
    upper_marginal,
)
from .learn import (
    ContextCounts,
    Dataset,
    LearnError,
    bayes_estimate,
    collect_counts,
    idm_estimate,
    ml_estimate,
)
from .params import CsddParams, ParamError, PsddParams

__version__ = "0.1.0"
