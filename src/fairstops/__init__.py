"""Fair transit stop placement toolkit.

Agents travel between endpoint pairs in a metric space and are served by at
most ``k`` selected stops; this package bundles the selection algorithms
(greedy capture over endpoints, expanding cost over stop pairs, their hybrid,
and the line dictator rule), exact verifiers for pair representation, core
stability and proportional fairness with deviation witnesses, generators for
the worst-case instance families, and a small CLI.
"""

from .algorithms import (
    ECA_JR_FACTOR,
    GC_CORE_ALPHA,
    GC_CORE_BETA,
    GC_JR_FACTOR,
    LineClusteringInstance,
    eca,
    exact_min_cost,
    gc_trsp,
    greedy_capture,
    hybrid,
    hybrid_core_beta,
    hybrid_jr_factor,
    l_dictator_partition,
    line_sweep_baseline,
    line_to_clustering,
)
from .fairness import (
    FairnessReport,
    Witness,
    core_ratio,
    core_violation,
    improving_pairs,
    jr_ratio,
    jr_violation,
    pf_ratio,
    pf_violation,
)
from .instances import (
    FAMILIES,
    InstanceParseError,
    canonical_family,
    generate,
    random_euclidean,
    read_instance,
    write_instance,
)
from .model import (
    INF,
    ClusteringInstance,
    EnumerationGuardError,
    Instance,
    Metric,
    RunTrace,
    Solution,
    TraceEvent,
    agent_cost,
    clustering_to_trsp,
    induce_clustering,
    route_costs,
    solution_costs,
    total_cost,
    validate_instance,
)

__version__ = "0.1.0"
