"""Repair and maintenance scheduling on networks.

A single repairer serves machines that degrade stochastically at nodes of
a graph.  The package provides the uniformized MDP model, exact
average-cost policy iteration for small instances, index heuristics, a
cyclic polling benchmark, a rollout-based online policy improvement
method with a confidence-gated safe fallback, and a reproducible
experiment harness.
"""

from .dp import (
    DpSolution,
    StationaryPolicy,
    evaluate_policy,
    policy_iteration,
    reward_optimum,
)
from .index_policy import (
    IndexPolicy,
    ModifiedIndexPolicy,
    arrival_distribution,
    repair_statistics,
)
from .instance import (
    CostKind,
    CostModel,
    InstanceParameters,
    counterexample_instances,
    two_machine_instance,
    generate_instance,
    load_instance,
    save_instance,
)
from .mdp import (
    SimulationReport,
    SystemState,
    simulate,
    validate_state,
)
from .network import (
    NetworkLayout,
    build_complete_layout,
    build_lattice_layout,
    build_star_layout,
    shortest_next_hop,
)
from .opi import (
    OpiBudget,
    ValueStore,
    confidence_interval,
    offline_main,
    offline_preparatory,
    online_run,
    run_opi,
)
from .polling import PollingPolicy, PollingTour, best_polling_report, best_tour

__version__ = "0.1.0"
