"""ebitnet: simulate collective quantum operations on separated qubits and
account for the entanglement and classical-communication they cost or yield."""

from .engine import (
    BranchEnsemble,
    Gate,
    Povm,
    QubitId,
    RegistryCapacityError,
    allocate_qubits,
    apply_gate,
    bell_measure,
    entanglement_entropy,
    measure_computational,
    measure_povm,
    reduced_density,
    shannon_entropy,
    state_fidelity,
)
from .gates import (
    Permutation,
    bell_state,
    bell_states,
    local_equivalence_conjugate,
    permutation_unitary,
    ps_cp_permutation,
    ps_permutation,
)
from .graphs import (
    CommunicationGraph,
    DeltaMatrix,
    EntanglementGraph,
    GraphBundle,
    Partition,
    cross_partition,
    delta_three_lab_bound,
    expendable_resources,
    export_dot,
    half_transfer_check,
    import_json,
    star_graphs,
    symmetrise,
    symmetrised_edge_weight,
    total_communication,
    total_entanglement,
)
from .ledger import InsufficientResources, ProtocolTrace, ResourceLedger
from .protocols import (
    CollectiveOp,
    ProtocolRun,
    collective_op_star,
    permutation_communicate,
    permutation_entangle,
    superdense_send,
    supplementary_information,
    teleport,
)
from .bounds import (
    BoundReport,
    comparison_predicates,
    distillation_caps,
    bound_table,
    half_transfer_bounds,
    integer_one_shot_bounds,
    lower_bounds,
    min_teleportation_count,
    teleport_resources,
)

__version__ = "0.1.0"
