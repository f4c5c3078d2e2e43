"""Bosonic quantum channels on a truncated Fock space.

Models completely positive trace-preserving maps in Kraus form on an
N-level number-state truncation, restricts them to subspaces, certifies
invariant hulls and subchannels, averages pure-state transmission fidelity
over the Bloch sphere by two independent routes, and searches qubit
encodings that maximize it.
"""

from .channels import (
    ChannelVerification,
    KrausChannel,
    adjoint_apply,
    apply_channel,
    superoperator_of,
    tp_defect_on_block,
    verify_channel,
)
from .encodings import (
    OptimizationResult,
    PairFidelity,
    StartRecord,
    contiguous_pair_sweep,
    encoding_from_coefficients,
    leading_ties,
    optimize_encoding,
    realize_encoding,
    three_level_encoding,
)
from .errors import (
    ConstraintError,
    DimensionMismatchError,
    PrecisionLossError,
    ResourceLimitError,
    SupportError,
)
from .families import (
    amplitude_damping,
    amplitude_damping_closed,
    coherent_action_closed,
    depolarizing,
    identity_channel,
    phase_damping,
    phase_damping_closed,
)
from .fidelity import (
    FidelityReport,
    average_fidelity_closed,
    average_fidelity_quadrature,
    bloch_state,
    cross_checked_fidelity,
    damping_fidelity_series,
    pure_fidelity,
)
from .fileio import load_channel, load_coefficient_rows, save_channel
from .fock import coherent_state, fock_state, log_binomial
from .subspaces import (
    HullReport,
    RestrictedChannel,
    Subspace,
    UnitalityReport,
    cat_state_subspace,
    fixed_point_space,
    invariant_hull_check,
    projector,
    restrict,
    subspace_overlap,
    unitality_check,
)

__version__ = "0.1.0"
