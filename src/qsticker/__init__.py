"""Construction and verification toolkit for simultaneous logical Pauli
measurements on quantum LDPC codes via glue codes and stickers."""

from .errors import InternalError
from .gf2 import (
    Gf2Matrix,
    kernel_basis,
    rank,
    solve_left,
    standard_form,
    subspace_intersect,
)
from .codes import (
    DistanceResult,
    OperatorSet,
    SubsystemCode,
    build_sticker,
    crowd_numbers,
    css_code,
    derive_css_logicals,
    exact_distance,
    hgp,
    redundancy_number,
    repetition_check,
    subsystem_code,
    support_union,
    validate_code,
)
from .tanner import bit_duplication, check_duplication
from .glue import (
    GlueError,
    GlueSpec,
    LogicalSplit,
    classify_devisedness,
    dressing_matrix,
    finely_devised_glue,
    naked_glue,
    split_logicals,
)
from .stickers import (
    DeformedCode,
    GlsReport,
    deform,
    paste_branch,
    paste_measurement,
    sticker_qubits,
    verify_surgery,
)
from .branching import (
    BranchTree,
    CostReport,
    assemble_plan,
    estimate_qubit_cost,
    plan_branching,
)
from .pauli import (
    MeasurementPlan,
    PauliOp,
    build_measurement_plan,
    is_regular,
    parse_pauli,
    regularise,
)
from .tableau import (
    StabilizerState,
    enumerate_plan_branches,
    plan_initial_state,
    projector_oracle,
    simulate_plan,
)
from .sampling import SigmaSampler
from .bench import BenchRun, bench_cost, bench_overlap

__version__ = "0.1.0"
