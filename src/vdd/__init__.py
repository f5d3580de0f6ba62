"""Variational decision diagrams for n-qubit wavefunctions.

A normalized state is stored as a leveled binary DAG whose edges carry
complex weights derived from per-node parameters (r, omega, phi); the
amplitude of a bit string is the product of edge weights along its path
times a unit global phase.  The package provides graph builders, exact
and Monte Carlo energy/gradient engines, gradient-descent training, the
gradient-variance and field-sweep experiments, and a CLI (`vdd`).
"""

from .ansatz import (
    ANSATZ_KINDS,
    InitScheme,
    build_ansatz,
    build_automaton,
    encode_state,
    init_params,
    parse_init_scheme,
)
from .exact import (
    GradientVector,
    SingularGradientWarning,
    exact_energy,
    exact_gradient,
    finite_difference,
    parameter_labels,
    to_state_vector,
)
from .experiments import (
    GSweepResult,
    VarianceScanConfig,
    VarianceScanResult,
    best_dimer,
    g_sweep,
    training_curves,
    variance_scan,
)
from .graph import (
    TERMINAL,
    Node,
    ParamTriple,
    ParseError,
    VddGraph,
    amplitude,
    deserialize,
    edge_amplitudes,
    serialize,
    validate,
)
from .hamiltonian import (
    ModelSpec,
    PauliHamiltonian,
    PauliString,
    apply_string,
    apply_to_vector,
    build_model,
    dense_matrix,
    expectation,
    ground_energy,
    tfim_ground_energy,
    xx_ground_energy,
)
from .optimize import (
    AdamConfig,
    ConfigError,
    SgdConfig,
    TrainConfig,
    TrainTrace,
    TrainingError,
    train,
)
from .state import CapacityError, StateVector
from .vmc import (
    VmcBatch,
    local_estimator,
    log_derivatives,
    sample,
    sample_batch,
    vmc_energy,
    vmc_gradient,
    vmc_gradient_stderr,
)

__version__ = "0.1.0"

__all__ = [
    "ANSATZ_KINDS",
    "AdamConfig",
    "CapacityError",
    "ConfigError",
    "GSweepResult",
    "GradientVector",
    "InitScheme",
    "ModelSpec",
    "Node",
    "ParamTriple",
    "ParseError",
    "PauliHamiltonian",
    "PauliString",
    "SgdConfig",
    "SingularGradientWarning",
    "StateVector",
    "TERMINAL",
    "TrainConfig",
    "TrainTrace",
    "TrainingError",
    "VarianceScanConfig",
    "VarianceScanResult",
    "VddGraph",
    "VmcBatch",
    "amplitude",
    "apply_string",
    "apply_to_vector",
    "best_dimer",
    "build_ansatz",
    "build_automaton",
    "build_model",
    "dense_matrix",
    "deserialize",
    "edge_amplitudes",
    "encode_state",
    "exact_energy",
    "exact_gradient",
    "expectation",
    "finite_difference",
    "g_sweep",
    "ground_energy",
    "init_params",
    "local_estimator",
    "log_derivatives",
    "parameter_labels",
    "parse_init_scheme",
    "sample",
    "sample_batch",
    "serialize",
    "tfim_ground_energy",
    "to_state_vector",
    "train",
    "training_curves",
    "validate",
    "variance_scan",
    "vmc_energy",
    "vmc_gradient",
    "vmc_gradient_stderr",
    "xx_ground_energy",
]
