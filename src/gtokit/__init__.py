"""Gaussian thermal operations on bosonic modes in the covariance-matrix picture.

Subpackages cover the symplectic linear-algebra kernel, Gaussian state and
channel representations, single-mode transformation feasibility, cooling
protocol simulation with the entropy no-go bound, and thermo-majorization
cross-checks for energy-diagonal states.
"""

from .symplectic import (
    CosineSineForm,
    WilliamsonForm,
    build_isotropy_element,
    cosine_sine_decompose,
    is_passive,
    is_symplectic,
    omega,
    passive_to_unitary,
    random_symplectic,
    random_unitary,
    symplectic_eigenvalues,
    triangularize_offdiagonal,
    unitary_to_passive,
    williamson,
)
from .states import (
    FrequencySector,
    FrequencySpectrum,
    GaussianState,
    HamiltonianSpec,
    SingleModeNormalForm,
    entropy,
    free_energy,
    normal_mode_spectrum,
    nu_of,
    single_mode_decompose,
    thermal_state,
    validate_state,
)
from .channels import (
    GaussianChannel,
    GTOSector,
    GTOSpec,
    apply_channel,
    compose,
    dilate_and_trace,
    displaced_gto,
    gto_to_channel,
    oracle_apply,
    single_mode_gto,
    validate_channel,
)
from .feasibility import (
    FeasibilityResult,
    TransformQuery,
    necessary_bounds,
    reachable_set,
    segment_point,
    single_mode_feasible,
    squeezed_bath_feasible,
)
from .cooling import (
    CoolingTrace,
    ProtocolStep,
    entropy_lower_bound,
    greedy_adversary,
    run_protocol,
    sideband_swap,
)
from .thermo import (
    GeometricDist,
    ThermoCurve,
    cross_check,
    curve_dominates,
    geometric_probs,
    thermo_curve,
)

__version__ = "0.1.0"
