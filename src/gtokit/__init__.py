"""Gaussian thermal operations on bosonic modes in the covariance-matrix picture.

Subpackages cover the symplectic linear-algebra kernel, Gaussian state and
channel representations, single-mode transformation feasibility, cooling
protocol simulation with the entropy no-go bound, and thermo-majorization
cross-checks for energy-diagonal states.

The public names below resolve on first use (PEP 562), each from the module
listed with it, so that ``import gtokit`` loads no numpy.
"""

import importlib as _importlib

_EXPORTS = {
    "symplectic": (
        "CosineSineForm",
        "WilliamsonForm",
        "build_isotropy_element",
        "cosine_sine_decompose",
        "is_passive",
        "is_symplectic",
        "omega",
        "random_symplectic",
        "random_unitary",
        "symplectic_eigenvalues",
        "triangularize_offdiagonal",
        "unitary_to_passive",
        "williamson",
    ),
    "states": (
        "FrequencySector",
        "FrequencySpectrum",
        "GaussianState",
        "HamiltonianSpec",
        "SingleModeNormalForm",
        "free_energy",
        "normal_mode_spectrum",
        "single_mode_decompose",
        "thermal_state",
        "validate_state",
    ),
    "scalar": (
        "entropy",
        "entropy_lower_bound",
        "nu_of",
    ),
    "channels": (
        "GaussianChannel",
        "GTOSector",
        "GTOSpec",
        "apply_channel",
        "compose",
        "dilate_and_trace",
        "displaced_gto",
        "gto_to_channel",
        "oracle_apply",
        "single_mode_gto",
        "validate_channel",
    ),
    "feasibility": (
        "FeasibilityResult",
        "TransformQuery",
        "necessary_bounds",
        "single_mode_feasible",
        "squeezed_bath_feasible",
    ),
    "cooling": (
        "CoolingTrace",
        "ProtocolStep",
        "greedy_adversary",
        "run_protocol",
        "sideband_swap",
    ),
    "thermo": (
        "cross_check",
        "geometric_probs",
        "thermo_curve",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# A star-import resolves these through __getattr__: the exports and their modules.
__all__ = sorted(_HOME) + list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # the modules themselves, as when the package imported them eagerly
        return _importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOME))
