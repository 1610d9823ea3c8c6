"""mwoptical: microwave-to-optical conversion estimates for microwave-driven
metastable hydrogen.

The pipeline runs from hydrogenic dipole matrix elements through single-atom
stimulated emission to orientation-averaged ensemble conversion efficiency,
entirely in closed form, with a CSV-emitting CLI on top.
"""

from .units import (
    CGS,
    PhysicalConstants,
    field_from_flux,
    flux_from_field,
    flux_si_to_cgs,
    freq_mhz_to_angular,
    wavelength_to_angular,
)
from .hydrogen import (
    FINE_STRUCTURE_MHZ,
    LAMB_SHIFT_MHZ,
    MODES,
    OPTICAL_ANCHOR_CM,
    RATIO_UNITY,
    HydrogenMode,
    TransitionPair,
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    make_transition_pair,
    mode,
    radial_dipole_integral,
    radial_wavefunction,
)
from .coupling import (
    MicrowaveDrive,
    Orientation,
    coupling_element,
    damping_decrement,
    detuning_lineshape,
)
from .dynamics import (
    ModelValidityWarning,
    intensity_full,
    intensity_weak,
    rho22_at,
    single_atom_cross_section,
)
from .ensemble import (
    EnsembleConfig,
    beta_of,
    depletion_time,
    eta_max,
    evaluate,
    f_beta,
    f_beta_approx_large,
    f_beta_approx_small,
    pulse_energy,
    sigma_max,
    sigma_total,
    total_intensity,
)

__version__ = "0.1.0"
