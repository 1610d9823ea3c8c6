"""Single-atom stimulated optical intensity under the microwave drive, in the
coupling form and in the flux form.
"""

import math

from .coupling import _cos_theta
from .units import C_CM_S, HBAR_ERG_S, _checked

__all__ = [
    "intensity_full",
    "intensity_weak",
]


def _check_decrement(decrement: float):
    if not 0.0 < decrement <= 2.0:
        raise ValueError(f"damping decrement must lie in (0, 2], got {decrement}")


def intensity_full(omega_31: float, gamma_31: float, b32: float, decrement: float,
                   rho22: float) -> float:
    """Stimulated intensity of one atom (erg/s):

        I = decrement * hbar * omega_31 * |b32|^2 / (2*gamma_31) * rho22

    with rho22 the population difference between the metastable and the
    optical upper level.
    """
    if not gamma_31 > 0:
        raise ValueError("optical transition must have a positive decay rate")
    _check_decrement(decrement)
    return decrement * HBAR_ERG_S * omega_31 * b32 * b32 / (2.0 * gamma_31) * rho22


def intensity_weak(s_mw: float, theta: float, ratio: float, omega_31: float,
                   decrement: float, rho22: float) -> float:
    """Weak-excitation stimulated intensity of one atom (erg/s):

        I = decrement * (6*pi*c^2/omega_31^2) * ratio * cos^2(theta) * rho22 * S_mw

    at drive flux s_mw (erg s^-1 cm^-2) and angle theta (rad) to the dipole axis,
    with ratio = |d_32|^2/|d_31|^2.  Algebraically
    identical to ``intensity_full`` once the coupling and decay-rate definitions
    are substituted (a property the test suite enforces).
    """
    _checked(s_mw, "flux S_mw")
    cos_t = _cos_theta(theta)
    if not omega_31 > 0:
        raise ValueError(f"omega_31 must be positive, got {omega_31}")
    if not ratio >= 0:
        raise ValueError(f"dipole ratio must be nonnegative, got {ratio}")
    _check_decrement(decrement)
    return (decrement * 6.0 * math.pi * C_CM_S**2 / omega_31**2
            * ratio * cos_t * cos_t * rho22 * s_mw)
