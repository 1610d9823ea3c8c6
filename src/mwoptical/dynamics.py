"""Single-atom response to the microwave drive: exponential depletion of the
metastable excitation and the stimulated optical intensity.
"""

import math
import warnings

from .coupling import MicrowaveDrive, Orientation
from .units import C_CM_S, HBAR_ERG_S

__all__ = [
    "ModelValidityWarning",
    "rho22_at",
    "intensity_full",
    "intensity_weak",
]


class ModelValidityWarning(UserWarning):
    """Emitted when inputs leave the weak-excitation regime the formulas assume."""


def _check_decrement(decrement: float):
    if not 0.0 < decrement <= 2.0:
        raise ValueError(f"damping decrement must lie in (0, 2], got {decrement}")


def rho22_at(t: float, b32: float, gamma_31: float, decrement: float, rho22_0: float) -> float:
    """Surviving metastable excitation rho22_0 * exp(-|b32|^2 * decrement * t / (2*gamma_31))."""
    if not t >= 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not gamma_31 > 0:
        raise ValueError(f"gamma_31 must be positive, got {gamma_31}")
    _check_decrement(decrement)
    if not 0.0 <= rho22_0 <= 1.0:
        raise ValueError(f"rho22_0 must lie in [0, 1], got {rho22_0}")
    return rho22_0 * math.exp(-b32 * b32 * decrement * t / (2.0 * gamma_31))


def intensity_full(omega_31: float, gamma_31: float, b32: float, decrement: float,
                   rho22: float, rho33: float = 0.0) -> float:
    """Stimulated intensity of one atom (erg/s):

        I = decrement * hbar * omega_31 * |b32|^2 / (2*gamma_31) * (rho22 - rho33)

    A population difference rho22 < rho33 lies outside the model's validity;
    the value is returned unclamped with a ModelValidityWarning rather than
    silently zeroed.
    """
    if not gamma_31 > 0:
        raise ValueError("optical transition must have a positive decay rate")
    _check_decrement(decrement)
    if rho22 < rho33:
        warnings.warn(
            f"population inversion is negative (rho22={rho22} < rho33={rho33}); "
            "result is outside the weak-excitation model's validity",
            ModelValidityWarning,
            stacklevel=2,
        )
    return (decrement * HBAR_ERG_S * omega_31
            * b32 * b32 / (2.0 * gamma_31) * (rho22 - rho33))


def intensity_weak(drive: MicrowaveDrive, orient: Orientation, ratio: float,
                   omega_31: float, decrement: float, rho22: float) -> float:
    """Weak-excitation stimulated intensity of one atom (erg/s):

        I = decrement * (6*pi*c^2/omega_31^2) * ratio * cos^2(theta) * rho22 * S_mw

    with ratio = |d_32|^2/|d_31|^2.  Algebraically identical to
    ``intensity_full`` at rho33 = 0 once the coupling and decay-rate
    definitions are substituted (a property the test suite enforces).
    """
    if not omega_31 > 0:
        raise ValueError(f"omega_31 must be positive, got {omega_31}")
    if not ratio >= 0:
        raise ValueError(f"dipole ratio must be nonnegative, got {ratio}")
    _check_decrement(decrement)
    cos_t = math.cos(orient.theta)
    return (decrement * 6.0 * math.pi * C_CM_S**2 / omega_31**2
            * ratio * cos_t * cos_t * rho22 * drive.s_mw)
