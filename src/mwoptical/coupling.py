"""The field-dipole coupling element of a microwave field, and the
double-Lorentzian damping decrement that weights drive effectiveness
against detuning from the 2s-2p resonance.
"""

import math

from .hydrogen import GAMMA_31
from .units import HBAR_ERG_S, _checked

__all__ = [
    "coupling_element",
    "damping_decrement",
    "detuning_lineshape",
]


def _cos_theta(theta: float) -> float:
    """cos(theta) for the angle theta (rad) between the microwave field and the
    atomic dipole axis, or ValueError unless theta lies in [0, pi]."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return math.cos(theta)


def coupling_element(d: float, e0: float, theta: float) -> float:
    """Field-dipole coupling rate b = d*E0*cos(theta)/hbar (rad/s) for a field of
    amplitude e0 (statV/cm) at angle theta (rad) to the dipole axis.

    Carries the sign of cos(theta); everything downstream consumes |b|^2,
    so the sign cannot leak into observables.
    """
    _checked(e0, "field amplitude")
    cos_t = _cos_theta(theta)
    if not d >= 0:
        raise ValueError(f"dipole magnitude must be nonnegative, got {d}")
    return d * e0 * cos_t / HBAR_ERG_S


def damping_decrement(omega: float, omega_32: float) -> float:
    """Dimensionless stimulated-emission decrement, a sum of two Lorentzians:

        g^2/(g^2 + (w32 + w)^2) + g^2/(g^2 + (w32 - w)^2),   g = hydrogen.GAMMA_31.

    The width is set by the *optical* decay rate gamma_31, not by the microwave
    transition's own (negligible) rate.  Peaks at omega = omega_32 where it
    equals 1 + g^2/(g^2 + 4*w32^2), i.e. ~1 for any realistic w32 >> g.
    """
    if not omega >= 0:
        raise ValueError(f"drive frequency must be nonnegative, got {omega}")
    return detuning_lineshape(omega_32 + omega) + detuning_lineshape(omega_32 - omega)


def detuning_lineshape(detuning: float) -> float:
    """Resonant Lorentzian g^2/(g^2 + delta^2), g = GAMMA_31, at detuning delta (rad/s).

    Near-resonance form of ``damping_decrement`` with the counter-rotating term
    (<= 2e-3 at the catalog resonances) dropped: it equals exactly 1 at zero
    detuning and is identical for both microwave channels, which keeps the
    conversion figures channel-independent.
    """
    g2 = GAMMA_31 * GAMMA_31
    return g2 / (g2 + detuning * detuning)
