"""Microwave drive bookkeeping, the field-dipole coupling element, and the
double-Lorentzian damping decrement that weights drive effectiveness
against detuning from the 2s-2p resonance.
"""

import math

from .units import HBAR_ERG_S, _Record, flux_from_field

__all__ = [
    "MicrowaveDrive",
    "Orientation",
    "coupling_element",
    "damping_decrement",
    "detuning_lineshape",
]


class MicrowaveDrive(_Record):
    """Microwave field with amplitude e0 (statV/cm); the detuning enters as a decrement,
    and the energy flux s_mw = c*e0^2/(8*pi) is derived, never stored."""

    def __init__(self, e0: float):
        vars(self).update(e0=e0)
        # Comparisons with math.inf also reject nan, which fails every comparison.
        if not 0 <= e0 < math.inf:
            raise ValueError(f"field amplitude must be finite and nonnegative, got {e0}")

    @property
    def s_mw(self) -> float:
        """Energy flux density in erg s^-1 cm^-2."""
        return flux_from_field(self.e0)


class Orientation(_Record):
    """Angle theta (rad) between the microwave field and the atomic dipole axis."""

    def __init__(self, theta: float):
        vars(self).update(theta=theta)
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


def coupling_element(d: float, drive: MicrowaveDrive, orient: Orientation) -> float:
    """Field-dipole coupling rate b = d*E0*cos(theta)/hbar (rad/s).

    Carries the sign of cos(theta); everything downstream consumes |b|^2,
    so the sign cannot leak into observables.
    """
    if not d >= 0:
        raise ValueError(f"dipole magnitude must be nonnegative, got {d}")
    return d * drive.e0 * math.cos(orient.theta) / HBAR_ERG_S


def damping_decrement(omega: float, omega_32: float, gamma_31: float) -> float:
    """Dimensionless stimulated-emission decrement, a sum of two Lorentzians:

        g^2/(g^2 + (w32 + w)^2) + g^2/(g^2 + (w32 - w)^2),   g = gamma_31.

    The width is set by the *optical* decay rate gamma_31, not by the microwave
    transition's own (negligible) rate.  Peaks at omega = omega_32 where it
    equals 1 + g^2/(g^2 + 4*w32^2), i.e. ~1 for any realistic w32 >> g.
    """
    if not gamma_31 > 0:
        raise ValueError(f"gamma_31 must be positive, got {gamma_31}")
    if not omega >= 0:
        raise ValueError(f"drive frequency must be nonnegative, got {omega}")
    g2 = gamma_31 * gamma_31
    return g2 / (g2 + (omega_32 + omega) ** 2) + g2 / (g2 + (omega_32 - omega) ** 2)


def detuning_lineshape(detuning: float, gamma_31: float) -> float:
    """Resonant Lorentzian g^2/(g^2 + delta^2) for angular detuning delta (rad/s).

    Near-resonance form of ``damping_decrement`` with the counter-rotating term
    (<= 2e-3 at the catalog resonances) dropped: it equals exactly 1 at zero
    detuning and is identical for both microwave channels, which keeps the
    conversion figures channel-independent.
    """
    if not gamma_31 > 0:
        raise ValueError(f"gamma_31 must be positive, got {gamma_31}")
    g2 = gamma_31 * gamma_31
    return g2 / (g2 + detuning * detuning)
