"""Gaussian-CGS constants and the boundary unit conversions.

Everything downstream (dipole elements, decay rates, field couplings,
flux bookkeeping) is evaluated in Gaussian CGS with the five CODATA 2018
constants below, module floats that every module reads directly; user-facing
quantities (MHz, nm, W/cm^2) are converted here, once, at the boundary.
"""

import math

__all__ = [
    "HBAR_ERG_S",
    "C_CM_S",
    "E_STATC",
    "A0_CM",
    "MU_H_G",
    "ERG_PER_S_PER_W",
    "CM_PER_NM",
    "freq_mhz_to_angular",
    "wavelength_to_angular",
    "flux_si_to_cgs",
    "field_from_flux",
]

# fundamental constants in Gaussian CGS (CODATA 2018)
HBAR_ERG_S = 1.054571817e-27
C_CM_S = 2.99792458e10
E_STATC = 4.80320471e-10
A0_CM = 5.29177210903e-9      # Bohr radius
MU_H_G = 1.6735328e-24        # atomic mass of hydrogen

# unit conversion factors
ERG_PER_S_PER_W = 1.0e7   # 1 W = 1e7 erg/s, so 1 W/cm^2 = 1e7 erg s^-1 cm^-2
CM_PER_NM = 1.0e-7


class _Record:
    """Base of the frozen records.  Each record's ``__init__`` declares the
    fields, stores them in order with ``vars(self).update`` and validates them;
    fields cannot be assigned or deleted afterwards.  Equality and hashing go by
    class and field values, and ``replace`` builds a validated modified copy."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed, validated as a new record."""
        return self.__class__(**{**vars(self), **changes})


def _checked(value: float, name: str) -> float:
    """value, or ValueError naming it unless it is finite and nonnegative: the one
    check of a drive, the field amplitude E0 or the flux S_mw."""
    # Comparisons with math.inf also reject nan, which fails every comparison.
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def freq_mhz_to_angular(f_mhz: float) -> float:
    """Frequency in MHz -> angular frequency in rad/s (2*pi*1e6*f)."""
    if not f_mhz >= 0:
        raise ValueError(f"frequency must be nonnegative, got {f_mhz} MHz")
    return 2.0 * math.pi * 1.0e6 * f_mhz


def wavelength_to_angular(wavelength_cm: float) -> float:
    """Vacuum wavelength in cm -> angular frequency omega = 2*pi*c/wavelength."""
    if not wavelength_cm > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_cm} cm")
    return 2.0 * math.pi * C_CM_S / wavelength_cm


def flux_si_to_cgs(flux_w_cm2: float) -> float:
    """Power flux W/cm^2 -> erg s^-1 cm^-2."""
    if not flux_w_cm2 >= 0:
        raise ValueError(f"flux must be nonnegative, got {flux_w_cm2} W/cm^2")
    return flux_w_cm2 * ERG_PER_S_PER_W


def field_from_flux(flux_cgs: float) -> float:
    """Field amplitude E0 (statV/cm) of a wave with energy flux S = c*E0^2/(8*pi), finite
    at every finite S: where 8*pi*S overflows (S above about 7e306), 8*pi/c scales S first."""
    if not flux_cgs >= 0:
        raise ValueError(f"flux must be nonnegative, got {flux_cgs} erg/s/cm^2")
    e0_squared = 8.0 * math.pi * flux_cgs / C_CM_S
    return math.sqrt(e0_squared if e0_squared < math.inf else 8.0 * math.pi / C_CM_S * flux_cgs)

