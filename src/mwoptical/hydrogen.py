"""Atomic inputs for the conversion pipeline: the n<=2 hydrogen mode catalog,
dipole matrix elements and spontaneous decay rates.

Dipole conventions
------------------
``dipole_matrix_element`` returns the z-component element taken between
m = 0 sublevels, |<n'l'0| e*z |nl0>| = e*a0 * (angular factor) * (radial
integral).  Spontaneous decay is governed by the sublevel-summed line
strength instead: summing |<1s, 0| e*r_q |2p, m>|^2 over the vector
components q gives e^2 R^2/3 for every initial m (equal to the squared
z-element), but the standard emission-rate prefactor is 4/3 rather than
the 2/3 used in the scalar rate formula here, so folding the line strength
into a scalar magnitude doubles the squared dipole: d_summed = sqrt(2) * d_z.
The convention is the choice of function: ``effective_dipole`` returns this
"summed" magnitude, and ``decay_rate(upper.omega - lower.omega,
effective_dipole(upper, lower))`` reproduces the 1.6 ns 2p lifetime;
``dipole_matrix_element`` is the bare m = 0 z-element.  Dipole *ratios* are
identical in both conventions, so either may feed the intensity formulas as
long as it is used uniformly.
"""

import math
from functools import lru_cache

from .units import (A0_CM, C_CM_S, E_STATC, HBAR_ERG_S, _Record, freq_mhz_to_angular,
                    wavelength_to_angular)

__all__ = [
    "FINE_STRUCTURE_MHZ",
    "LAMB_SHIFT_MHZ",
    "OPTICAL_ANCHOR_CM",
    "OMEGA_31",
    "GAMMA_31",
    "LIFETIME_2S_S",
    "HydrogenMode",
    "MODES",
    "mode",
    "radial_dipole_integral",
    "dipole_matrix_element",
    "effective_dipole",
    "decay_rate",
    "hydrogenic_dipole_ratio",
    "RATIO_UNITY",
]

# Level splittings (catalog data; these are radiative/relativistic corrections
# that Schrodinger-level machinery cannot produce, so they enter as constants).
FINE_STRUCTURE_MHZ = 10949.0    # 2p3/2 - 2s1/2
LAMB_SHIFT_MHZ = 1057.77        # 2s1/2 - 2p1/2

# The 2p-1s emission wavelength anchoring the absolute frequency scale of the
# catalog (1s1/2 sits at omega = 0).  Both 2p levels radiate on this line to
# within the splittings above (~1e-5 relative).
OPTICAL_ANCHOR_CM = 122.0e-7

# Informational lifetime (s) of the metastable 2s1/2, whose dipole decay to 1s is forbidden.
LIFETIME_2S_S = 1.0 / 7.0

# Illustrative |d_32|^2/|d_31|^2 preset used by order-of-magnitude estimates.
RATIO_UNITY = 1.0

# R_nl(r) = norm * (c0 + c1*r) * exp(-a*r), r in units of a0: (norm, c0, c1, a).
_RADIAL = {
    (1, 0): (2.0, 1.0, 0.0, 1.0),
    (2, 0): (1.0 / math.sqrt(2.0), 1.0, -0.5, 0.5),
    (2, 1): (1.0 / (2.0 * math.sqrt(6.0)), 0.0, 1.0, 0.5),
}


def _radial_coefficients(nl) -> tuple:
    if nl not in _RADIAL:
        raise ValueError(f"unsupported (n, l) = {nl}; supported: {sorted(_RADIAL)}")
    return _RADIAL[nl]


class HydrogenMode(_Record):
    """One catalog mode: label, quantum numbers and the eigenfrequency ``omega``
    in rad/s relative to the 1s1/2 level."""

    def __init__(self, label: str, n: int, l: int, omega: float):
        vars(self).update(label=label, n=n, l=l, omega=omega)
        if not 0 <= self.l < self.n:
            raise ValueError(f"{self.label}: require 0 <= l < n, got n={self.n}, l={self.l}")
        expect_l = {"s": 0, "p": 1}.get(self.label[1:2])
        if expect_l is None or int(self.label[0]) != self.n or expect_l != self.l:
            raise ValueError(f"mode label {self.label!r} inconsistent with (n={self.n}, l={self.l})")


def _build_catalog() -> dict:
    w_2p32 = wavelength_to_angular(OPTICAL_ANCHOR_CM)
    w_2s = w_2p32 - freq_mhz_to_angular(FINE_STRUCTURE_MHZ)
    w_2p12 = w_2s - freq_mhz_to_angular(LAMB_SHIFT_MHZ)
    modes = [
        HydrogenMode("1s1/2", 1, 0, 0.0),
        HydrogenMode("2s1/2", 2, 0, w_2s),
        HydrogenMode("2p1/2", 2, 1, w_2p12),
        HydrogenMode("2p3/2", 2, 1, w_2p32),
    ]
    return {m.label: m for m in modes}


MODES = _build_catalog()


def mode(label: str) -> HydrogenMode:
    """Look up a catalog mode by label ('1s1/2', '2s1/2', '2p1/2', '2p3/2')."""
    try:
        return MODES[label]
    except KeyError:
        raise ValueError(f"unknown mode {label!r}; valid labels: {', '.join(MODES)}") from None


@lru_cache(maxsize=None)
def radial_dipole_integral(nl_a: tuple, nl_b: tuple) -> float:
    """Signed radial integral of R_a(r) * r * R_b(r) * r^2 over r, in units of a0.

    Exact: the integrand is a polynomial in r of degree 3 to 5 times
    exp(-A*r), and integral of r^k exp(-A*r) over [0, inf) is k!/A^(k+1).
    """
    norm_a, a0, a1, rate_a = _radial_coefficients(nl_a)
    norm_b, b0, b1, rate_b = _radial_coefficients(nl_b)
    coeffs = (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)   # of r^3, r^4, r^5
    total = sum(c * math.factorial(k) / (rate_a + rate_b) ** (k + 1)
                for k, c in enumerate(coeffs, start=3))
    return norm_a * norm_b * total


def _angular_factor_z(l_a: int, l_b: int) -> float:
    """<l_max, m=0 | cos(theta) | l_min, m=0> for |l_a - l_b| = 1."""
    lmin = min(l_a, l_b)
    return (lmin + 1) / math.sqrt((2 * lmin + 1) * (2 * lmin + 3))


def dipole_matrix_element(upper: HydrogenMode, lower: HydrogenMode) -> float:
    """Magnitude of the z-component dipole element between m = 0 sublevels (statC cm).

    Returns 0 unless the orbital quantum numbers differ by exactly 1
    (electric-dipole selection rule).
    """
    if abs(upper.l - lower.l) != 1:
        return 0.0
    radial = radial_dipole_integral((upper.n, upper.l), (lower.n, lower.l))
    return E_STATC * A0_CM * _angular_factor_z(upper.l, lower.l) * abs(radial)


def effective_dipole(upper: HydrogenMode, lower: HydrogenMode) -> float:
    """Scalar dipole magnitude |d_nk| (statC cm): the sublevel-summed line strength
    folded into a scalar, sqrt(2) times the z-element; makes the standard rate
    formula reproduce the 2p lifetime."""
    return math.sqrt(2.0) * dipole_matrix_element(upper, lower)


def decay_rate(omega_nk: float, d_nk: float) -> float:
    """Spontaneous decay rate 2*omega^3*|d|^2 / (3*hbar*c^3) in 1/s."""
    if not omega_nk >= 0:
        raise ValueError(f"transition frequency must be nonnegative, got {omega_nk};"
                         " order the pair as (upper, lower)")
    return 2.0 * omega_nk**3 * d_nk**2 / (3.0 * HBAR_ERG_S * C_CM_S**3)


# The optical line every scenario and sweep point shares: its angular frequency
# (rad/s, the 2p3/2 - 1s1/2 line at OPTICAL_ANCHOR_CM) and decay rate (1/s, 1/1.615 ns).
OMEGA_31 = MODES["2p3/2"].omega - MODES["1s1/2"].omega
GAMMA_31 = decay_rate(OMEGA_31, effective_dipole(MODES["2p3/2"], MODES["1s1/2"]))


def hydrogenic_dipole_ratio() -> float:
    """|d(2p-2s)|^2 / |d(2p-1s)|^2 from the catalog wavefunctions, 3^12/2^15 ~ 16.22.

    Both are s-p elements with the same angular factor, so this is the squared
    ratio of their radial integrals, the same in either dipole convention.
    """
    return (radial_dipole_integral((2, 0), (2, 1)) / radial_dipole_integral((1, 0), (2, 1))) ** 2
