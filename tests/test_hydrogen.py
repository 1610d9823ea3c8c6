import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from mwoptical.hydrogen import (
    GAMMA_31,
    LIFETIME_2S_S,
    OMEGA_31,
    OPTICAL_ANCHOR_CM,
    MODES,
    HydrogenMode,
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    mode,
    radial_dipole_integral,
)
from mwoptical.units import A0_CM, E_STATC, wavelength_to_angular

E_A0 = E_STATC * A0_CM


# ---------------------------------------------------------------------------
# the oracle's radial functions
# ---------------------------------------------------------------------------

def test_radial_wavefunctions_normalized():
    # quadrature oracle on the normalization integral
    for nl in [(1, 0), (2, 0), (2, 1)]:
        assert oracles.norm_quad(nl) == pytest.approx(1.0, abs=1e-10)


def test_radial_orthogonality_same_l():
    value, _ = quad(lambda r: oracles.r10(r) * oracles.r20(r) * r * r, 0.0, 60.0)
    assert abs(value) <= 1e-8


# ---------------------------------------------------------------------------
# dipole matrix elements
# ---------------------------------------------------------------------------

def test_radial_integrals_match_gamma_closed_forms():
    # closed Gamma-function evaluations, cross-checked against the quadrature oracle
    g12 = oracles.radial_integral_gamma_1s2p()
    g22 = oracles.radial_integral_gamma_2s2p()
    assert g12 == pytest.approx(1.2902662019598634, rel=1e-14)     # 128*sqrt(6)/243
    assert g22 == pytest.approx(-5.196152422706632, rel=1e-14)     # -3*sqrt(3)
    assert oracles.radial_integral_quad((1, 0), (2, 1)) == pytest.approx(g12, rel=1e-10)
    assert oracles.radial_integral_quad((2, 0), (2, 1)) == pytest.approx(g22, rel=1e-10)


def test_library_radial_integrals_match_oracle():
    assert radial_dipole_integral((1, 0), (2, 1)) == pytest.approx(
        oracles.radial_integral_quad((1, 0), (2, 1)), rel=1e-6)
    assert radial_dipole_integral((2, 0), (2, 1)) == pytest.approx(
        oracles.radial_integral_quad((2, 0), (2, 1)), rel=1e-6)
    # the library sums the same Gamma-function integrals exactly; the two pairs
    # reach all three rows of the radial table
    assert radial_dipole_integral((1, 0), (2, 1)) == pytest.approx(
        oracles.radial_integral_gamma_1s2p(), rel=1e-14)
    assert radial_dipole_integral((2, 0), (2, 1)) == pytest.approx(
        oracles.radial_integral_gamma_2s2p(), rel=1e-14)
    assert radial_dipole_integral((2, 1), (1, 0)) == radial_dipole_integral((1, 0), (2, 1))
    with pytest.raises(ValueError, match="unsupported"):
        radial_dipole_integral((1, 0), (3, 1))


def test_dipole_selection_rule():
    assert dipole_matrix_element(mode("2s1/2"), mode("2s1/2")) == 0.0
    assert dipole_matrix_element(mode("2s1/2"), mode("1s1/2")) == 0.0   # delta-l = 0
    assert dipole_matrix_element(mode("2p3/2"), mode("2p1/2")) == 0.0


def test_dipole_z_elements():
    # z elements in units of e*a0: radial integral times the 1/sqrt(3) angular factor
    z31 = dipole_matrix_element(mode("2p3/2"), mode("1s1/2")) / E_A0
    z32 = dipole_matrix_element(mode("2p3/2"), mode("2s1/2")) / E_A0
    assert z31 == pytest.approx(0.7449355390278031, rel=1e-6)   # 1.29027/sqrt(3)
    assert z32 == pytest.approx(3.0, rel=1e-6)                  # 3*sqrt(3)/sqrt(3)


def test_dipole_symmetry():
    a, b = mode("2p3/2"), mode("1s1/2")
    assert dipole_matrix_element(a, b) == pytest.approx(dipole_matrix_element(b, a), rel=1e-12)


def test_effective_dipole_conventions():
    # the sublevel-summed magnitude is sqrt(2) times the bare m = 0 z-element
    up, lo = mode("2p3/2"), mode("1s1/2")
    z = dipole_matrix_element(up, lo)
    assert effective_dipole(up, lo) == pytest.approx(math.sqrt(2.0) * z, rel=1e-14)


def test_hydrogenic_dipole_ratio():
    # exact value 3^12 / 2^15 from the closed-form radial integrals
    assert 3**12 / 2**15 == 16.218292236328125
    assert hydrogenic_dipole_ratio() == pytest.approx(16.218292236328125, rel=1e-15)


# ---------------------------------------------------------------------------
# decay rates
# ---------------------------------------------------------------------------

def test_decay_rate_zero_dipole():
    assert decay_rate(1.0e16, 0.0) == 0.0


def test_decay_rate_cubic_scaling():
    d = 1.0e-18
    assert decay_rate(2.0e15, d) == pytest.approx(8.0 * decay_rate(1.0e15, d), rel=1e-12)


def test_decay_rate_monotone():
    omegas = np.geomspace(1e13, 1e17, 9)
    rates = [decay_rate(w, 1e-18) for w in omegas]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    dipoles = np.geomspace(1e-20, 1e-17, 9)
    rates = [decay_rate(1e16, d) for d in dipoles]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_decay_rate_rejects_negative_frequency():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="order the pair"):
            decay_rate(bad, 1e-18)


def test_2p_lifetime_sublevel_summed():
    # the documented sublevel-summed magnitude reproduces the ~1.6 ns 2p lifetime
    up, lo = mode("2p3/2"), mode("1s1/2")
    gamma = decay_rate(up.omega - lo.omega, effective_dipole(up, lo))
    assert 5.9e8 <= gamma <= 6.6e8
    assert 1.0 / gamma == pytest.approx(1.6e-9, rel=0.05)


def test_optical_line_constants():
    # the catalog's omega_31 and gamma_31 are the bits their expressions give
    up, lo = mode("2p3/2"), mode("1s1/2")
    assert OMEGA_31.hex() == wavelength_to_angular(OPTICAL_ANCHOR_CM).hex()
    assert GAMMA_31.hex() == decay_rate(up.omega - lo.omega, effective_dipole(up, lo)).hex()
    assert 1.0 / GAMMA_31 == pytest.approx(1.615e-9, rel=1e-3)


def test_2p_lifetime_m0_convention_documented():
    # the bare z-element, dipole_matrix_element, gives half the rate (twice the lifetime)
    up, lo = mode("2p3/2"), mode("1s1/2")
    d, omega = dipole_matrix_element(up, lo), up.omega - lo.omega
    assert 1.0 / decay_rate(omega, d) == pytest.approx(3.23e-9, rel=0.02)


# ---------------------------------------------------------------------------
# transition pairs and the catalog
# ---------------------------------------------------------------------------

def test_catalog_splittings():
    # recovering ~1e10 splittings from ~1.5e16 eigenfrequencies costs ~1e-10 relative
    two_pi_mhz = 2.0 * math.pi * 1.0e6
    w = {label: m.omega for label, m in MODES.items()}
    assert (w["2p3/2"] - w["2s1/2"]) / two_pi_mhz == pytest.approx(10949.0, rel=1e-9)
    assert (w["2s1/2"] - w["2p1/2"]) / two_pi_mhz == pytest.approx(1057.77, rel=1e-9)


def test_transition_frequencies():
    optical = mode("2p3/2").omega - mode("1s1/2").omega
    assert optical == pytest.approx(1.5439766945154534e16, rel=1e-12)
    fine = mode("2p3/2").omega - mode("2s1/2").omega
    assert fine == pytest.approx(2.0 * math.pi * 1.0949e10, rel=1e-9)
    lamb = mode("2s1/2").omega - mode("2p1/2").omega
    assert lamb == pytest.approx(2.0 * math.pi * 1.05777e9, rel=1e-9)


def test_transition_pair_invariants():
    up, lo = mode("2p3/2"), mode("2s1/2")
    assert decay_rate(up.omega - lo.omega, effective_dipole(up, lo)) > 0
    # forbidden transition: zero dipole forces zero rate
    up, lo = mode("2s1/2"), mode("1s1/2")
    assert effective_dipole(up, lo) == 0.0
    assert decay_rate(up.omega - lo.omega, effective_dipole(up, lo)) == 0.0


def test_mode_lookup_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown mode"):
        mode("3d5/2")


def test_catalog_types_reject_inconsistent_input():
    with pytest.raises(ValueError, match="inconsistent with"):
        HydrogenMode("2s1/2", 2, 1, 0.0)
    with pytest.raises(ValueError, match="require 0 <= l < n"):
        HydrogenMode("1p1/2", 1, 1, 0.0)


def test_mode_lifetimes_informational():
    # the metastable lifetime is catalog data; the 2p one is computed, 1/gamma
    assert LIFETIME_2S_S == pytest.approx(1.0 / 7.0)
