import math

import numpy as np
import pytest

import oracles
from mwoptical.units import (
    A0_CM,
    C_CM_S,
    E_STATC,
    HBAR_ERG_S,
    MU_H_G,
    field_from_flux,
    flux_si_to_cgs,
    freq_mhz_to_angular,
    wavelength_to_angular,
)


def test_freq_mhz_to_angular_zero():
    assert freq_mhz_to_angular(0.0) == 0.0


def test_freq_mhz_to_angular_channel_frequencies():
    # frozen from 2*pi*1e6*f
    assert freq_mhz_to_angular(1057.77) == pytest.approx(6.646164922375351e9, rel=1e-12)
    assert freq_mhz_to_angular(10949.0) == pytest.approx(6.879459592830928e10, rel=1e-12)


def test_freq_mhz_to_angular_rejects_negative():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            freq_mhz_to_angular(bad)


def test_wavelength_to_angular_122nm():
    # frozen from 2*pi*c/wavelength with c = 2.99792458e10 cm/s
    assert wavelength_to_angular(1.22e-5) == pytest.approx(1.5439766945154534e16, rel=1e-12)


def test_wavelength_to_angular_identity_point():
    assert wavelength_to_angular(2.0 * math.pi * C_CM_S) == pytest.approx(1.0, rel=1e-14)


def test_wavelength_to_angular_rejects_nonpositive():
    for bad in (0.0, -1.0e-5, math.nan):
        with pytest.raises(ValueError, match="wavelength"):
            wavelength_to_angular(bad)


def test_flux_si_to_cgs():
    assert flux_si_to_cgs(0.0) == 0.0
    assert flux_si_to_cgs(1.0) == 1.0e7
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="flux"):
            flux_si_to_cgs(bad)


def test_field_from_flux_defining_relation():
    assert field_from_flux(0.0) == 0.0
    assert field_from_flux(C_CM_S / (8.0 * math.pi)) == pytest.approx(1.0, rel=1e-14)


def test_field_for_one_watt_per_cm2():
    # frozen from sqrt(8*pi*1e7/c)
    assert field_from_flux(flux_si_to_cgs(1.0)) == pytest.approx(0.0915607999517628, rel=1e-12)


def test_field_from_flux_is_finite_at_every_finite_flux():
    # 8*pi*S overflows above S ~ 7e306 while E0 = sqrt(8*pi*S/c) stays near 4e149: the
    # field there is sqrt(8*pi/c * S), and below it every bit is sqrt(8*pi*S/c)'s
    for s in (7.2e306, 1e307, 1e308, 1.7976931348623157e308):
        assert 8.0 * math.pi * s == math.inf
        assert field_from_flux(s) == math.sqrt(8.0 * math.pi / C_CM_S * s) < 4e149
    for s in (1e-300, 1.0, 1e7, 7e306):
        assert field_from_flux(s) == math.sqrt(8.0 * math.pi * s / C_CM_S)


def test_field_from_flux_rejects_negative():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="flux"):
            field_from_flux(bad)


def _flux_of(e0):
    """The energy flux S = c*E0^2/(8*pi) (erg s^-1 cm^-2) of a field of amplitude E0."""
    return C_CM_S * e0**2 / (8.0 * math.pi)


def test_flux_field_bijection():
    for e0 in np.geomspace(1e-6, 1e3, 40):
        assert field_from_flux(_flux_of(e0)) == pytest.approx(e0, rel=1e-12)
    for s in np.geomspace(1e-9, 1e9, 40):
        assert _flux_of(field_from_flux(s)) == pytest.approx(s, rel=1e-12)


def test_constants_are_the_codata_values():
    assert (HBAR_ERG_S, C_CM_S, E_STATC, A0_CM, MU_H_G) == (
        oracles.HBAR, oracles.C, oracles.E, oracles.A0, oracles.MU_H)


def test_fine_structure_consistency():
    alpha = E_STATC**2 / (HBAR_ERG_S * C_CM_S)
    assert 7.29e-3 < alpha < 7.30e-3
    assert alpha == pytest.approx(7.2973525e-3, rel=1e-7)
