import math

import numpy as np
import pytest

import oracles
from mwoptical.coupling import coupling_element
from mwoptical.dynamics import intensity_full, intensity_weak
from mwoptical.ensemble import EnsembleConfig, evaluate, pulse_energy
from mwoptical.hydrogen import (
    GAMMA_31,
    OMEGA_31,
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    mode,
)
from mwoptical.units import C_CM_S, flux_si_to_cgs, wavelength_to_angular


def _flux(flux_w_cm2=1.0):
    return flux_si_to_cgs(flux_w_cm2)


def _rabi_and_coupling(omega_over_gamma):
    """(Omega, b32, S_mw) of the 2p3/2-2s1/2 pair at the field where Omega/gamma_31
    takes the given value: Omega from the bare m = 0 dipole, b32 from the
    sublevel-summed one, which is sqrt(2) times larger, and the drive flux S_mw
    that the ensemble functions take."""
    m0 = dipole_matrix_element(mode("2p3/2"), mode("2s1/2"))
    summed = effective_dipole(mode("2p3/2"), mode("2s1/2"))
    e0 = omega_over_gamma * GAMMA_31 * oracles.HBAR / m0
    return (coupling_element(m0, e0, 0.0), coupling_element(summed, e0, 0.0),
            C_CM_S * e0**2 / (8.0 * math.pi))


# The package's vessel on the 2p3/2-1s1/2 line with the catalog dipole ratio:
# under a flux S_mw from _rabi_and_coupling its beta is b32^2 t/(2 gamma_31) =
# Omega^2 t/gamma_31 at theta = 0, the rate law of the two-level oracle.
RATE_LAW_VESSEL = EnsembleConfig(length=10.0, area=1.0, gas_density=0.9e-4, rho22_0=1.0e-4,
                                 ratio=hydrogenic_dipole_ratio())
STORED_ENERGY = RATE_LAW_VESSEL.n_atoms * RATE_LAW_VESSEL.rho22_0 * oracles.HBAR * OMEGA_31


def _surviving(s_mw, decrement, times):
    """rho22(t)/rho22(0) = exp(-beta) of an atom aligned with the field of flux s_mw,
    with beta the depletion exponent of ``evaluate`` on RATE_LAW_VESSEL."""
    return [math.exp(-row[1]) for row in evaluate(RATE_LAW_VESSEL, s_mw, decrement, times)]


# ---------------------------------------------------------------------------
# excitation decay
# ---------------------------------------------------------------------------

def test_rho22_initial_and_undriven():
    _, _, s_mw = _rabi_and_coupling(0.2)
    assert _surviving(s_mw, 1.0, (0.0,)) == [1.0]
    assert _surviving(0.0, 1.0, (0.0, 1e-6, 1e-3)) == [1.0] * 3


def test_rho22_e_folding_time():
    _, b32, s_mw = _rabi_and_coupling(0.2)
    dec = 0.8
    t_e = 2.0 * GAMMA_31 / (b32 * b32 * dec)
    assert _surviving(s_mw, dec, (t_e,)) == [pytest.approx(1.0 / math.e, rel=1e-12)]


def test_rho22_monotone_nonincreasing():
    _, _, s_mw = _rabi_and_coupling(0.2)
    values = _surviving(s_mw, 1.0, [float(t) for t in np.linspace(0.0, 1e-6, 50)])
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_rho22_semigroup():
    _, _, s_mw = _rabi_and_coupling(0.2)
    for t1, t2 in [(1e-9, 3e-9), (2e-8, 5e-7), (0.0, 1e-6)]:
        direct, first, second = _surviving(s_mw, 0.7, (t1 + t2, t1, t2))
        assert direct == pytest.approx(first * second, rel=1e-12)


def test_rho22_is_the_exact_two_level_decay_at_weak_coupling():
    # adiabatic elimination of 2p: the exact metastable population decays at
    # Omega^2/gamma_31.  The package's exponent b^2/(2 gamma_31) is that rate
    # when b uses the summed dipole and Omega the m = 0 one (b^2 = 2 Omega^2).
    gamma = GAMMA_31
    assert oracles.rho22_two_level(0.0, 0.1 * gamma, gamma) == pytest.approx(1.0, abs=1e-15)
    assert oracles.rho22_two_level(1e-6, 0.0, gamma) == 1.0
    for omega_over_gamma, tolerance in ((0.05, 1e-5), (0.2, 2e-3)):
        rabi, b32, s_mw = _rabi_and_coupling(omega_over_gamma)
        t = 2.0 * gamma / rabi**2   # two e-foldings
        [package] = _surviving(s_mw, 1.0, (t,))
        assert package == pytest.approx(math.exp(-rabi * rabi * t / gamma), rel=1e-14)
        assert package == pytest.approx(oracles.rho22_two_level(t, rabi, gamma),
                                        rel=tolerance)
    # read as the Rabi frequency itself, b would give twice the package's
    # exponent: the exact population is about e^-2 where the package reads e^-1
    t = 2.0 * gamma / b32**2
    assert _surviving(s_mw, 1.0, (t,)) == [pytest.approx(math.exp(-1.0), rel=1e-14)]
    assert oracles.rho22_two_level(t, b32, gamma) == pytest.approx(0.137, abs=1e-3)


def test_rate_law_fails_as_the_coupling_nears_critical_damping():
    # at Omega/gamma_31 = 0.375 the exact population at two e-foldings is over 4%
    # above the rate law's; past 0.5 the roots are complex, the atom
    # Rabi-oscillates and no rate law holds
    gamma = GAMMA_31
    rabi, _, s_mw = _rabi_and_coupling(0.375)
    t = 2.0 * gamma / rabi**2
    [package] = _surviving(s_mw, 1.0, (t,))
    excess = oracles.rho22_two_level(t, rabi, gamma) / package - 1.0
    assert 0.04 < excess < 0.05


@pytest.mark.parametrize("omega_over_gamma, peak_ratio", [(0.05, 0.984), (0.265, 0.814),
                                                          (1.07, 0.367)])
def test_ensemble_emission_peaks_below_the_rate_law(omega_over_gamma, peak_ratio):
    # adiabatic elimination at ensemble level: the rate law emits most at t = 0,
    # Omega^2/(3 gamma_31) per excited atom; the exact orientation average of
    # gamma_31 |c3|^2 rises from 0 over ~1/gamma_31 and peaks lower
    rabi, _, s_mw = _rabi_and_coupling(omega_over_gamma)
    rate_law = evaluate(RATE_LAW_VESSEL, s_mw, 1.0, (0.0,))[0][3] / STORED_ENERGY
    assert rate_law == pytest.approx(rabi**2 / (3.0 * GAMMA_31), rel=1e-9)
    exact = max(oracles.two_level_ensemble(0.05 * i / GAMMA_31, rabi, GAMMA_31)[1]
                for i in range(401))   # gamma_31 t on [0, 20]
    assert GAMMA_31 * exact / rate_law == pytest.approx(peak_ratio, abs=0.01)


@pytest.mark.parametrize("omega_over_gamma, exact_share, rate_law_share", [
    (0.265, 0.469, 0.481), (1.07, 0.866, 0.869)])
def test_share_of_stored_energy_released_by_gamma_t_40(omega_over_gamma, exact_share,
                                                       rate_law_share):
    # 1 - <|c2|^2 + |c3|^2> has been emitted; the package's pulse energy is the
    # rate law's share of the stored energy
    rabi, _, s_mw = _rabi_and_coupling(omega_over_gamma)
    t = 40.0 / GAMMA_31
    c2, c3 = oracles.two_level_ensemble(t, rabi, GAMMA_31)
    assert 1.0 - c2 - c3 == pytest.approx(exact_share, abs=0.01)
    released = pulse_energy(RATE_LAW_VESSEL, s_mw, 1.0, 0.0, t) / STORED_ENERGY
    assert released == pytest.approx(rate_law_share, abs=1e-3)


# ---------------------------------------------------------------------------
# intensities
# ---------------------------------------------------------------------------

def test_intensity_full_balanced_populations():
    assert intensity_full(OMEGA_31, GAMMA_31, 5.0e6, 1.0, 0.0) == 0.0


def test_intensity_full_quadratic_in_coupling():
    base = intensity_full(OMEGA_31, GAMMA_31, 2.0e6, 1.0, 0.1)
    assert intensity_full(OMEGA_31, GAMMA_31, 4.0e6, 1.0, 0.1) == pytest.approx(4.0 * base, rel=1e-12)


def test_intensity_full_rejects_zero_rate_transition():
    up, lo = mode("2s1/2"), mode("1s1/2")
    omega = up.omega - lo.omega
    with pytest.raises(ValueError, match="decay rate"):
        intensity_full(omega, decay_rate(omega, effective_dipole(up, lo)), 2.0e6, 1.0, 0.1)


def test_intensity_weak_zeros():
    s_mw = _flux()
    assert intensity_weak(s_mw, math.pi / 2, 1.0, OMEGA_31, 1.0, 0.5) \
        == pytest.approx(0.0, abs=1e-20)
    assert intensity_weak(s_mw, 0.0, 1.0, OMEGA_31, 1.0, 0.0) == 0.0


def test_intensity_weak_validation():
    s_mw = _flux()
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="omega_31"):
            intensity_weak(s_mw, 0.0, 1.0, bad, 1.0, 0.5)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="ratio"):
            intensity_weak(s_mw, 0.0, bad, OMEGA_31, 1.0, 0.5)
    for bad in (0.0, -0.5, 2.5, math.nan):
        with pytest.raises(ValueError, match=r"damping decrement must lie in \(0, 2\]"):
            intensity_weak(s_mw, 0.0, 1.0, OMEGA_31, bad, 0.5)
    with pytest.raises(ValueError, match=r"damping decrement must lie in \(0, 2\]"):
        intensity_full(OMEGA_31, GAMMA_31, 2.0e6, 0.0, 0.1)


def test_weak_equals_full_at_zero_rho33():
    # the algebra chain connecting the coupling/decay definitions to the
    # flux form of the intensity; checked over randomized valid inputs
    rng = np.random.default_rng(42)
    for _ in range(300):
        omega31 = float(rng.uniform(1e15, 1e17))
        d31 = float(rng.uniform(1e-19, 1e-17))
        ratio = float(rng.uniform(0.0, 20.0))
        theta = float(rng.uniform(0.0, math.pi))
        e0 = float(rng.uniform(1e-4, 10.0))
        dec = float(rng.uniform(1e-6, 2.0))
        rho22 = float(rng.uniform(0.0, 1.0))

        b32 = coupling_element(math.sqrt(ratio) * d31, e0, theta)

        full = intensity_full(omega31, decay_rate(omega31, d31), b32, dec, rho22)
        weak = intensity_weak(C_CM_S * e0**2 / (8.0 * math.pi), theta, ratio, omega31, dec,
                              rho22)
        assert weak == pytest.approx(full, rel=1e-12, abs=1e-300)


def _sigma(s_mw, theta, ratio, omega31, dec, rho22):
    """Single-atom cross-section sigma = I/S_mw (cm^2)."""
    return intensity_weak(s_mw, theta, ratio, omega31, dec, rho22) / s_mw


def test_single_atom_cross_section_value():
    # resonance, aligned, unit ratio and excitation on the 122 nm line:
    # sigma = (3/2pi) * wavelength^2, frozen from the flux-form arithmetic
    omega31 = wavelength_to_angular(1.22e-5)
    sigma = _sigma(_flux(), 0.0, 1.0, omega31, 1.0, 1.0)
    assert sigma == pytest.approx(7.10658651893931e-11, rel=1e-12)
    assert sigma == pytest.approx(3.0 / (2.0 * math.pi) * (1.22e-5) ** 2, rel=1e-12)


def test_single_atom_cross_section_flux_invariant():
    # I is linear in S_mw
    omega31 = OMEGA_31
    base = _sigma(_flux(1.0), 0.4, 2.0, omega31, 0.9, 0.3)
    quadrupled = _sigma(_flux(4.0), 0.4, 2.0, omega31, 0.9, 0.3)
    assert quadrupled == pytest.approx(base, rel=1e-12)


def test_single_atom_cross_section_linearities():
    omega31 = OMEGA_31
    s_mw = _flux()
    base = _sigma(s_mw, 0.0, 1.0, omega31, 1.0, 0.25)
    assert _sigma(s_mw, 0.0, 3.0, omega31, 1.0, 0.25) \
        == pytest.approx(3.0 * base, rel=1e-12)
    assert _sigma(s_mw, 0.0, 1.0, omega31, 1.0, 0.75) \
        == pytest.approx(3.0 * base, rel=1e-12)
    assert _sigma(s_mw, math.pi / 2, 1.0, omega31, 1.0, 0.25) \
        == pytest.approx(0.0, abs=1e-20)
