import math

import numpy as np
import pytest

from mwoptical.coupling import coupling_element, damping_decrement, detuning_lineshape
from mwoptical.dynamics import intensity_weak
from mwoptical.ensemble import EnsembleConfig, depletion_time, evaluate, pulse_energy
from mwoptical.hydrogen import GAMMA_31
from mwoptical.units import A0_CM, E_STATC, HBAR_ERG_S

VESSEL = EnsembleConfig(10.0, 1.0, 0.9e-4, 1.0e-4, 1.0)
OMEGA_31 = 1.5e16   # rad/s, near the 2p-1s line

# each function that takes the drive, called at the drive: the ensemble and dynamics
# functions take the flux S_mw (erg s^-1 cm^-2), coupling the field amplitude E0 (statV/cm)
DRIVE_TAKERS = {
    "evaluate": ("flux S_mw", lambda s_mw: evaluate(VESSEL, s_mw, 1.0, [0.0, 1e-7])),
    "pulse_energy": ("flux S_mw", lambda s_mw: pulse_energy(VESSEL, s_mw, 1.0, 0.0, 1e-7)),
    "depletion_time": ("flux S_mw", lambda s_mw: depletion_time(VESSEL, s_mw, 1.0)),
    "intensity_weak": ("flux S_mw",
                       lambda s_mw: intensity_weak(s_mw, 0.3, 1.0, OMEGA_31, 1.0, 0.5)),
    "coupling_element": ("field amplitude", lambda e0: coupling_element(1e-18, e0, 0.3)),
}

# each function that takes an angle theta (rad), called at theta
ANGLE_TAKERS = {
    "coupling_element": lambda theta: coupling_element(1e-18, 1.0, theta),
    "intensity_weak": lambda theta: intensity_weak(1.0, theta, 1.0, OMEGA_31, 1.0, 0.5),
}


def test_drive_validation():
    for drive, call in DRIVE_TAKERS.values():
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{drive} must be finite and nonnegative"):
                call(bad)
        for zero in (0.0, -0.0):
            call(zero)


def test_orientation_range():
    for call in ANGLE_TAKERS.values():
        call(0.0)
        call(math.pi)
        for bad in (-0.1, math.pi + 0.1, math.nan):
            with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
                call(bad)


def test_coupling_element_aligned_value():
    # d = 3 e*a0, E0 = 1 statV/cm, theta = 0; frozen constants arithmetic
    d = 3.0 * E_STATC * A0_CM
    b = coupling_element(d, 1.0, 0.0)
    assert b == pytest.approx(7.230649722077543e9, rel=1e-12)


def test_coupling_element_orthogonal_and_zero_field():
    d = 3.0 * E_STATC * A0_CM
    scale = d / HBAR_ERG_S
    assert coupling_element(d, 1.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12 * scale)
    assert coupling_element(d, 0.0, 0.3) == 0.0


def test_coupling_element_bilinear_and_even():
    d = 2.0e-18
    b = coupling_element(d, 0.7, 0.4)
    assert coupling_element(2.0 * d, 0.7, 0.4) == pytest.approx(2.0 * b, rel=1e-14)
    assert coupling_element(d, 1.4, 0.4) == pytest.approx(2.0 * b, rel=1e-14)
    # even in the angle: cos(-theta) = cos(theta)
    assert b == pytest.approx(d * 0.7 * math.cos(-0.4) / HBAR_ERG_S, rel=1e-14)


def test_coupling_element_sign_follows_cosine():
    d = 2.0e-18
    assert coupling_element(d, 1.0, 3.0) < 0
    for bad in (-d, math.nan):
        with pytest.raises(ValueError, match="dipole"):
            coupling_element(bad, 1.0, 0.0)


# ---------------------------------------------------------------------------
# damping decrement
# ---------------------------------------------------------------------------

def test_decrement_at_resonance_is_near_one():
    gamma = GAMMA_31
    w32 = 2.0 * math.pi * 1.0949e10   # w32/gamma ~ 110, counter-rotating term ~ 2e-5
    value = damping_decrement(w32, w32)
    assert value == pytest.approx(1.0 + gamma**2 / (gamma**2 + 4.0 * w32**2), rel=1e-14)
    assert abs(value - 1.0) < 1e-4


def test_decrement_half_width_point():
    w32 = 1.0e15   # w32 >> gamma: anti-resonant term negligible
    for omega in (w32 - GAMMA_31, w32 + GAMMA_31):
        assert damping_decrement(omega, w32) == pytest.approx(0.5, rel=1e-9)


def test_decrement_off_resonance_limit():
    assert damping_decrement(1.0e18, 1.0e15) < 1e-12


def test_decrement_at_the_edge_of_the_double_range():
    # (w32 + w)^2 overflows the double range: the counter-rotating term is 0 there, and
    # the resonant term 1, where x**2 raised OverflowError
    assert damping_decrement(1.0e154, 1.0e154) == 1.0


def test_decrement_peaks_at_resonance():
    w32 = 1.0e11   # w32/gamma ~ 160, grid step below gamma
    grid = np.linspace(0.5 * w32, 1.5 * w32, 2001)
    values = [damping_decrement(float(w), w32) for w in grid]
    step = grid[1] - grid[0]
    assert abs(grid[int(np.argmax(values))] - w32) <= step


def test_decrement_bounded():
    rng = np.random.default_rng(7)
    for _ in range(300):
        w32 = float(rng.uniform(1e6, 1e13))
        omega = float(rng.uniform(0.0, 1e13))
        value = damping_decrement(omega, w32)
        assert 0.0 < value <= 2.0


def test_decrement_validation():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="frequency"):
            damping_decrement(bad, 1.0e10)


# ---------------------------------------------------------------------------
# near-resonance lineshape used by the scenario pipeline
# ---------------------------------------------------------------------------

def test_detuning_lineshape_unity_on_resonance():
    assert detuning_lineshape(0.0) == 1.0


def test_detuning_lineshape_symmetric_half_width():
    assert detuning_lineshape(GAMMA_31) == pytest.approx(0.5, rel=1e-14)
    assert detuning_lineshape(-GAMMA_31) == pytest.approx(0.5, rel=1e-14)


def test_detuning_lineshape_matches_full_decrement_near_resonance():
    # agrees with the two-term decrement up to the ~2e-5 counter-rotating term
    w32 = 2.0 * math.pi * 1.0949e10
    for delta in (0.0, 0.3 * GAMMA_31, 2.0 * GAMMA_31):
        full = damping_decrement(w32 + delta, w32)
        assert detuning_lineshape(delta) == pytest.approx(full, abs=3e-5)
