import math

import numpy as np
import pytest

import oracles
from mwoptical import cli
from mwoptical.coupling import MicrowaveDrive, Orientation, coupling_element
from mwoptical.dynamics import intensity_weak
from mwoptical.ensemble import (
    EnsembleConfig,
    _window,
    depletion_time,
    evaluate,
    f_beta,
    f_beta_approx_large,
    f_beta_approx_small,
    pulse_energy,
    sigma_max,
)
from mwoptical.hydrogen import (
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    mode,
)
from mwoptical.units import HBAR_ERG_S, field_from_flux, flux_si_to_cgs

LAMBDA_31 = 1.22e-5   # cm


def _drive(flux_w_cm2=1.0):
    return MicrowaveDrive(e0=field_from_flux(flux_si_to_cgs(flux_w_cm2)))


def _vessel(**overrides):
    kwargs = dict(length=10.0, area=1.0, gas_density=0.9e-4,
                  rho22_0=1.0e-4, ratio=1.0, wavelength_31=LAMBDA_31)
    kwargs.update(overrides)
    return EnsembleConfig(**kwargs)


# ---------------------------------------------------------------------------
# f(beta)
# ---------------------------------------------------------------------------

def test_f_beta_at_zero():
    assert f_beta(0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_f_beta_frozen_values():
    # frozen from the quadrature oracle
    expected = {
        0.05: 0.32350961342244955,
        0.5: 0.2490937321795154,
        1.0: 0.18947234582049235,
        2.0: 0.11570218085617284,
        4.0: 0.05284063206155959,
        6.0: 0.02992744959808268,
        10.0: 0.014010099528844012,
        100.0: 0.00044311346272637905,
    }
    for beta, value in expected.items():
        assert f_beta(beta) == pytest.approx(value, rel=1e-12)
        assert oracles.f_beta_quad(beta) == pytest.approx(value, rel=1e-10)


def test_f_beta_matches_quadrature_oracle_grid():
    for beta in np.linspace(0.0, 100.0, 201):
        assert abs(f_beta(float(beta)) - oracles.f_beta_quad(float(beta))) <= 1e-12


def test_f_beta_continuous_across_series_cutoff():
    # series below 0.1, closed form above; both must agree with the oracle
    for beta in (0.0999, 0.1, 0.1001):
        assert f_beta(beta) == pytest.approx(oracles.f_beta_quad(beta), rel=1e-12)


def test_f_beta_strictly_decreasing_and_bounded():
    grid = np.linspace(0.0, 60.0, 601)
    values = [f_beta(float(b)) for b in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 / 3.0 for v in values)


def test_f_beta_tenfold_drop_by_six():
    assert 10.0 <= f_beta(0.0) / f_beta(6.0) <= 12.0


def test_f_beta_rejects_negative():
    for function in (f_beta, f_beta_approx_small, f_beta_approx_large):
        for beta in (-0.5, math.nan):
            with pytest.raises(ValueError, match="beta must be nonnegative"):
                function(beta)


def test_f_beta_past_the_overflow_of_beta_cubed_root():
    # 4*beta^(3/2) overflows above beta ~ 1.3e205; f is then a denormal, the
    # large-beta asymptote, until it underflows to 0 above beta ~ 3e215
    for beta in (1e205, 1.3e205, 1e207, 1e210, 1e215):
        assert 0.0 < f_beta(beta) < 1e-307
        assert abs(f_beta(beta) - f_beta_approx_large(beta)) <= 4 * math.ulp(0.0), beta
    assert f_beta(1e216) == 0.0


# ---------------------------------------------------------------------------
# closed-form approximations (comparison tables only)
# ---------------------------------------------------------------------------

def test_small_beta_approximation():
    assert f_beta_approx_small(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # ~6% relative error at beta = 2
    assert f_beta_approx_small(2.0) == pytest.approx(0.12262648039048077, rel=1e-12)
    err2 = abs(f_beta_approx_small(2.0) - f_beta(2.0)) / f_beta(2.0)
    assert 0.05 < err2 < 0.07
    # within 10% up to beta ~ 3.6; the error then grows to ~14.6% at beta = 4
    for beta in np.linspace(0.0, 3.6, 37):
        b = float(beta)
        assert abs(f_beta_approx_small(b) - f_beta(b)) <= 0.10 * f_beta(b)
    worst = max(abs(f_beta_approx_small(float(b)) - f_beta(float(b))) / f_beta(float(b))
                for b in np.linspace(0.0, 4.0, 401))
    assert worst == pytest.approx(0.1463, abs=0.002)


def test_large_beta_asymptote():
    assert f_beta_approx_large(4.0) == pytest.approx(0.05538918284079737, rel=1e-12)
    # <= 12% down to beta = 4, <= 5% beyond beta = 10
    for beta in np.linspace(4.0, 10.0, 61):
        b = float(beta)
        assert abs(f_beta_approx_large(b) - f_beta(b)) <= 0.12 * f_beta(b)
    for beta in np.linspace(10.0, 100.0, 91):
        b = float(beta)
        assert abs(f_beta_approx_large(b) - f_beta(b)) <= 0.05 * f_beta(b)
    assert math.isinf(f_beta_approx_large(0.0))
    # beta**-1.5 overflows below beta ~ 1e-205: inf there too, not OverflowError
    assert f_beta_approx_large(1e-200) < math.inf
    assert math.isinf(f_beta_approx_large(1e-300)) and math.isinf(f_beta_approx_large(5e-324))


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def _beta(cfg, drive, dec, t):
    return evaluate(cfg, drive, dec, (t,))[0][1]


def test_beta_zeros():
    drive = _drive()
    assert _beta(_vessel(), drive, 1.0, 0.0) == 0.0
    off = MicrowaveDrive(e0=0.0)
    assert _beta(_vessel(), off, 1.0, 1e-3) == 0.0


def test_beta_rejects_negative_time():
    with pytest.raises(ValueError, match="t"):
        _beta(_vessel(), _drive(), 1.0, -1.0)


def test_beta_matches_single_atom_exponent():
    # the closed form must equal |b32(theta=0)|^2 * decrement * t / (2*gamma_31)
    # when the dipoles come from the hydrogen catalog, in either convention
    up, lo, metastable = mode("2p3/2"), mode("1s1/2"), mode("2s1/2")
    omega31 = up.omega - lo.omega
    for dipole in (effective_dipole, dipole_matrix_element):
        d31, d32 = dipole(up, lo), dipole(up, metastable)
        gamma31 = decay_rate(omega31, d31)
        ratio = (d32 / d31) ** 2
        lam31 = 2.0 * math.pi * 2.99792458e10 / omega31
        for flux, dec, t in [(1.0, 1.0, 1e-7), (40.0, 0.3, 2e-9), (0.01, 2.0, 1e-4)]:
            drive = _drive(flux)
            b32 = coupling_element(d32, drive, Orientation(0.0))
            exponent = b32 * b32 * dec * t / (2.0 * gamma31)
            direct = _beta(_vessel(ratio=ratio, wavelength_31=lam31), drive, dec, t)
            assert direct == pytest.approx(exponent, rel=1e-10)


# ---------------------------------------------------------------------------
# vessel configuration
# ---------------------------------------------------------------------------

def test_vessel_counts():
    cfg = _vessel()
    # N = rho_H * F * L / mu_H and N31 = rho_H * L * lambda^2 / mu_H
    assert cfg.n_atoms == pytest.approx(0.9e-4 * 1.0 * 10.0 / 1.6735328e-24, rel=1e-12)
    assert cfg.n31 == pytest.approx(8.004384497274269e10, rel=1e-12)
    assert cfg.n31 == pytest.approx(0.8e11, rel=0.03)
    # positive factors whose product leaves the double range leave no n31 to report
    with pytest.raises(ValueError, match="n31 underflows to 0"):
        _vessel(length=1e-300, gas_density=1e-30).n31
    with pytest.raises(ValueError, match="n31 overflows"):
        _vessel(length=1e300, gas_density=1e10).n31
    # and no atom count: rho*A underflows first, or rho*A*L overflows
    with pytest.raises(ValueError, match=r"n_atoms underflows to 0 \(length = 10.0 cm, "
                                         r"area = 1e-320 cm\^2, gas density = 9e-05 g/cm\^3\)"):
        _vessel(area=1e-320).n_atoms
    with pytest.raises(ValueError, match="n_atoms overflows"):
        _vessel(area=1e300, length=1e300).n_atoms


def test_sigma_max_is_zero_only_at_a_zero_factor():
    assert sigma_max(_vessel(ratio=0.0), 0.0) == 0.0
    assert sigma_max(_vessel(rho22_0=0.0), 0.0) == 0.0
    # every factor positive: N underflows, or N is positive and the product is not
    with pytest.raises(ValueError, match="n_atoms underflows to 0"):
        sigma_max(_vessel(area=1e-320), 0.0)
    with pytest.raises(ValueError, match=r"sigma_max underflows to 0 \(N = 5.37"):
        sigma_max(_vessel(area=1e-20, rho22_0=1e-320), 0.0)


def test_vessel_validation():
    with pytest.raises(ValueError, match="length"):
        _vessel(length=0.0)
    with pytest.raises(ValueError, match="gas_density"):
        _vessel(gas_density=-1.0)
    with pytest.raises(ValueError, match="rho22_0"):
        _vessel(rho22_0=2.0)
    with pytest.raises(ValueError, match="ratio"):
        _vessel(ratio=-0.1)


@pytest.mark.parametrize("name, value", [
    ("length", math.inf), ("area", math.inf), ("gas_density", math.nan),
    ("wavelength_31", math.inf), ("ratio", math.inf), ("ratio", math.nan),
])
def test_vessel_rejects_non_finite(name, value):
    # inf/nan would otherwise pass through to eta, n31 and sigma as inf/nan
    with pytest.raises(ValueError, match=f"{name}.*finite"):
        _vessel(**{name: value})


# ---------------------------------------------------------------------------
# ensemble intensity and cross-sections
# ---------------------------------------------------------------------------

def _intensity(cfg, drive, dec, t):
    return evaluate(cfg, drive, dec, (t,))[0][3]


def test_intensity_matches_angular_quadrature_at_t0():
    cfg = _vessel()
    drive = _drive()
    dec = 1.0
    omega31 = 2.0 * math.pi * 2.99792458e10 / cfg.wavelength_31

    def one_atom(theta):
        return intensity_weak(drive, Orientation(theta), cfg.ratio, omega31, dec, cfg.rho22_0)

    brute = cfg.n_atoms * oracles.angular_average_quad(one_atom)
    assert _intensity(cfg, drive, dec, 0.0) == pytest.approx(brute, rel=1e-10)


def test_intensity_linear_in_flux_and_density():
    cfg = _vessel()
    dec = 1.0
    base = _intensity(cfg, _drive(1.0), dec, 0.0)
    assert _intensity(cfg, _drive(2.0), dec, 0.0) == pytest.approx(2.0 * base, rel=1e-12)
    half = _vessel(gas_density=0.45e-4)
    assert _intensity(half, _drive(1.0), dec, 0.0) == pytest.approx(0.5 * base, rel=1e-12)


def test_sigma_and_eta_identities():
    # evaluate's I/S_mw is decrement * sigma_max and its eta is that over the area
    cfg, drive = _vessel(area=3.7), _drive()
    for dec in (1.0, 0.5):
        for _, beta, _, intensity, eta in evaluate(cfg, drive, dec, [0.0, 1e-7, 1e-6]):
            sigma = dec * sigma_max(cfg, beta)
            assert intensity / drive.s_mw == pytest.approx(sigma, rel=1e-14)
            assert eta == pytest.approx(sigma / cfg.area, rel=1e-14)


def test_eta_independent_of_area():
    narrow = _vessel(area=0.2)
    wide = _vessel(area=50.0)
    assert sigma_max(narrow, 1.5) / narrow.area == pytest.approx(sigma_max(wide, 1.5) / wide.area,
                                                                 rel=1e-12)


def test_eta_worked_example():
    cfg = _vessel()
    # efficiency prefactor (3/2pi)*n31 rounds to ~4e10
    eta_peak = sigma_max(cfg, 0.0) / cfg.area
    prefactor = eta_peak / (cfg.rho22_0 * f_beta(0.0))
    assert prefactor == pytest.approx(3.8218120774480064e10, rel=1e-10)
    assert prefactor == pytest.approx(4.0e10, rel=0.10)
    # and with rho22(0) = 1e-4 the peak efficiency is ~1.3e6
    assert eta_peak == pytest.approx(1.2739373591493357e6, rel=1e-10)
    assert eta_peak >= 1.0e6


def test_evaluate_matches_pointwise_functions_bit_for_bit():
    cfg, drive, dec = _vessel(area=2.5), _drive(3.0), 0.7
    times = [0.0, 1e-9, 3e-8, 1e-6]
    denominator = 32.0 * math.pi**3 * HBAR_ERG_S
    for row in evaluate(cfg, drive, dec, times):
        t, beta, f, intensity, eta = row
        assert row == evaluate(cfg, drive, dec, (t,))[0]
        assert beta == (3.0 * drive.e0**2 * cfg.wavelength_31**3 * cfg.ratio * dec * t
                        / denominator)
        assert f == f_beta(beta)
        assert eta == intensity / (cfg.area * drive.s_mw)
    off = MicrowaveDrive(e0=0.0)
    assert evaluate(cfg, off, dec, [0.0, 1e-6]) == [(0.0, 0.0, f_beta(0.0), 0.0, 0.0),
                                                    (1e-6, 0.0, f_beta(0.0), 0.0, 0.0)]


def test_evaluate_rejects_overflow_and_negative_time():
    with pytest.raises(ValueError, match="overflows at t = 1e"):
        evaluate(_vessel(), _drive(), 1.0, [0.0, 1e308])
    with pytest.raises(ValueError, match="overflows"):   # area * S_mw
        evaluate(_vessel(area=1e30), _drive(1e290), 1.0, [0.0])
    for t in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            evaluate(_vessel(), _drive(), 1.0, [t])
    for decrement in (-0.5, math.nan):
        with pytest.raises(ValueError, match="decrement must be nonnegative"):
            evaluate(_vessel(), _drive(), decrement, [0.0])
    with pytest.raises(ValueError, match="overflows at t = 0.0 s"):   # I finite, power not
        evaluate(_vessel(area=1e30, rho22_0=1e-300), _drive(1e290), 1.0, [0.0])
    with pytest.raises(ValueError, match="underflows"):  # area * S_mw = 0 < S_mw
        evaluate(_vessel(area=1e-219), _drive(1e-130), 1.0, [0.0])


def test_evaluate_rejects_an_intensity_or_efficiency_that_underflows():
    # N = 0.9e-4*1e-320/mu_H underflows to 0, and with it the cross-section scale
    tiny = _vessel(length=1e-320)
    with pytest.raises(ValueError, match=r"cross-section scale underflows to 0 \(N = 0.0"):
        evaluate(tiny, _drive(), 1.0, [0.0])
    for cfg, drive in ((_vessel(length=1e-35), _drive(1e-305)),          # I_total
                       (_vessel(length=1e-300, rho22_0=1e-35, area=1e100), _drive())):  # eta
        with pytest.raises(ValueError, match="intensity or efficiency underflows to 0 at t = 0"):
            evaluate(cfg, drive, 1.0, [0.0, 1e-6])
    # a zero factor makes eta = 0 by convention, at any scale
    for cfg, drive, dec in ((tiny.replace(ratio=0.0), _drive(), 1.0),
                            (tiny.replace(rho22_0=0.0), _drive(), 1.0),
                            (tiny, _drive(), 0.0),
                            (tiny, MicrowaveDrive(e0=0.0), 1.0)):
        assert [row[4] for row in evaluate(cfg, drive, dec, [0.0, 1e-6])] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# pulse energy: exact time integral of the ensemble intensity
# ---------------------------------------------------------------------------

def _pulse_oracle(cfg, drive, dec, t0, t1):
    """I(0)/f(0) * integral of f(k*t) over [t0, t1], through the quadrature oracle."""
    k = _beta(cfg, drive, dec, 1.0)
    scale = 3.0 * _intensity(cfg, drive, dec, 0.0)
    return scale * (t1 * oracles.g_quad(k * t1) - t0 * oracles.g_quad(k * t0))


def _time_of_beta(cfg, drive, dec, beta):
    return beta / _beta(cfg, drive, dec, 1.0)


def test_pulse_energy_zero_flux():
    off = MicrowaveDrive(e0=0.0)
    assert pulse_energy(_vessel(), off, 1.0, 0.0, 1e-6) == 0.0


@pytest.mark.parametrize("beta_end", [1e-6, 0.05, 0.0999, 0.1001, 0.3, 6.0, 60.0, 1.0e4,
                                      1.0e8, 1.0e12])
def test_pulse_energy_matches_quadrature_oracle(beta_end):
    # both sides of the f_beta series/erf cutoff at 0.1, one depletion time
    # (beta ~ 6) and deep depletion (beta >> 60), where the oracle's
    # breakpoints resolve the integrand's dip of width beta^(-1/2)
    cfg, drive, dec = _vessel(), _drive(2.0), 0.8
    t1 = _time_of_beta(cfg, drive, dec, beta_end)
    assert pulse_energy(cfg, drive, dec, 0.0, t1) == pytest.approx(
        _pulse_oracle(cfg, drive, dec, 0.0, t1), rel=1e-12)


@pytest.mark.parametrize("beta_start,beta_end", [(0.02, 0.08), (0.05, 0.5), (3.0, 9.0),
                                                 (70.0, 400.0)])
def test_pulse_energy_late_start(beta_start, beta_end):
    cfg, drive, dec = _vessel(ratio=16.2), _drive(0.3), 1.0
    t0 = _time_of_beta(cfg, drive, dec, beta_start)
    t1 = _time_of_beta(cfg, drive, dec, beta_end)
    energy = pulse_energy(cfg, drive, dec, t0, t1)
    assert energy == pytest.approx(_pulse_oracle(cfg, drive, dec, t0, t1), rel=1e-11)
    whole = pulse_energy(cfg, drive, dec, 0.0, t1)
    head = pulse_energy(cfg, drive, dec, 0.0, t0)
    assert energy == pytest.approx(whole - head, rel=1e-12)


def test_trapezoid_converges_to_pulse_energy_at_second_order():
    cfg, drive, dec = _vessel(), _drive(), 1.0
    t1 = _time_of_beta(cfg, drive, dec, 6.0)
    exact = pulse_energy(cfg, drive, dec, 0.0, t1)
    errors = []
    for steps in (51, 101, 201, 401):
        times = np.linspace(0.0, t1, steps)
        values = [row[3] for row in evaluate(cfg, drive, dec, [float(t) for t in times])]
        errors.append(float(np.trapezoid(values, times)) - exact)
    # the integrand is convex, so the trapezoid overshoots by c/N^2
    assert all(e > 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("beta_end", [0.05, 6.0, 60.0, 1.0e4])
@pytest.mark.parametrize("width", [1.0, 1e-3, 1e-7, "one ulp"])
def test_pulse_energy_on_narrow_windows_matches_quadrature_oracle(beta_end, width):
    # t1*g(k*t1) - t0*g(k*t0) cancels as the window narrows: one ulp read a negative energy
    cfg, drive, dec = _vessel(), _drive(2.0), 0.8
    t1 = _time_of_beta(cfg, drive, dec, beta_end)
    t0 = math.nextafter(t1, 0.0) if width == "one ulp" else t1 * (1.0 - width)
    k = _beta(cfg, drive, dec, 1.0)
    want = 3.0 * _intensity(cfg, drive, dec, 0.0) * oracles.f_window_quad(k, t0, t1)
    energy = pulse_energy(cfg, drive, dec, t0, t1)
    assert energy > 0.0 and energy == pytest.approx(want, rel=1e-9)


def test_pulse_energy_rejects_a_reversed_window():
    cfg, drive = _vessel(), _drive()
    with pytest.raises(ValueError, match="pulse window is reversed: t1 = 1e-07 s is below t0"):
        pulse_energy(cfg, drive, 1.0, 2e-6, 1e-7)
    assert pulse_energy(cfg, drive, 1.0, 1e-7, 1e-7) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        pulse_energy(cfg, drive, 1.0, -1e-6, 1e-6)


def test_pulse_energy_is_zero_only_at_a_zero_factor():
    cfg, drive = _vessel(), _drive()
    for zero in (_vessel(ratio=0.0), _vessel(rho22_0=0.0)):
        assert pulse_energy(zero, drive, 1.0, 0.0, 1e-6) == 0.0
    assert pulse_energy(cfg, drive, 0.0, 0.0, 1e-6) == 0.0
    # every factor positive, N*S_mw*window below the smallest denormal: this printed 0 erg
    tiny = _vessel(area=1e-200, rho22_0=1e-125)
    with pytest.raises(ValueError, match="pulse energy underflows to 0"):
        pulse_energy(tiny, drive, 1.0, 0.0, 1e-20)
    # the energy reads only I_total: an efficiency I/(area*S_mw) that underflows, which
    # evaluate rejects, leaves the energy positive
    wide = _vessel(length=1e-300, rho22_0=1e-35, area=1e100)
    with pytest.raises(ValueError, match="intensity or efficiency underflows"):
        evaluate(wide, drive, 1.0, [0.0])
    assert pulse_energy(wide, drive, 1.0, 0.0, 1e-6) == pytest.approx(7.58176995e-227, rel=1e-8)


def test_pulse_energy_rejects_an_overflowing_beta_or_a_nan_time():
    cfg, drive = _vessel(), _drive()
    with pytest.raises(ValueError, match="beta overflows at t = 1e"):
        pulse_energy(cfg, drive, 1.0, 0.0, 1e308)
    for t0, t1 in ((math.nan, 1e-6), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t must be nonnegative, got nan"):
            pulse_energy(cfg, drive, 1.0, t0, t1)
    with pytest.raises(ValueError, match="decrement must be nonnegative"):
        pulse_energy(cfg, drive, math.nan, 0.0, 1e-6)


@pytest.mark.parametrize("beta_end", [1e-6, 0.05, 0.0999, 0.1001, 0.3, 6.0, 60.0, 1.0e4,
                                      1.0e8, 1.0e12])
def test_window_memo_returns_the_bits_of_a_fresh_computation(beta_end):
    # the memo's keys compare -0.0 equal to 0.0, so a hit can serve operands of the
    # other sign: a warm result must equal a cold one bit for bit, on both branches
    drive, dec = _drive(2.0), 0.8
    t1 = _time_of_beta(_vessel(), drive, dec, beta_end)
    one, zero, negative_zero = _vessel(), _vessel(ratio=0.0), _vessel(ratio=-0.0)
    narrow = t1 * (1.0 - 1e-3)
    calls = [(one, 0.0), (one, -0.0), (zero, 0.0), (negative_zero, 0.0), (negative_zero, -0.0),
             (one, narrow), (zero, narrow), (negative_zero, narrow)]
    cold = []
    for cfg, t0 in calls:
        _window.cache_clear()
        cold.append(pulse_energy(cfg, drive, dec, t0, t1).hex())
    _window.cache_clear()
    warm = [pulse_energy(cfg, drive, dec, t0, t1).hex() for cfg, t0 in calls]
    assert warm == cold
    assert _window.cache_info().hits == 4   # each call after one whose operands compare equal


@pytest.mark.parametrize("parameter, low, high, misses", [
    ("rho22_initial", 1e-5, 1e-2, 1),
    ("vessel_length_cm", 1.0, 100.0, 1),
    ("gas_density_g_cm3", 1e-6, 1e-3, 1),
    ("flux_w_cm2", 1.0, 100.0, 7),
    ("detuning_mhz", 0.0, 500.0, 7),
])
def test_window_memo_misses_once_per_distinct_beta(parameter, low, high, misses):
    # beta reads the flux and the detuning, not rho22(0), the length or the density
    cfg = cli.ScenarioConfig(channel="fine_structure")
    _window.cache_clear()
    cli.run_sweep(cfg, cli.SweepSpec(parameter, low, high, 7, objective="pulse_energy"))
    info = _window.cache_info()
    assert (info.misses, info.hits) == (misses, 7 - misses)


def _stored_oracle(cfg, drive, dec, t0, t1):
    n_excited = cfg.gas_density * cfg.area * cfg.length / oracles.MU_H * cfg.rho22_0
    return oracles.stored_pulse_energy(n_excited, cfg.wavelength_31, drive.e0, cfg.ratio,
                                       dec, t0, t1)


@pytest.mark.parametrize("beta_start,beta_end", [
    (0.0, 1e-6), (0.0, 0.05), (0.0, 6.0), (0.0, 1.0e4),
    (1e-6, 1e-3), (0.05, 0.5), (3.0, 9.0), (70.0, 400.0), (100.0, 1.0e4)])
@pytest.mark.parametrize("ratio,dec", [(1.0, 1.0), (16.2, 0.4)])
def test_pulse_energy_is_the_released_stored_energy(beta_start, beta_end, ratio, dec):
    cfg, drive = _vessel(ratio=ratio), _drive(2.0)
    t0 = _time_of_beta(cfg, drive, dec, beta_start)
    t1 = _time_of_beta(cfg, drive, dec, beta_end)
    assert pulse_energy(cfg, drive, dec, t0, t1) == pytest.approx(
        _stored_oracle(cfg, drive, dec, t0, t1), rel=1e-10)


@pytest.mark.parametrize("ratio", [1.0, hydrogenic_dipole_ratio()])
def test_pulse_energy_never_exceeds_the_stored_energy(ratio):
    cfg, drive = _vessel(ratio=ratio), _drive()
    stored = (cfg.gas_density * cfg.area * cfg.length / oracles.MU_H * cfg.rho22_0
              * 2.0 * math.pi * oracles.HBAR * oracles.C / cfg.wavelength_31)
    tau = depletion_time(cfg, drive, 1.0)
    shares = [pulse_energy(cfg, drive, 1.0, 0.0, m * tau) / stored
              for m in (1.0, 10.0, 1e3, 1e6, 1e12)]
    assert shares == sorted(shares) and shares[-1] < 1.0
    # G(6050) = 1 - sqrt(pi)/(2*sqrt(6050)) to 1e-9
    assert shares[2] == pytest.approx(0.98860, abs=5e-6)


def test_pulse_energy_overflows_only_past_the_stored_energy():
    # a stored energy N*rho22*2*pi*hbar*c/wavelength above the largest float,
    # reachable only with a nonphysical wavelength: no order of the product is finite
    cfg = _vessel(length=1e100, area=1e100, gas_density=1e82, rho22_0=1.0,
                  wavelength_31=1e-20)
    drive = MicrowaveDrive(e0=1.0)
    assert pulse_energy(cfg, drive, 1.0, 0.0, 1e30) == pytest.approx(
        _stored_oracle(cfg, drive, 1.0, 0.0, 1e30), rel=1e-10)
    with pytest.raises(ValueError, match="pulse energy overflows"):
        pulse_energy(cfg, drive, 1.0, 0.0, 1e37)


# ---------------------------------------------------------------------------
# depletion time
# ---------------------------------------------------------------------------

def test_depletion_time_inverse_in_flux_and_ratio():
    vessel, drive = _vessel(), _drive(1.0)
    tau = depletion_time(vessel, drive, 1.0)
    assert depletion_time(vessel, _drive(0.5), 1.0) == pytest.approx(2.0 * tau, rel=1e-12)
    assert depletion_time(_vessel(ratio=4.0), drive, 1.0) == pytest.approx(tau / 4.0, rel=1e-12)


def test_depletion_time_places_beta_near_six():
    # beta at t = tau is the pure number 3*2e3/(32*pi^3) ~ 6.05 for any inputs
    for flux, ratio, dec in [(1.0, 1.0, 1.0), (25.0, 16.2, 0.4), (1e-3, 0.07, 2.0)]:
        drive = _drive(flux)
        tau = depletion_time(_vessel(ratio=ratio), drive, dec)
        beta_tau = _beta(_vessel(ratio=ratio), drive, dec, tau)
        assert beta_tau == pytest.approx(6.047162706224905, rel=1e-12)
        assert 5.9 <= beta_tau <= 6.3


def test_depletion_time_no_depletion_marker():
    off = MicrowaveDrive(e0=0.0)
    assert depletion_time(_vessel(), off, 1.0) is None
    assert depletion_time(_vessel(ratio=0.0), _drive(1.0), 1.0) is None


def test_depletion_time_validation():
    # the wavelength and the ratio are EnsembleConfig's to check (test_vessel_validation)
    for decrement in (0.0, math.nan):
        with pytest.raises(ValueError, match="decrement must be positive"):
            depletion_time(_vessel(), _drive(1.0), decrement)
    # a nonzero field whose E0^2 * wavelength^3 underflows: no finite tau
    with pytest.raises(ValueError, match="depletion time overflows"):
        depletion_time(_vessel(), _drive(1e-310), 1.0)
    # a rate so large that 2e3*hbar/rate underflows: tau would read 0
    with pytest.raises(ValueError, match="depletion time underflows to 0"):
        depletion_time(_vessel(ratio=1e308), _drive(1e10), 1.0)
