import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import oracles
from mwoptical import cli, ensemble
from mwoptical.coupling import coupling_element
from mwoptical.dynamics import intensity_weak
from mwoptical.ensemble import (
    EnsembleConfig,
    _operands,
    _pulse_energies,
    depletion_time,
    evaluate,
    f_beta,
    f_beta_approx_large,
    f_beta_approx_small,
    pulse_energy,
    sigma_max,
)
from mwoptical.hydrogen import (
    OMEGA_31,
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    mode,
)
from mwoptical.units import C_CM_S, HBAR_ERG_S, MU_H_G, field_from_flux, flux_si_to_cgs

LAMBDA_31 = 1.22e-5   # cm


def _flux(flux_w_cm2=1.0):
    """The drive flux S_mw (erg s^-1 cm^-2) that the ensemble functions take."""
    return flux_si_to_cgs(flux_w_cm2)


def _beta_rate(s_mw, ratio, dec):
    """beta's rate k = K * S_mw * ratio * decrement (s^-1) as one float, inf where it
    overflows."""
    return ensemble._scaled(*ensemble._beta_scale(s_mw, ratio, dec))


def _e0_squared(s_mw):
    """E0^2 = 8*pi*S_mw/c in floats, finite wherever 8*pi*S_mw is."""
    return 8.0 * math.pi * s_mw / C_CM_S


def _vessel(**overrides):
    kwargs = dict(length=10.0, area=1.0, gas_density=0.9e-4, rho22_0=1.0e-4, ratio=1.0)
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


def test_g_continuous_across_series_cutoff():
    # series below 0.1, 1 - exp(-beta) - 2*beta*f(beta) over beta above; g(0) = 1/3
    # skips the series, which gives the same bits at beta = 0 and -0
    for beta in (0.0999, 0.1, 0.1001):
        assert ensemble._g(beta) == pytest.approx(oracles.g_quad(beta), rel=1e-12)
    for beta in (0.0, -0.0):
        assert ensemble._g(beta) == ensemble._taylor(beta, ensemble._G_TAYLOR) == 1.0 / 3.0


def test_taylor_coefficients_are_correctly_rounded():
    assert ensemble._F_TAYLOR == tuple(
        float(Fraction((-1) ** k, math.factorial(k) * (2 * k + 3))) for k in range(10))
    assert ensemble._G_TAYLOR == tuple(
        float(Fraction((-1) ** k, math.factorial(k + 1) * (2 * k + 3))) for k in range(10))


@pytest.mark.parametrize("function, oracle", [(f_beta, oracles.f_taylor_exact),
                                              (ensemble._g, oracles.g_taylor_exact)],
                         ids=["f", "g"])
def test_series_branch_is_within_one_ulp(function, oracle):
    # below the cutoff f and g are degree-9 Taylor polynomials: uniform and log-uniform
    # draws down to 1e-300, 0, a subnormal and the largest float below the cutoff
    rng = np.random.default_rng(2701)
    draws = np.concatenate([rng.uniform(0.0, 0.1, 250), 10.0 ** rng.uniform(-300.0, -1.0, 250)])
    for beta in [*map(float, draws), 0.0, 5e-324, math.nextafter(0.1, 0.0)]:
        exact = oracle(beta)
        assert abs(Fraction(function(beta)) - exact) <= math.ulp(float(exact)), beta


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

def _beta(cfg, s_mw, dec, t):
    return evaluate(cfg, s_mw, dec, (t,))[0][1]


def test_beta_zeros():
    s_mw = _flux()
    assert _beta(_vessel(), s_mw, 1.0, 0.0) == 0.0
    assert _beta(_vessel(), 0.0, 1.0, 1e-3) == 0.0


def test_beta_rejects_negative_time():
    with pytest.raises(ValueError, match="t"):
        _beta(_vessel(), _flux(), 1.0, -1.0)


def test_beta_matches_single_atom_exponent():
    # the closed form must equal |b32(theta=0)|^2 * decrement * t / (2*gamma_31)
    # when the dipoles come from the hydrogen catalog, in either convention
    up, lo, metastable = mode("2p3/2"), mode("1s1/2"), mode("2s1/2")
    omega31 = up.omega - lo.omega
    for dipole in (effective_dipole, dipole_matrix_element):
        d31, d32 = dipole(up, lo), dipole(up, metastable)
        gamma31 = decay_rate(omega31, d31)
        ratio = (d32 / d31) ** 2
        for flux, dec, t in [(1.0, 1.0, 1e-7), (40.0, 0.3, 2e-9), (0.01, 2.0, 1e-4)]:
            s_mw = _flux(flux)
            b32 = coupling_element(d32, field_from_flux(s_mw), 0.0)
            exponent = b32 * b32 * dec * t / (2.0 * gamma31)
            direct = _beta(_vessel(ratio=ratio), s_mw, dec, t)
            assert direct == pytest.approx(exponent, rel=1e-10)


def _draws(seed, *bounds, count=4000):
    """count tuples of floats, the i-th log-uniform over [10^low, 10^high] of bounds[i]."""
    rng = np.random.default_rng(seed)
    columns = [10.0 ** rng.uniform(low, high, count) for low, high in bounds]
    return [tuple(map(float, draw)) for draw in zip(*columns)]


# ensemble._K and ensemble._B in exact arithmetic, from the float constants and the float pi
# that the kernels read: beta's rate is K * S_mw * ratio * decrement, and tau = B / rate
_EXACT_K = (3 * Fraction(LAMBDA_31) ** 3
            / (4 * Fraction(math.pi) ** 2 * Fraction(C_CM_S) * Fraction(HBAR_ERG_S)))
_EXACT_B = Fraction(6000) / (32 * Fraction(math.pi) ** 3)


def _exact_rate(s_mw, ratio, dec):
    """beta's rate K * S_mw * ratio * decrement (s^-1) in exact arithmetic."""
    return _EXACT_K * Fraction(s_mw) * Fraction(ratio) * Fraction(dec)


def _within_8_ulp(got, exact):
    """Whether got keeps the rounding error of a few operations against exact."""
    return abs(Fraction(got) / exact - 1) <= 8 * 2.0**-53


def test_rate_constants_are_the_nearest_floats():
    for got, exact in ((ensemble._K, _EXACT_K), (ensemble._B, _EXACT_B)):
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2
    # beta(tau) = B = 6e3/(32*pi^3); K * S_mw * ratio * decrement is the old
    # 3*E0^2*wavelength^3*ratio*decrement/(32*pi^3*hbar) with E0^2 = 8*pi*S_mw/c
    assert ensemble._B == pytest.approx(6.047162706224905, rel=1e-15)
    assert ensemble._K == pytest.approx(4.3645969646, rel=1e-10)
    assert _EXACT_K == (3 * 8 * Fraction(math.pi) / Fraction(C_CM_S) * Fraction(LAMBDA_31) ** 3
                        / (32 * Fraction(math.pi) ** 3 * Fraction(HBAR_ERG_S)))


def test_beta_rate_keeps_the_plain_product_where_its_head_is_normal():
    # where K*S_mw and the rate are finite normal numbers the rate is
    # K*S_mw*ratio*decrement in that order, bit for bit, and close to the exact rate where
    # the product on the way is normal too; where a product on the way overflows, the rate
    # keeps its digits, and reads inf only where the exact rate exceeds the largest float
    checked = accurate = overflowed = 0
    for s_mw, ratio, dec in _draws(22, *[(-323.5, 308.25)] * 3):
        head = ensemble._K * s_mw
        if not sys.float_info.min <= head < math.inf:
            continue
        got, plain = _beta_rate(s_mw, ratio, dec), head * ratio * dec
        if sys.float_info.min <= plain < math.inf:
            checked += 1
            assert got.hex() == plain.hex()
            if head * ratio >= sys.float_info.min:
                accurate += 1
                assert _within_8_ulp(got, _exact_rate(s_mw, ratio, dec)), (s_mw, ratio, dec)
        elif head * ratio == math.inf:
            overflowed += 1
            exact = _exact_rate(s_mw, ratio, dec)
            assert got == math.inf if exact > sys.float_info.max else _within_8_ulp(got, exact)
    assert checked > 2000 and accurate > 2000 and overflowed > 300


def test_beta_rate_keeps_its_digits_where_its_head_is_subnormal():
    # where K*S_mw is subnormal or 0 (S_mw below about 5e-309) and the rate is normal, the
    # rate keeps the rounding error of its operations against the exact product
    checked = 0
    for s_mw, ratio, dec in _draws(23, (-323.5, -308.3), (150.0, 308.25), (-20.0, 0.0)):
        if ensemble._K * s_mw >= sys.float_info.min:
            continue
        got = _beta_rate(s_mw, ratio, dec)
        if not sys.float_info.min <= got < math.inf:
            continue
        checked += 1
        assert _within_8_ulp(got, _exact_rate(s_mw, ratio, dec)), (s_mw, ratio, dec)
    assert checked > 2000


def test_beta_rate_overflows_only_where_the_exact_rate_does():
    # K*S_mw overflows above S_mw ~ 4.1e307 erg s^-1 cm^-2 (4.1e300 W/cm^2); every finite
    # S_mw, up to the largest float (about 1.8e301 W/cm^2), still gives a rate that keeps
    # its digits wherever the exact rate is finite, and inf only where it is not
    checked = overflows = 0
    draws = _draws(26, (307.6, 308.25), (-30.0, 30.0), (-20.0, 0.0), count=2000)
    for s_mw, ratio, dec in draws + [(sys.float_info.max, 0.1, 1.0),
                                     (sys.float_info.max, 1.0, 1.0)]:
        if ensemble._K * s_mw < math.inf:
            continue
        got, exact = _beta_rate(s_mw, ratio, dec), _exact_rate(s_mw, ratio, dec)
        if exact > sys.float_info.max:
            overflows += 1
            assert got == math.inf, (s_mw, ratio, dec)
        else:
            checked += 1
            assert _within_8_ulp(got, exact), (s_mw, ratio, dec)
    assert checked > 1000 and overflows > 500
    assert _beta_rate(sys.float_info.max, 0.1, 1.0) == pytest.approx(7.8461e307, rel=1e-4)


def test_beta_scale_at_zero_flux_carries_no_exponent():
    # the exponent is moved into the rate even where the rate is 0, so rows at zero
    # flux skip the per-row scaling
    assert ensemble._beta_scale(0.0, 1.0, 1.0) == (0.0, 0)


def test_beta_and_tau_are_within_4_ulp_of_exact_over_the_working_range():
    # beta = k*t from the row kernel and tau = B/k against exact K*S_mw*ratio*decrement,
    # at fluxes of 1e-3 to 1e3 W/cm^2, ratios of 1e-2 to 1e3, decrements of 1e-3 to 1 and
    # times of 1e-12 to 1e-3 s (20 000 such draws measured 3.24 and 3.49 ulp at worst)
    draws = _draws(31, (-3.0, 3.0), (-2.0, 3.0), (-3.0, 0.0), (-12.0, -3.0), count=3000)
    for flux, ratio, dec, t in draws:
        s_mw = _flux(flux)
        exact_rate = _exact_rate(s_mw, ratio, dec)
        # rho22_0 = 0 keeps the intensity out of the check
        beta = ensemble._rows(s_mw, dec, 1.0, 0.0, ratio, 1.0, [t])[0][1]
        tau = ensemble._depletion_time(s_mw, dec, ratio)
        for got, exact in ((beta, exact_rate * Fraction(t)), (tau, _EXACT_B / exact_rate)):
            assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(got)), (flux, ratio, dec, t)


def test_beta_from_a_subnormal_rate_keeps_its_digits():
    # where beta's rate is subnormal, or 0, at nonzero operands, each row's beta is formed
    # on the rate's mantissas: it keeps the rounding error of its operations against the
    # exact rate * t wherever that beta is normal, up to the largest t; the pulse window's
    # released share too, at both its window formulas
    rng = np.random.default_rng(2801)
    checked = windows = 0
    for s_mw, ratio, dec in _draws(28, (-317.0, -250.0), (-60.0, 20.0), (-20.0, 0.0)):
        if _beta_rate(s_mw, ratio, dec) >= sys.float_info.min:
            continue
        exact_rate = _exact_rate(s_mw, ratio, dec)
        t = Fraction(10.0 ** rng.uniform(-300.0, 30.0)) / exact_rate
        if t > sys.float_info.max:
            continue
        t = float(t)
        # rho22_0 = 0 keeps the intensity out of the check
        beta = ensemble._rows(s_mw, dec, 1.0, 0.0, ratio, 1.0, [t])[0][1]
        exact = exact_rate * Fraction(t)
        if exact >= sys.float_info.min:
            checked += 1
            assert _within_8_ulp(beta, exact), (s_mw, ratio, dec, t)
        scale, t1 = ensemble._beta_scale(s_mw, ratio, dec), t + t / 64.0
        if t1 == math.inf:
            continue
        # [0, t] releases G(k*t) = k*t*g(k*t); [t, t1] k*(t1 - t) times f's mean by 3-point
        # Gauss-Legendre (from beta = 40 on, the closed form, within 2e-14 of it here)
        windows += 1
        released = ensemble._window(*scale, 0.0, t)
        assert released == pytest.approx(float(exact) * ensemble._g(float(exact)), rel=1e-13)
        mid, half = t + (t1 - t) / 2.0, math.sqrt(0.15) * (t1 - t)
        fa, fm, fb = [f_beta(float(exact_rate * Fraction(x))) for x in (mid - half, mid,
                                                                      mid + half)]
        span = float(exact_rate * (Fraction(t1) - Fraction(t)))
        released = ensemble._window(*scale, t, t1)
        assert released == pytest.approx(span * (5.0 * (fa + fb) + 8.0 * fm) / 18.0, rel=1e-13)
    assert checked > 1000 and windows > 500
    # at the largest t: m = K * mantissas / 8 keeps m * t finite where K * mantissas would not
    s_mw, t = math.ldexp(0.999, -1029), sys.float_info.max
    beta = ensemble._rows(s_mw, 0.999, 1.0, 0.0, 0.999, 1.0, [t])[0][1]
    assert _within_8_ulp(beta, _exact_rate(s_mw, 0.999, 0.999) * Fraction(t))
    # a scenario at 1e-306 W/cm^2 on resonance printed beta = 0 at t = 1e-8 s
    s_mw, dec = cli._flux(1e-306), cli._decrement(0.0)
    exact = _exact_rate(s_mw, 1.0, dec) * Fraction(1e-8)
    beta = evaluate(_vessel(), s_mw, dec, [1e-8])[0][1]
    assert f"{beta:.8e}" == f"{float(exact):.8e}" == "4.36459696e-307"


def _stored_share(beta):
    """E(B) = sqrt(pi)*erf(sqrt(B))/(2*sqrt(B)), the integral of exp(-B*x^2) over x in
    [0, 1] for B > 0: the share of the stored energy not yet released at beta = B."""
    root = math.sqrt(beta)
    return math.sqrt(math.pi) * math.erf(root) / (2.0 * root)


def test_beta_at_a_rate_above_the_largest_float_keeps_its_digits():
    # where beta's rate k exceeds the largest float (up to about 1.4e617 s^-1 at the largest
    # S_mw and ratio), the row kernel's beta keeps the rounding error of its operations
    # against the exact k*t wherever f(beta) is positive, at subnormal t too, and so does
    # the pulse window's; the window over [0, 1e-300] raises exactly where the exact
    # k*1e-300 exceeds the largest float, and elsewhere releases 1 - E(k*1e-300)
    rng = np.random.default_rng(3201)
    rows = windows = rejected = accepted = 0
    for s_mw, ratio, dec in _draws(33, (300.0, 308.25), (300.0, 308.25), (-1.0, 0.0),
                                   count=2000):
        exact_end = _exact_rate(s_mw, ratio, dec) * Fraction(1e-300)
        margin = exact_end / Fraction(sys.float_info.max)
        scale = ensemble._beta_scale(s_mw, ratio, dec)
        if margin > 1 + 1e-12:
            rejected += 1
            with pytest.raises(ValueError, match="beta overflows at t = 1e-300 s"):
                ensemble._window(*scale, 0.0, 1e-300)
        elif margin < 1 - 1e-12:
            accepted += 1
            released = ensemble._window(*scale, 0.0, 1e-300)
            assert released == pytest.approx(1.0 - _stored_share(float(exact_end)),
                                             rel=1e-13)
    for s_mw, ratio, dec in _draws(32, (25.0, 308.25), (297.0, 308.25), (-1.0, 0.0)):
        exact_rate = _exact_rate(s_mw, ratio, dec)
        if exact_rate <= sys.float_info.max:
            continue
        scale = ensemble._beta_scale(s_mw, ratio, dec)
        t = float(Fraction(10.0 ** rng.uniform(-20.0, 200.0)) / exact_rate)
        if t == 0:
            continue
        # rho22_0 = 0 keeps the intensity out of the check
        beta = ensemble._rows(s_mw, dec, 1.0, 0.0, ratio, 1.0, [t])[0][1]
        exact = exact_rate * Fraction(t)
        rows += 1
        assert _within_8_ulp(beta, exact), (s_mw, ratio, dec, t)
        if exact >= 1:
            # a window [t, 2t] from beta >= 1 releases E(k*t) - E(2*k*t) of the stored
            # energy, read from beta alone
            windows += 1
            released = ensemble._window(*scale, t, 2.0 * t)
            expected = _stored_share(float(exact)) - _stored_share(float(2 * exact))
            assert released == pytest.approx(expected, rel=1e-13)
            # a window [t, t + t/64] is integrated on its span in beta, and its share keeps
            # its digits at a subnormal t
            t1 = t + t / 64.0
            released = ensemble._window(*scale, t, t1)
            expected = _stored_share(float(exact)) - _stored_share(
                float(exact_rate * Fraction(t1)))
            assert released == pytest.approx(expected, rel=1e-10)
    assert rows > 1000 and windows > 500 and rejected > 300 and accepted > 300


# ---------------------------------------------------------------------------
# vessel configuration
# ---------------------------------------------------------------------------

def test_vessel_counts():
    cfg = _vessel()
    # N = rho_H * F * L / mu_H and N31 = rho_H * L * lambda^2 / mu_H
    assert cfg.n_atoms == pytest.approx(0.9e-4 * 1.0 * 10.0 / 1.6735328e-24, rel=1e-12)
    assert cfg.n31 == pytest.approx(8.004384497274269e10, rel=1e-12)
    assert cfg.n31 == pytest.approx(0.8e11, rel=0.03)
    # positive factors whose product underflows to 0 leave no n31 to report; one that
    # overflows is inf, and one below the normal range a subnormal, which the CLI refuses
    # to print (test_cli's overflow and range tests)
    with pytest.raises(ValueError, match="n31 underflows to 0"):
        _vessel(length=1e-310, gas_density=1e-30).n31
    assert 0 < _vessel(length=1e-300, gas_density=1e-30).n31 < sys.float_info.min
    assert _vessel(length=1e300, gas_density=1e10).n31 == math.inf
    # and no atom count where rho*A*L/mu_H underflows to 0; where it overflows N is inf
    with pytest.raises(ValueError, match=r"n_atoms underflows to 0 \(length = 1e-30 cm, "
                                         r"area = 1e-320 cm\^2, gas density = 9e-05 g/cm\^3\)"):
        _vessel(area=1e-320, length=1e-30).n_atoms
    assert _vessel(area=1e300, length=1e300).n_atoms == math.inf


def test_atom_counts_keep_their_digits_where_the_product_is_subnormal():
    # N = rho*A*L/mu_H is formed on the mantissas where rho*A leaves the normal range or
    # rho*A*L falls below it, so a normal N keeps the rounding error of its operations
    # against the exact value; elsewhere it has the bits of the plain product, and so has
    # n31, the count of a column of cross-section wavelength^2.  The plain product printed
    # N = 5.97531681e-297, 1.1e-5 low, for the first vessel below.
    vessel = _vessel(area=1e-300, length=1e-20, gas_density=1.0)
    assert f"{vessel.n_atoms:.8e}" == "5.97538333e-297"
    checked = plain = 0
    for length, area, density in _draws(64, (-320.0, 308.0), (-320.0, 308.0), (-320.0, 308.0)):
        exact = Fraction(density) * Fraction(area) * Fraction(length) / Fraction(MU_H_G)
        n_atoms = ensemble._n_atoms(length, area, density)
        if sys.float_info.min <= exact <= sys.float_info.max:
            checked += 1
            assert _within_8_ulp(n_atoms, exact), (length, area, density)
        for head, tail, n_plain in ((density * area, length, n_atoms),
                                    (density * length, LAMBDA_31**2,
                                     ensemble._n_atoms(LAMBDA_31**2, length, density))):
            if sys.float_info.min <= head < math.inf and sys.float_info.min <= head * tail:
                plain += 1
                assert n_plain == head * tail / MU_H_G
    assert checked > 1000 and plain > 1000


def test_sigma_max_is_zero_only_at_a_zero_factor():
    assert sigma_max(_vessel(ratio=0.0), 0.0) == 0.0
    assert sigma_max(_vessel(rho22_0=0.0), 0.0) == 0.0
    # every factor positive: N underflows, or N is positive and the product is not
    with pytest.raises(ValueError, match="n_atoms underflows to 0"):
        sigma_max(_vessel(area=1e-320, length=1e-30), 0.0)
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
    ("ratio", math.inf), ("ratio", math.nan),
])
def test_vessel_rejects_non_finite(name, value):
    # inf/nan would otherwise pass through to eta, n31 and sigma as inf/nan
    with pytest.raises(ValueError, match=f"{name}.*finite"):
        _vessel(**{name: value})


# ---------------------------------------------------------------------------
# ensemble intensity and cross-sections
# ---------------------------------------------------------------------------

def _intensity(cfg, s_mw, dec, t):
    return evaluate(cfg, s_mw, dec, (t,))[0][3]


def test_intensity_matches_angular_quadrature_at_t0():
    cfg = _vessel()
    s_mw = _flux()
    dec = 1.0
    omega31 = 2.0 * math.pi * 2.99792458e10 / LAMBDA_31

    def one_atom(theta):
        return intensity_weak(s_mw, theta, cfg.ratio, omega31, dec, cfg.rho22_0)

    brute = cfg.n_atoms * oracles.angular_average_quad(one_atom)
    assert _intensity(cfg, s_mw, dec, 0.0) == pytest.approx(brute, rel=1e-10)


def test_intensity_linear_in_flux_and_density():
    cfg = _vessel()
    dec = 1.0
    base = _intensity(cfg, _flux(1.0), dec, 0.0)
    assert _intensity(cfg, _flux(2.0), dec, 0.0) == pytest.approx(2.0 * base, rel=1e-12)
    half = _vessel(gas_density=0.45e-4)
    assert _intensity(half, _flux(1.0), dec, 0.0) == pytest.approx(0.5 * base, rel=1e-12)


# the cross-section scale's constant (3/2pi)*wavelength^2 in exact arithmetic, from the
# float pi and wavelength that the kernels read
_EXACT_SIGMA_UNIT = 3 * Fraction(LAMBDA_31) ** 2 / (2 * Fraction(math.pi))


def test_cross_section_scale_keeps_its_digits_below_the_normal_range():
    # I_total = decrement*N*(3/2pi)*wavelength^2*ratio*rho22_0*f*S_mw is formed on the
    # mantissas where a partial product of the cross-section scale leaves the normal
    # range, so a normal I at t = 0 (f = 1/3) keeps the rounding error of its operations
    # against the exact value, and so does sigma_max; where none does, both have the bits
    # of the plain products.  The second draws put the scale near or below the normal range.
    checked = mantissas = 0
    for n_atoms, ratio, rho22_0, dec, s_mw in (
            _draws(63, (-300.0, 300.0), (-20.0, 300.0), (-320.0, 0.0), (-20.0, 0.0),
                   (-300.0, 300.0), count=2000)
            + _draws(65, (-60.0, 40.0), (-10.0, 10.0), (-320.0, -240.0), (-10.0, 0.0),
                     (0.0, 300.0), count=2000)):
        scale = Fraction(dec) * Fraction(n_atoms) * _EXACT_SIGMA_UNIT * Fraction(ratio) \
            * Fraction(rho22_0)
        exact = scale * Fraction(s_mw) / 3
        try:
            (_, _, _, intensity, _), = ensemble._rows(s_mw, dec, n_atoms, rho22_0, ratio, 1.0,
                                                      (0.0,))
        except ValueError as error:   # I, or eta = I/S_mw, underflows to 0
            assert "underflows to 0" in str(error), error
            assert min(exact, exact / Fraction(s_mw)) < sys.float_info.min
            continue
        head = n_atoms * 3.0 / (2.0 * math.pi) * LAMBDA_31**2
        partials = (head, head * ratio * rho22_0, dec * (head * ratio * rho22_0))
        if sys.float_info.min <= min(partials) and max(partials) < math.inf:
            assert intensity == partials[2] * f_beta(0.0) * s_mw
        elif sys.float_info.min <= exact <= sys.float_info.max:
            mantissas += 1
        if sys.float_info.min <= exact <= sys.float_info.max:
            checked += 1
            assert _within_8_ulp(intensity, exact), (n_atoms, ratio, rho22_0, dec, s_mw)
    assert checked > 2000 and mantissas > 500
    # an eta_max_peak sweep where the scale is about 3.8e-322 printed eta 0.83% high
    cfg = cli.parse_config("channel = fine_structure\nvessel_area_cm2 = 1e-280\n"
                           "vessel_length_cm = 1e-20\nrho22_initial = 1e-31\n")
    _, rows, _ = cli.run_sweep(cfg, cli.SweepSpec("flux_w_cm2", 1e19, 1e20, 2))
    assert [f"{eta:.8e}" for _, eta in rows] == ["1.27393736e-42"] * 2
    vessel = _vessel(area=1e-20, length=1e-20, gas_density=1.0, rho22_0=1e-280, ratio=1e10)
    exact = Fraction(vessel.n_atoms) * _EXACT_SIGMA_UNIT * Fraction(1e10) * Fraction(1e-280) / 3
    assert _within_8_ulp(sigma_max(vessel, 0.0), exact)


def test_sigma_and_eta_identities():
    # evaluate's I/S_mw is decrement * sigma_max and its eta is that over the area
    cfg, s_mw = _vessel(area=3.7), _flux()
    for dec in (1.0, 0.5):
        for _, beta, _, intensity, eta in evaluate(cfg, s_mw, dec, [0.0, 1e-7, 1e-6]):
            sigma = dec * sigma_max(cfg, beta)
            assert intensity / s_mw == pytest.approx(sigma, rel=1e-14)
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
    cfg, s_mw, dec = _vessel(area=2.5), _flux(3.0), 0.7
    times = [0.0, 1e-9, 3e-8, 1e-6]
    for row in evaluate(cfg, s_mw, dec, times):
        t, beta, f, intensity, eta = row
        assert row == evaluate(cfg, s_mw, dec, (t,))[0]
        assert beta == _beta_rate(s_mw, cfg.ratio, dec) * t
        assert f == f_beta(beta)
        assert eta == intensity / (cfg.area * s_mw)
    assert evaluate(cfg, 0.0, dec, [0.0, 1e-6]) == [(0.0, 0.0, f_beta(0.0), 0.0, 0.0),
                                                    (1e-6, 0.0, f_beta(0.0), 0.0, 0.0)]


def test_evaluate_rejects_overflow_and_negative_time():
    # beta overflows to inf, where f reads 0
    with pytest.raises(ValueError, match=r"f\(beta\) underflows to 0 at t = 1e\+308 s "
                                         r"\(beta = inf\)"):
        evaluate(_vessel(), _flux(), 1.0, [0.0, 1e308])
    with pytest.raises(ValueError, match="vessel power area.S_mw overflows"):
        evaluate(_vessel(area=1e30), _flux(1e290), 1.0, [0.0])
    for t in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            evaluate(_vessel(), _flux(), 1.0, [t])
    for decrement in (-0.5, math.nan):
        with pytest.raises(ValueError, match="decrement must be nonnegative"):
            evaluate(_vessel(), _flux(), decrement, [0.0])
    with pytest.raises(ValueError, match="vessel power area.S_mw overflows"):   # I finite
        evaluate(_vessel(area=1e30, rho22_0=1e-300), _flux(1e290), 1.0, [0.0])
    # an intensity that overflows, or falls below the normal range, is its IEEE value,
    # which the CLI refuses to print (test_cli's overflow and underflow tests)
    (_, _, _, intensity, eta), = evaluate(_vessel(), _flux(1e300), 1.0, [0.0])
    assert intensity == eta == math.inf
    (_, _, _, intensity, _), = evaluate(_vessel(), _flux(1e-323), 1.0, [0.0])
    assert 0 < intensity < sys.float_info.min
    with pytest.raises(ValueError, match="underflows"):  # area * S_mw = 0 < S_mw
        evaluate(_vessel(area=1e-219), _flux(1e-130), 1.0, [0.0])


def test_evaluate_rejects_an_intensity_or_efficiency_that_underflows():
    # N = 0.9e-4*1e-30*1e-320/mu_H underflows to 0, and with it the cross-section scale
    tiny = _vessel(length=1e-320, area=1e-30)
    with pytest.raises(ValueError, match=r"cross-section scale underflows to 0 \(N = 0.0"):
        evaluate(tiny, _flux(), 1.0, [0.0])
    for cfg, s_mw in ((_vessel(length=1e-35), _flux(1e-305)),          # I_total
                    (_vessel(length=1e-300, rho22_0=1e-35, area=1e100), _flux())):  # eta
        with pytest.raises(ValueError, match="intensity or efficiency underflows to 0 at t = 0"):
            evaluate(cfg, s_mw, 1.0, [0.0, 1e-6])
    # a zero factor makes eta = 0 by convention, at any scale
    for cfg, s_mw, dec in ((tiny.replace(ratio=0.0), _flux(), 1.0),
                         (tiny.replace(rho22_0=0.0), _flux(), 1.0),
                         (tiny, _flux(), 0.0),
                         (tiny, 0.0, 1.0)):
        assert [row[4] for row in evaluate(cfg, s_mw, dec, [0.0, 1e-6])] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# pulse energy: exact time integral of the ensemble intensity
# ---------------------------------------------------------------------------

def _pulse_oracle(cfg, s_mw, dec, t0, t1):
    """I(0)/f(0) * integral of f(k*t) over [t0, t1], through the quadrature oracle."""
    k = _beta(cfg, s_mw, dec, 1.0)
    scale = 3.0 * _intensity(cfg, s_mw, dec, 0.0)
    return scale * (t1 * oracles.g_quad(k * t1) - t0 * oracles.g_quad(k * t0))


def _time_of_beta(cfg, s_mw, dec, beta):
    return beta / _beta(cfg, s_mw, dec, 1.0)


def test_pulse_energy_zero_flux():
    assert pulse_energy(_vessel(), 0.0, 1.0, 0.0, 1e-6) == 0.0


@pytest.mark.parametrize("beta_end", [1e-6, 0.05, 0.0999, 0.1001, 0.3, 6.0, 60.0, 1.0e4,
                                      1.0e8, 1.0e12])
def test_pulse_energy_matches_quadrature_oracle(beta_end):
    # both sides of the f_beta series/erf cutoff at 0.1, one depletion time
    # (beta ~ 6) and deep depletion (beta >> 60), where the oracle's
    # breakpoints resolve the integrand's dip of width beta^(-1/2)
    cfg, s_mw, dec = _vessel(), _flux(2.0), 0.8
    t1 = _time_of_beta(cfg, s_mw, dec, beta_end)
    assert pulse_energy(cfg, s_mw, dec, 0.0, t1) == pytest.approx(
        _pulse_oracle(cfg, s_mw, dec, 0.0, t1), rel=1e-12)


@pytest.mark.parametrize("beta_start,beta_end", [(1e6, 1.05e6), (1e6, 1e8), (1e12, 4e12),
                                                 (1e20, 1.5e20), (1e24, 1e25), (1e30, 1e32)])
def test_window_oracle_holds_in_deep_depletion(beta_start, beta_end):
    # above beta = 1e6, erf(sqrt(beta)) is 1 in doubles and G(B) = 1 - sqrt(pi)/(2*sqrt(B)),
    # so the window is sqrt(pi)/(2k) * (B0^(-1/2) - B1^(-1/2)) in closed form
    k = 3.7e8
    t0, t1 = beta_start / k, beta_end / k
    closed = math.sqrt(math.pi) / (2.0 * k) * (1.0 / math.sqrt(k * t0) - 1.0 / math.sqrt(k * t1))
    assert oracles.f_window_quad(k, t0, t1) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("beta_start,beta_end", [(0.02, 0.08), (0.05, 0.5), (0.999, 4.0),
                                                 (1.001, 4.0), (3.0, 9.0), (70.0, 400.0),
                                                 (1e6, 1e7), (1e6, 1.02e6), (1e12, 1e16),
                                                 (1e20, 1.05e20), (1e24, 1e28), (1e28, 2e28),
                                                 (1e30, 1.001e30), (1e30, 1e31)])
def test_pulse_energy_late_start(beta_start, beta_end):
    # deep in depletion both G values near 1 and their difference t1*g(k*t1) - t0*g(k*t0)
    # cancelled: at beta = 1e28 the energy read 0.34 off, and deeper it read negative.
    # beta(t0) = 0.999 and 1.001 lie either side of the E(beta0) - E(beta1) branch
    cfg, s_mw, dec = _vessel(ratio=16.2), _flux(0.3), 1.0
    t0 = _time_of_beta(cfg, s_mw, dec, beta_start)
    t1 = _time_of_beta(cfg, s_mw, dec, beta_end)
    k = _beta(cfg, s_mw, dec, 1.0)
    energy = pulse_energy(cfg, s_mw, dec, t0, t1)
    want = 3.0 * _intensity(cfg, s_mw, dec, 0.0) * oracles.f_window_quad(k, t0, t1)
    assert energy > 0.0 and energy == pytest.approx(want, rel=1e-11)
    whole = pulse_energy(cfg, s_mw, dec, 0.0, t1)
    head = pulse_energy(cfg, s_mw, dec, 0.0, t0)
    if whole < 100.0 * energy:   # whole - head cancels by whole/energy: well conditioned here
        assert energy == pytest.approx(whole - head, rel=1e-12)


def test_trapezoid_converges_to_pulse_energy_at_second_order():
    cfg, s_mw, dec = _vessel(), _flux(), 1.0
    t1 = _time_of_beta(cfg, s_mw, dec, 6.0)
    exact = pulse_energy(cfg, s_mw, dec, 0.0, t1)
    errors = []
    for steps in (51, 101, 201, 401):
        times = np.linspace(0.0, t1, steps)
        values = [row[3] for row in evaluate(cfg, s_mw, dec, [float(t) for t in times])]
        errors.append(float(np.trapezoid(values, times)) - exact)
    # the integrand is convex, so the trapezoid overshoots by c/N^2
    assert all(e > 0 for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("beta_end", [0.05, 6.0, 60.0, 1.0e4])
@pytest.mark.parametrize("width", [1.0, 1e-3, 1e-7, "one ulp"])
def test_pulse_energy_on_narrow_windows_matches_quadrature_oracle(beta_end, width):
    # t1*g(k*t1) - t0*g(k*t0) cancels as the window narrows: one ulp read a negative energy
    cfg, s_mw, dec = _vessel(), _flux(2.0), 0.8
    t1 = _time_of_beta(cfg, s_mw, dec, beta_end)
    t0 = math.nextafter(t1, 0.0) if width == "one ulp" else t1 * (1.0 - width)
    k = _beta(cfg, s_mw, dec, 1.0)
    want = 3.0 * _intensity(cfg, s_mw, dec, 0.0) * oracles.f_window_quad(k, t0, t1)
    energy = pulse_energy(cfg, s_mw, dec, t0, t1)
    assert energy > 0.0 and energy == pytest.approx(want, rel=1e-9)


def test_pulse_energy_rejects_a_reversed_window():
    cfg, s_mw = _vessel(), _flux()
    with pytest.raises(ValueError, match="pulse window is reversed: t1 = 1e-07 s is below t0"):
        pulse_energy(cfg, s_mw, 1.0, 2e-6, 1e-7)
    assert pulse_energy(cfg, s_mw, 1.0, 1e-7, 1e-7) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        pulse_energy(cfg, s_mw, 1.0, -1e-6, 1e-6)


def test_pulse_energy_is_zero_only_at_a_zero_factor():
    cfg, s_mw = _vessel(), _flux()
    for zero in (_vessel(ratio=0.0), _vessel(rho22_0=0.0)):
        assert pulse_energy(zero, s_mw, 1.0, 0.0, 1e-6) == 0.0
    assert pulse_energy(cfg, s_mw, 0.0, 0.0, 1e-6) == 0.0
    # every factor positive, N*S_mw*window below the smallest denormal: this printed 0 erg
    tiny = _vessel(area=1e-200, rho22_0=1e-125)
    with pytest.raises(ValueError, match="pulse energy underflows to 0"):
        pulse_energy(tiny, s_mw, 1.0, 0.0, 1e-20)
    # the energy reads only I_total: an efficiency I/(area*S_mw) that underflows, which
    # evaluate rejects, leaves the energy positive
    wide = _vessel(length=1e-300, rho22_0=1e-35, area=1e100)
    with pytest.raises(ValueError, match="intensity or efficiency underflows"):
        evaluate(wide, s_mw, 1.0, [0.0])
    assert pulse_energy(wide, s_mw, 1.0, 0.0, 1e-6) == pytest.approx(7.58176995e-227, rel=1e-8)


def test_pulse_energy_rejects_an_overflowing_beta_or_a_nan_time():
    cfg, s_mw = _vessel(), _flux()
    with pytest.raises(ValueError, match="beta overflows at t = 1e"):
        pulse_energy(cfg, s_mw, 1.0, 0.0, 1e308)
    for t0, t1 in ((math.nan, 1e-6), (0.0, math.nan)):
        with pytest.raises(ValueError, match="t must be nonnegative, got nan"):
            pulse_energy(cfg, s_mw, 1.0, t0, t1)
    with pytest.raises(ValueError, match="decrement must be nonnegative"):
        pulse_energy(cfg, s_mw, math.nan, 0.0, 1e-6)


def _counting(monkeypatch, name):
    """Replace ensemble.<name> with a wrapper that records each call's arguments."""
    calls, function = [], getattr(ensemble, name)
    monkeypatch.setattr(ensemble, name, lambda *args: calls.append(args) or function(*args))
    return calls


@pytest.mark.parametrize("beta_end", [1e-6, 0.05, 0.0999, 0.1001, 0.3, 6.0, 60.0, 1.0e4,
                                      1.0e8, 1.0e12])
def test_window_memo_returns_the_bits_of_a_fresh_computation(beta_end, monkeypatch):
    # the pulse kernel keeps the previous point's window where S_mw and the decrement
    # compare equal, and -0.0 compares equal to 0.0: one multi-point call must give the
    # bits of fresh one-point calls, on all three window branches
    s_mw, dec = _flux(2.0), 0.8
    t1 = _time_of_beta(_vessel(), s_mw, dec, beta_end)
    narrow, half = t1 * (1.0 - 1e-3), t1 / 2.0
    points = [(s_mw, dec, 1e-4), (s_mw, dec, 3e-4), (s_mw, 0.0, 1e-4), (s_mw, -0.0, 1e-4),
              (0.0, dec, 1e-4), (-0.0, dec, 1e-4)]
    for ratio, t0 in [(1.0, 0.0), (1.0, -0.0), (0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0),
                      (1.0, narrow), (0.0, narrow), (-0.0, narrow), (1.0, half), (0.0, half)]:
        vessels = [_vessel(ratio=ratio, rho22_0=rho22_0) for _, _, rho22_0 in points]
        fresh = [pulse_energy(cfg, flux, decrement, t0, t1).hex()
                 for cfg, (flux, decrement, _) in zip(vessels, points)]
        windows = _counting(monkeypatch, "_window")
        n_atoms = _operands(vessels[0])[0]
        column = _pulse_energies([(flux, decrement, n_atoms, rho22_0)
                                  for flux, decrement, rho22_0 in points],
                                 ratio, t0, t1)
        assert [energy.hex() for energy in column] == fresh
        # at the first point and where S_mw or the decrement changes
        assert len(windows) == 3
        monkeypatch.undo()


@pytest.mark.parametrize("parameter, low, high, misses", [
    ("rho22_initial", 1e-5, 1e-2, 1),
    ("vessel_length_cm", 1.0, 100.0, 1),
    ("gas_density_g_cm3", 1e-6, 1e-3, 1),
    ("flux_w_cm2", 1.0, 100.0, 7),
    ("detuning_mhz", 0.0, 500.0, 7),
])
def test_window_memo_misses_once_per_distinct_beta(parameter, low, high, misses, monkeypatch):
    # beta reads the flux and the detuning, not rho22(0), the length or the density
    windows = _counting(monkeypatch, "_window")
    cfg = cli.ScenarioConfig(channel="fine_structure")
    cli.run_sweep(cfg, cli.SweepSpec(parameter, low, high, 7, objective="pulse_energy"))
    assert len(windows) == misses


def test_a_window_from_time_zero_evaluates_f_once(monkeypatch):
    # g(0) = 1/3 reads no f, so a window that starts at t0 = 0 evaluates f at t1 only
    f_calls = _counting(monkeypatch, "f_beta")
    cfg = cli.ScenarioConfig(channel="fine_structure")
    assert cfg.time_start_s == 0.0
    cli.run_sweep(cfg, cli.SweepSpec("flux_w_cm2", 1.0, 100.0, 7, objective="pulse_energy"))
    assert len(f_calls) == 7


def _stored_oracle(cfg, s_mw, dec, t0, t1):
    n_excited = cfg.gas_density * cfg.area * cfg.length / oracles.MU_H * cfg.rho22_0
    return oracles.stored_pulse_energy(n_excited, LAMBDA_31, field_from_flux(s_mw), cfg.ratio,
                                       dec, t0, t1)


@pytest.mark.parametrize("beta_start,beta_end", [
    (0.0, 1e-6), (0.0, 0.05), (0.0, 6.0), (0.0, 1.0e4),
    (1e-6, 1e-3), (0.05, 0.5), (3.0, 9.0), (70.0, 400.0), (100.0, 1.0e4),
    (1.0, 1.0e4), (1e6, 1e8), (1e16, 1.1e16), (1e24, 1e26), (1e30, 3e30),
    (1.0, 40.0), (39.0, 80.0), (40.0, 41.5), (40.0, 1.0e3)])
@pytest.mark.parametrize("ratio,dec", [(1.0, 1.0), (16.2, 0.4)])
def test_pulse_energy_is_the_released_stored_energy(beta_start, beta_end, ratio, dec):
    cfg, s_mw = _vessel(ratio=ratio), _flux(2.0)
    t0 = _time_of_beta(cfg, s_mw, dec, beta_start)
    t1 = _time_of_beta(cfg, s_mw, dec, beta_end)
    assert pulse_energy(cfg, s_mw, dec, t0, t1) == pytest.approx(
        _stored_oracle(cfg, s_mw, dec, t0, t1), rel=1e-10)


@pytest.mark.parametrize("low, high", [(0.0, math.log10(40.0)), (math.log10(40.0), 30.0)],
                         ids=["beta0-below-40", "beta0-from-40"])
def test_wide_windows_release_the_quadrature_share(low, high):
    # a window wider than t1/32 takes the difference of G from beta0 < 40 and the closed
    # form from beta0 >= 40; at rate 1 the kernel's beta is t, so the oracle reads the
    # kernel's own beta0 and span
    rng = np.random.default_rng(3501)
    for _ in range(1000):
        beta0 = float(10.0 ** rng.uniform(low, high))
        beta1 = beta0 * 32.0 / 31.0 * (1.0 + float(10.0 ** rng.uniform(-8.0, 3.0)))
        assert beta1 - beta0 >= beta1 / 32.0
        expected = oracles._released_quad(beta0, beta1 - beta0)
        assert ensemble._window(1.0, 0, beta0, beta1) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("ratio", [1.0, hydrogenic_dipole_ratio()])
def test_pulse_energy_never_exceeds_the_stored_energy(ratio):
    cfg, s_mw = _vessel(ratio=ratio), _flux()
    stored = (cfg.gas_density * cfg.area * cfg.length / oracles.MU_H * cfg.rho22_0
              * 2.0 * math.pi * oracles.HBAR * oracles.C / LAMBDA_31)
    tau = depletion_time(cfg, s_mw, 1.0)
    shares = [pulse_energy(cfg, s_mw, 1.0, 0.0, m * tau) / stored
              for m in (1.0, 10.0, 1e3, 1e6, 1e12)]
    assert shares == sorted(shares) and shares[-1] < 1.0
    # G(6050) = 1 - sqrt(pi)/(2*sqrt(6050)) to 1e-9
    assert shares[2] == pytest.approx(0.98860, abs=5e-6)


def test_pulse_energy_overflows_only_past_the_stored_energy():
    # decrement*sigma*S_mw overflows here, the stored energy N*rho22*2*pi*hbar*c/wavelength
    # (~1e295 erg) does not, and neither does the energy
    cfg = _vessel(length=1e100, area=1e100, gas_density=1e82, rho22_0=1.0)
    s_mw = C_CM_S * 1e3**2 / (8.0 * math.pi)
    assert pulse_energy(cfg, s_mw, 1.0, 0.0, 1e-15) == pytest.approx(
        _stored_oracle(cfg, s_mw, 1.0, 0.0, 1e-15), rel=1e-10)
    assert pulse_energy(cfg, s_mw, 1.0, 0.0, 0.0) == 0.0   # an empty window at t = 0
    # on the 122 nm line the stored energy overflows only where N itself does, and the
    # energy is then inf, which the CLI refuses to print
    assert pulse_energy(_vessel(length=1e200, area=1e200, gas_density=1.0, rho22_0=1.0),
                        s_mw, 1.0, 0.0, 1e-15) == math.inf


def _pulse_draws(rng, count):
    """count points (S_mw, ratio, decrement, N, rho22_0, t0, t1): S_mw, the ratio, N and t1
    log-uniform over [1e-320, 1e308], the decrement and rho22_0 over [1e-320, 1], and
    windows that start, in turn, at t0 = 0, one ulp below t1, up to t1/32 below it
    (narrow) and further below it (wide)."""
    for index in range(count):
        s_mw, ratio, n_atoms, t1 = map(float, 10.0 ** rng.uniform(-320.0, 308.0, 4))
        decrement, rho22_0 = map(float, 10.0 ** rng.uniform(-320.0, 0.0, 2))
        t0 = [0.0, math.nextafter(t1, 0.0),
              t1 * (1.0 - 10.0 ** rng.uniform(-15.0, -1.51)),
              t1 * 10.0 ** rng.uniform(-300.0, -0.014)][index % 4]
        yield s_mw, ratio, decrement, n_atoms, rho22_0, t0, t1


def _released_reference(rate, t0, t1):
    """The share of the stored energy released over [t0, t1] at the exact rate k: exactly
    k*(t1 - t0)/3 where k*t1 < 1e-12, since f is 1/3 to 4e-13 there, and else the
    quadrature oracle at the correctly rounded k*t0 and k*(t1 - t0)."""
    span = rate * (Fraction(t1) - Fraction(t0))
    if rate * Fraction(t1) < Fraction(1, 10**12):
        return span / 3
    with warnings.catch_warnings():
        # quad flags roundoff on windows of a few ulp deep in depletion, where its value
        # agrees with the closed form sqrt(pi)/2 * ((k*t0)^(-1/2) - (k*t1)^(-1/2)) to 5e-16
        warnings.simplefilter("ignore", IntegrationWarning)
        return Fraction(oracles._released_quad(float(rate * Fraction(t0)), float(span)))


def _check_pulse_energies(seed, count):
    """Check ``_pulse_energies`` on count draws of ``_pulse_draws`` against the stored
    energy N*rho22_0*hbar*omega_31 times ``_released_reference``: every normal energy
    lies within 1e-9 of it, an energy that underflows, to 0 or below the normal range,
    has a reference below the normal range, and beta overflows where the exact k*t1
    exceeds the largest float.  Returns the counts of normal energies, underflows and
    overflows."""
    quantum = Fraction(HBAR_ERG_S) * Fraction(OMEGA_31)
    returned = underflows = overflows = 0
    for draw in _pulse_draws(np.random.default_rng(seed), count):
        s_mw, ratio, dec, n_atoms, rho22_0, t0, t1 = draw
        rate = _exact_rate(s_mw, ratio, dec)
        try:
            energy = next(_pulse_energies([(s_mw, dec, n_atoms, rho22_0)], ratio, t0, t1))
        except ValueError as error:
            if str(error).startswith("beta overflows"):
                overflows += 1
                assert rate * Fraction(t1) > sys.float_info.max * (1 - 1e-12), draw
                continue
            assert str(error) == "pulse energy underflows to 0", (draw, error)
            energy = 0.0
        reference = (Fraction(n_atoms) * Fraction(rho22_0) * quantum
                     * _released_reference(rate, t0, t1))
        if energy < sys.float_info.min:
            underflows += 1
            assert reference < sys.float_info.min * (1 + 1e-9), (draw, energy)
            continue
        returned += 1
        assert abs(Fraction(energy) - reference) <= reference * Fraction(1e-9), draw
    return returned, underflows, overflows


def test_pulse_energies_match_the_stored_energy_oracle_over_the_whole_range():
    # the cross-section form scale*S_mw*W formed scale*S_mw before W lifted it: where the
    # energy is normal, it exited as underflowing to 0 on 183 of these draws and read more
    # than 1e-9 off, up to 49%, on 68.  Fresh draws run outside the suite:
    #     PYTHONPATH=src python tests/test_ensemble.py --draws N [--seed S]
    returned, underflows, overflows = _check_pulse_energies(3401, 2000)
    assert returned > 500 and underflows > 1000 and overflows > 100


# ---------------------------------------------------------------------------
# depletion time
# ---------------------------------------------------------------------------

def test_depletion_time_inverse_in_flux_and_ratio():
    vessel, s_mw = _vessel(), _flux(1.0)
    tau = depletion_time(vessel, s_mw, 1.0)
    assert depletion_time(vessel, _flux(0.5), 1.0) == pytest.approx(2.0 * tau, rel=1e-12)
    assert depletion_time(_vessel(ratio=4.0), s_mw, 1.0) == pytest.approx(tau / 4.0, rel=1e-12)


def test_depletion_time_places_beta_near_six():
    # beta at t = tau is the pure number B = 6e3/(32*pi^3) ~ 6.05 for any inputs
    for flux, ratio, dec in [(1.0, 1.0, 1.0), (25.0, 16.2, 0.4), (1e-3, 0.07, 2.0)]:
        s_mw = _flux(flux)
        tau = depletion_time(_vessel(ratio=ratio), s_mw, dec)
        beta_tau = _beta(_vessel(ratio=ratio), s_mw, dec, tau)
        assert beta_tau == pytest.approx(6.047162706224905, rel=1e-12)
        assert 5.9 <= beta_tau <= 6.3


def test_depletion_time_reads_the_beta_rate():
    # tau = B/_beta_rate puts beta(tau) at B = 6e3/(32*pi^3) to rounding, and
    # keeps tau within 4 ulp of 2e3*hbar/(decrement * E0^2 * wavelength^3 * ratio)
    # with E0^2 = 8*pi*S_mw/c
    for flux, ratio, dec in _draws(24, (-3.0, 3.0), (-2.0, 3.0), (-3.0, 0.0), count=2000):
        s_mw = _flux(flux)
        tau = depletion_time(_vessel(ratio=ratio), s_mw, dec)
        assert _beta(_vessel(ratio=ratio), s_mw, dec, tau) == pytest.approx(
            6.0e3 / (32.0 * math.pi**3), rel=1e-13)
        plain = 2.0e3 * HBAR_ERG_S / (dec * _e0_squared(s_mw) * LAMBDA_31**3 * ratio)
        assert abs(tau - plain) <= 4 * math.ulp(plain), (flux, ratio, dec)


def test_depletion_time_where_the_beta_head_is_subnormal():
    # E0^2 * wavelength^3, the head of the rate before K was folded, is subnormal here;
    # K * S_mw is normal, and ratio ~3e282 brings the rate back to about 1.8e-26 s^-1
    s_mw, dec = cli._flux(1.4004939611837856e-304), cli._decrement(1e8)
    ratio = 3.027736961255513e+282
    tau = depletion_time(_vessel(ratio=ratio), s_mw, dec)
    exact = _EXACT_B / _exact_rate(s_mw, ratio, dec)
    assert f"{tau:.8e}" == "3.36448650e+26"
    assert float(Fraction(tau) / exact - 1) == pytest.approx(0.0, abs=1e-12)


def test_depletion_time_from_a_subnormal_rate_keeps_its_digits():
    # tau is formed on the mantissas of its operands at every rate, subnormal, 0 or normal
    # (with fluxes up to the largest float, where 8*pi*S_mw overflows): it keeps the
    # rounding error of its operations against B over the exact rate, and leaves the
    # range (inf, a subnormal, or an error where it underflows to 0) only where that exact
    # tau does; where the rate is normal it has the bits of B over the rate
    checked = overflows = plain = 0
    draws = (_draws(27, (-317.0, -250.0), (-60.0, 20.0), (-20.0, 0.0))
             + _draws(29, (-300.0, 308.25), (-60.0, 20.0), (-20.0, 0.0), count=2000)
             + _draws(30, (306.86, 308.25), (-60.0, 20.0), (-20.0, 0.0), count=1000))
    for s_mw, ratio, dec in draws:
        exact = _EXACT_B / _exact_rate(s_mw, ratio, dec)
        if exact > sys.float_info.max:
            overflows += 1
            assert ensemble._depletion_time(s_mw, dec, ratio) == math.inf
            continue
        if exact < sys.float_info.min:
            try:
                assert 0 < ensemble._depletion_time(s_mw, dec, ratio) < sys.float_info.min
            except ValueError as error:
                assert str(error).startswith("depletion time underflows to 0"), error
            continue
        checked += 1
        tau = ensemble._depletion_time(s_mw, dec, ratio)
        assert _within_8_ulp(tau, exact), (s_mw, ratio, dec)
        rate = _beta_rate(s_mw, ratio, dec)
        if sys.float_info.min <= rate < math.inf:
            plain += 1
            assert tau.hex() == (ensemble._B / rate).hex(), (s_mw, ratio, dec)
    assert checked > 3000 and overflows > 500 and plain > 1500
    # a scenario at 1e-306 W/cm^2 on resonance printed tau = 1.42298475e+299 s, 2.7% high
    s_mw, dec = cli._flux(1e-306), cli._decrement(0.0)
    exact = _EXACT_B / _exact_rate(s_mw, 1.0, dec)
    tau = depletion_time(_vessel(), s_mw, dec)
    assert f"{tau:.8e}" == f"{float(exact):.8e}" == "1.38550312e+299"


@pytest.mark.parametrize("e0", [1.2e154, 1.3e154, 1e160, 1e300, sys.float_info.max])
def test_a_huge_field_raises_value_error(e0):
    # S_mw = c*E0^2/(8*pi) overflows: the ensemble functions and intensity_weak reject
    # the flux, each with a ValueError that names no nan
    cfg, s_mw = _vessel(), C_CM_S * e0 * e0 / (8.0 * math.pi)
    assert s_mw == math.inf
    for call in (lambda: evaluate(cfg, s_mw, 1.0, [0.0, 1e-6]),
                 lambda: pulse_energy(cfg, s_mw, 1.0, 0.0, 1e-6),
                 lambda: depletion_time(cfg, s_mw, 1.0),
                 lambda: intensity_weak(s_mw, 0.0, 1.0, OMEGA_31, 1.0, 1e-4)):
        with pytest.raises(ValueError, match="flux S_mw must be finite and nonnegative, got inf"):
            call()


def test_depletion_time_no_depletion_marker():
    assert depletion_time(_vessel(), 0.0, 1.0) is None
    assert depletion_time(_vessel(ratio=0.0), _flux(1.0), 1.0) is None


def test_depletion_time_validation():
    # the ratio is EnsembleConfig's to check (test_vessel_validation)
    for decrement in (0.0, math.nan):
        with pytest.raises(ValueError, match="decrement must be positive"):
            depletion_time(_vessel(), _flux(1.0), decrement)
    # a rate so large that B/rate underflows: tau would read 0
    with pytest.raises(ValueError, match="depletion time underflows to 0"):
        depletion_time(_vessel(ratio=1e308), _flux(1e10), 1.0)


def test_depletion_time_out_of_the_normal_range_is_its_ieee_value():
    # a nonzero flux whose rate K*S_mw is subnormal and whose tau, about 1.4e309 s, lies
    # beyond the largest float is inf; a rate that puts tau below the smallest normal
    # float, short of digits, gives that subnormal: the largest flux on the README
    # vessel, and a ratio of 1e302 at 1 W/cm^2.  The CLI refuses to print either
    # (test_cli's test_main_value_out_of_the_normal_range_exits_3).
    assert depletion_time(_vessel(), _flux(1e-316), 1.0) == math.inf
    for cfg, s_mw in ((_vessel(), sys.float_info.max), (_vessel(ratio=1e302), _flux(1.0))):
        assert 0 < depletion_time(cfg, s_mw, 1.0) < sys.float_info.min


if __name__ == "__main__":
    import argparse
    import random

    parser = argparse.ArgumentParser(
        description="Check the pulse kernel against its oracle on fresh whole-range draws.")
    parser.add_argument("--draws", type=int, required=True, help="number of draws")
    parser.add_argument("--seed", type=int, default=random.randrange(2**32),
                        help="numpy seed (default: a random one)")
    args = parser.parse_args()
    print(f"seed {args.seed}, {args.draws} draws")
    print("returned %d, underflows %d, beta overflows %d" % _check_pulse_energies(args.seed,
                                                                                args.draws))
