"""Orientation-averaged ensemble response for a gas of randomly oriented atoms:
the depletion integral f(beta) with its closed form and asymptotics, the
ensemble intensity and cross-sections, the depletion time, and the vessel
figure of merit n31 that sets the peak conversion efficiency.

The depletion parameter grows linearly in time, beta = k * t, at the rate (s^-1)

    k = K * S_mw * ratio * decrement,  K = 3 * wavelength_31^3 / (4 * pi^2 * c * hbar)

at drive flux S_mw (erg s^-1 cm^-2), the depletion law's 3 * E0^2 * wavelength_31^3 *
ratio * decrement / (32 * pi^3 * hbar) with E0^2 = 8*pi*S_mw/c.  wavelength_31 (the 2p-1s
line ``hydrogen.OPTICAL_ANCHOR_CM``) enters *cubed*, the only power that keeps the exponent
dimensionless (E0^2 in erg/cm^3, wavelength^3 in cm^3, hbar in erg s); beta equals
|b_32(theta=0)|^2 * decrement * t / (2 * gamma_31) identically, as the test suite checks
through ``coupling_element`` and ``decay_rate``.

The functions raise ValueError on an invalid operand, on a computation that cannot go
on, and on a 0 that stands for a nonzero value ("underflows to 0"); a result that
overflows or falls below the normal range is returned as its IEEE value (inf, nan where
inf meets 0, or a subnormal), and ``cli.main`` refuses to print it.
"""

import math
import sys

from .hydrogen import OMEGA_31, OPTICAL_ANCHOR_CM
from .units import C_CM_S, HBAR_ERG_S, MU_H_G, _checked, _Record

__all__ = [
    "EnsembleConfig",
    "f_beta",
    "f_beta_approx_small",
    "f_beta_approx_large",
    "evaluate",
    "pulse_energy",
    "sigma_max",
    "depletion_time",
]

# Below this, the closed forms of f and g lose digits to cancellation, and their
# Taylor series cut after the beta^9 term are within 1 ulp: at beta = 0.1 the first
# dropped term is 1.2e-18 for f and 1.1e-19 for g, below 0.03 ulp of either.
_SERIES_CUTOFF = 0.1

# Taylor coefficients of f(beta), (-1)^k / (k! * (2k+3)), and of g(beta),
# (-1)^k / ((k+1)! * (2k+3)), for k = 0..9; int/int division rounds each correctly.
_F_TAYLOR = tuple((-1) ** k / (math.factorial(k) * (2 * k + 3)) for k in range(10))
_G_TAYLOR = tuple((-1) ** k / (math.factorial(k + 1) * (2 * k + 3)) for k in range(10))

_SQRT_PI = math.sqrt(math.pi)

# beta's rate per unit S_mw * ratio * decrement (s^-1 per erg s^-1 cm^-2), and beta at
# the depletion time, 6e3 / (32 * pi^3); each is the float nearest its exact value
_K = 3.0 * OPTICAL_ANCHOR_CM**3 / (4.0 * math.pi**2 * C_CM_S * HBAR_ERG_S)
_B = 187.5 / math.pi**3


class EnsembleConfig(_Record):
    """Vessel and gas parameters for the ensemble estimates.

    length/area in cm/cm^2, gas_density in g/cm^3; rho22_0 is the initial degree
    of excitation and ratio the squared dipole ratio |d_32|^2/|d_31|^2.  The
    optical wavelength_31 is the one 2p-1s line, ``hydrogen.OPTICAL_ANCHOR_CM``.
    """

    def __init__(self, length: float, area: float, gas_density: float, rho22_0: float,
                 ratio: float):
        vars(self).update(length=length, area=area, gas_density=gas_density,
                          rho22_0=rho22_0, ratio=ratio)
        # Comparisons with math.inf also reject nan, which fails every comparison.
        for name in ("length", "area", "gas_density"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.rho22_0 <= 1.0:
            raise ValueError(f"rho22_0 must lie in [0, 1], got {self.rho22_0}")
        if not 0 <= self.ratio < math.inf:
            raise ValueError(f"ratio must be finite and nonnegative, got {self.ratio}")

    @property
    def n_atoms(self) -> float:
        """Number of atoms in the vessel, gas_density * area * length / mu_H;
        ValueError where it underflows to 0 (its factors are positive)."""
        n_atoms = _n_atoms(self.length, self.area, self.gas_density)
        if n_atoms == 0:
            raise ValueError(f"n_atoms underflows to 0 (length = {self.length} cm, area = "
                             f"{self.area} cm^2, gas density = {self.gas_density} g/cm^3)")
        return n_atoms

    @property
    def n31(self) -> float:
        """Dimensionless vessel parameter gas_density * length * wavelength_31^2 / mu_H, the
        atom count of a column of cross-section wavelength_31^2; ValueError where it
        underflows to 0 (its factors are positive)."""
        n31 = _n_atoms(OPTICAL_ANCHOR_CM**2, self.length, self.gas_density)
        if n31 == 0:
            raise ValueError(f"n31 underflows to 0 (length = {self.length} cm, gas density = "
                             f"{self.gas_density} g/cm^3)")
        return n31


def _taylor(beta: float, coefficients: tuple) -> float:
    """The degree-9 polynomial with the given coefficients at beta, by Horner's rule."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = coefficients
    return c0 + beta * (c1 + beta * (c2 + beta * (c3 + beta * (c4 + beta * (
        c5 + beta * (c6 + beta * (c7 + beta * (c8 + beta * c9))))))))


def f_beta(beta: float) -> float:
    """Orientation-average depletion integral of x^2 * exp(-beta*x^2) over x in [0, 1].

    Closed form sqrt(pi)*erf(sqrt(beta))/(4*beta^(3/2)) - exp(-beta)/(2*beta)
    for beta >= 0.1; below that, where the closed form would cancel, the Taylor
    series sum_k (-beta)^k / (k! * (2k+3)) up to k = 9, within 1 ulp.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta < _SERIES_CUTOFF:
        return _taylor(beta, _F_TAYLOR)
    root = math.sqrt(beta)
    denominator = 4.0 * beta * root
    if denominator == math.inf:
        # beta^(3/2) overflows (beta above about 1.3e205) where erf(root) = 1 and
        # exp(-beta) = 0: divide in two steps; f underflows to 0 above about 3e215
        return _SQRT_PI / (4.0 * root) / beta
    return _SQRT_PI * math.erf(root) / denominator - math.exp(-beta) / (2.0 * beta)


def f_beta_approx_small(beta: float) -> float:
    """Small-beta approximation (1/3)*exp(-beta/2); comparison tables only."""
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return math.exp(-beta / 2.0) / 3.0


def f_beta_approx_large(beta: float) -> float:
    """Large-beta asymptote (sqrt(pi)/4)*beta^(-3/2); comparison tables only.

    inf at beta = 0 and wherever beta^(-3/2) overflows (beta below about 1e-205).
    """
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta == 0:
        return math.inf
    try:
        return _SQRT_PI / 4.0 * beta**-1.5
    except OverflowError:
        return math.inf


# The objectives on floats.  Each public function below unpacks its vessel into
# one private kernel: the flux S_mw, the decrement, the atom count N (unchecked, so
# that a kernel names an N that underflows in its own message), rho22_0 and the
# ratio.  A sweep calls the kernels with one operand changed per point;
# the pulse kernel takes the whole sweep column at once.

def _n_atoms(length: float, area: float, gas_density: float) -> float:
    """gas_density * area * length / mu_H in that order, which may over- or underflow;
    where gas_density * area leaves the normal range, or the product of all three falls
    below it, 1/mu_H times the factors by ``_frexp_product``, which keeps N's digits."""
    head = gas_density * area
    product = head * length
    if sys.float_info.min <= head < math.inf and sys.float_info.min <= product:
        return product / MU_H_G
    return _scaled(*_frexp_product(1.0 / MU_H_G, 0, gas_density, area, length))


def _operands(cfg: EnsembleConfig) -> tuple:
    """(N, rho22_0, ratio), the vessel operands of the kernels."""
    return _n_atoms(cfg.length, cfg.area, cfg.gas_density), cfg.rho22_0, cfg.ratio


def _sigma_scale(n_atoms: float, rho22_0: float, ratio: float, decrement: float = 1.0) -> tuple:
    """(scale, e) with the cross-section scale decrement*N*(3/2pi)*wavelength^2*ratio*rho22_0
    (cm^2) = scale * 2^e: that product, e = 0, where every partial product is finite and
    normal, or an operand is 0 or inf; else, to keep its digits, (3/2pi)*wavelength^2
    times the operands by ``_frexp_product``."""
    head = n_atoms * 3.0 / (2.0 * math.pi) * OPTICAL_ANCHOR_CM**2
    prefactor = head * ratio * rho22_0
    scale = decrement * prefactor
    operands = (n_atoms, rho22_0, ratio, decrement)
    if (sys.float_info.min <= min(head, prefactor, scale) and scale < math.inf
            or not 0 < min(operands) <= max(operands) < math.inf):
        return scale, 0
    return _frexp_product(3.0 / (2.0 * math.pi) * OPTICAL_ANCHOR_CM**2, 0, *operands)


def _beta_scale(s_mw: float, ratio: float, decrement: float) -> tuple:
    """(rate, e) with beta = rate * t * 2^e, a finite rate at every finite operand: k =
    K*S_mw*ratio*decrement in that order, e = 0, where K * S_mw and k are finite normal
    numbers; else, to keep beta's digits, m = K times the ``math.frexp`` mantissas of the
    operands over 8, below 0.55, and x their exponents' sum plus 3, as (m * 2^s, x - s)
    with s = x clamped to [0, 1020]: m * t is finite at every finite t where x <= 0, and a
    positive rate * t is normal at every t > 0 where x > 1020."""
    head = _K * s_mw
    rate = head * ratio * decrement
    if sys.float_info.min <= head and sys.float_info.min <= rate < math.inf:
        return rate, 0
    rate, exponent = _frexp_product(_K / 8.0, 3, s_mw, ratio, decrement)
    shift = min(max(exponent, 0), 1020)
    return math.ldexp(rate, shift), exponent - shift


def _scaled(x: float, exponent: int) -> float:
    """x * 2^exponent, inf where that overflows."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


def _frexp_product(x: float, exponent: int, *factors) -> tuple:
    """(m, e) with m * 2^e = x * 2^exponent times the factors, each multiplied in as its
    ``math.frexp`` mantissa and exponent, so that m keeps the digits that a partial
    product below the normal range would drop."""
    for factor in factors:
        mantissa, factor_exp = math.frexp(factor)
        x, exponent = x * mantissa, exponent + factor_exp
    return x, exponent


def evaluate(cfg: EnsembleConfig, s_mw: float, decrement: float, times) -> list:
    """Rows (t, beta, f(beta), I_total, eta) for each time t (s) at drive flux s_mw
    (erg s^-1 cm^-2), beta and f(beta) evaluated once per time.
    I_total = decrement*sigma_max(cfg, beta)*S_mw is the
    ensemble stimulated intensity (erg/s) and eta = I_total/(area*S_mw) the
    conversion efficiency, zero by convention at zero drive.  beta's rate may exceed the
    largest float.  ValueError where area*S_mw overflows or is 0 at S_mw > 0, on
    beta = 0 at t > 0 and a positive rate, on f(beta) = 0 (beta above about 3e215), and on
    a zero decrement*sigma_max/f, I_total or eta at nonzero S_mw, decrement, ratio and rho22_0."""
    return _rows(_checked(s_mw, "flux S_mw"), decrement, *_operands(cfg), cfg.area, times)


def _rows(s_mw: float, decrement: float, n_atoms: float, rho22_0: float, ratio: float,
          area: float, times) -> list:
    """``evaluate`` on floats; at the one time 0 its eta is the sweep objective eta_max_peak."""
    if not decrement >= 0:
        raise ValueError(f"decrement must be nonnegative, got {decrement}")
    rate, exponent = _beta_scale(s_mw, ratio, decrement)
    scale, shift = _sigma_scale(n_atoms, rho22_0, ratio, decrement)
    power = area * s_mw
    if s_mw > 0 and not 0 < power < math.inf:   # eta = I/power would read 0, inf or nan
        raise ValueError(f"vessel power area*S_mw {'overflows' if power else 'underflows to 0'}"
                         f" (S_mw = {s_mw} erg/s/cm^2)")
    if scale == 0 and s_mw > 0 and decrement > 0 and ratio > 0 and rho22_0 > 0:
        raise ValueError(f"cross-section scale underflows to 0 (N = {n_atoms} atoms)")
    rows = []
    for t in times:
        if not t >= 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        beta = rate * t
        if exponent:
            beta = _scaled(beta, exponent)
        if beta == 0.0 and t > 0 and rate > 0:   # a float 0.0 compares faster than an int
            raise ValueError(f"beta underflows to 0 at t = {t} s")
        f = f_beta(beta)
        intensity = _scaled(*_frexp_product(scale, shift, f, s_mw)) if shift else scale * f * s_mw
        eta = intensity / power if s_mw > 0 else 0.0
        if eta == 0 and (f == 0 or s_mw > 0 and scale > 0):
            raise ValueError(f"{'f(beta)' if f == 0 else 'intensity or efficiency'} underflows "
                             f"to 0 at t = {t} s (beta = {beta})")
        rows.append((t, beta, f, intensity, eta))
    return rows


def _g(beta: float) -> float:
    """G(B)/B, where G(B) = integral of 1 - exp(-B*x^2) over x in [0, 1]
    = 1 - exp(-B) - 2*B*f(B), formed so for B >= 0.1; below that, where it would
    cancel, the Taylor series sum_k (-B)^k / ((k+1)! * (2k+3)) up to k = 9, within
    1 ulp.  g(0) = 1/3 skips the series, which gives the same bits: every pulse
    window from t = 0 reads g(0), and the series costs about four times as much."""
    if beta >= _SERIES_CUTOFF:
        return -math.expm1(-beta) / beta - 2.0 * f_beta(beta)
    return _taylor(beta, _G_TAYLOR) if beta else 1.0 / 3.0


def _window(rate: float, exponent: int, t0: float, t1: float) -> float:
    """The share G(beta(t1)) - G(beta(t0)) of the stored energy released over the window
    [t0, t1], 0 <= t0 <= t1, with beta = rate * t * 2^exponent = k*t (see ``_beta_scale``)
    and G(B) = B*g(B) (see ``_g``), the integral of f(beta) over [0, B].  A window that
    starts at beta >= 40 takes a closed form; any other window narrower than t1/32 is
    integrated by Gauss-Legendre on nodes in beta, and the rest take the difference of G.
    ValueError where beta overflows, the one limit on k."""
    beta0, beta1 = ((_scaled(rate * t0, exponent), _scaled(rate * t1, exponent)) if exponent
                    else (rate * t0, rate * t1))
    if not math.isfinite(beta1):
        raise ValueError(f"beta overflows at t = {t1} s")
    # The span is k*(t1 - t0), since t1 - t0 is exact where t0 >= t1/2 and beta1 - beta0
    # is not; rate * width is finite wherever rate * t1 is
    width = t1 - t0
    span = _scaled(rate * width, exponent) if exponent else rate * width
    if beta0 >= 40.0:
        # erf(sqrt(beta)) is 1 here, so the share is E(beta0) - E(beta1) with
        # E(B) = sqrt(pi)/(2*sqrt(B)), the integral of exp(-B*x^2) over x in [0, 1]: taken
        # without the difference and divided in steps, which do not overflow
        root0, root1 = math.sqrt(beta0), math.sqrt(beta1)
        return _SQRT_PI / 2.0 * span / root0 / root1 / (root0 + root1)
    if width < t1 / 32.0:
        # G(beta1) - G(beta0) would cancel: 3-point Gauss-Legendre, 2e-12 relative, on
        # nodes placed in beta
        mid, half = beta0 + span / 2.0, math.sqrt(0.15) * span
        fa, fm, fb = [f_beta(beta) for beta in (mid - half, mid, mid + half)]
        return span * (5.0 * (fa + fb) + 8.0 * fm) / 18.0
    return beta1 * _g(beta1) - beta0 * _g(beta0)


def pulse_energy(cfg: EnsembleConfig, s_mw: float, decrement: float, t0: float,
                 t1: float) -> float:
    """Emitted energy (erg) at drive flux s_mw (erg s^-1 cm^-2) over the window [t0, t1],
    0 <= t0 <= t1 (s): the energy stored in the metastable level, N*rho22_0*hbar*omega_31
    (omega_31 of the 2p-1s line ``hydrogen.OPTICAL_ANCHOR_CM``), times the share released
    over the window (see ``_window``).  It equals the time integral of ``evaluate``'s
    I_total, since hbar*omega_31*K = (3/2pi)*wavelength_31^2.  ValueError on a reversed
    window, where beta overflows, and where the energy is 0 at nonzero flux, decrement,
    ratio, rho22_0 and window width."""
    _checked(s_mw, "flux S_mw")
    n_atoms, rho22_0, ratio = _operands(cfg)
    return next(_pulse_energies([(s_mw, decrement, n_atoms, rho22_0)], ratio, t0, t1))


def _pulse_energies(points, ratio: float, t0: float, t1: float):
    """``pulse_energy`` at each (S_mw, decrement, N, rho22_0) of points, yielded before
    the next point is read.  The window checks run once, before the first point, and
    the rest at every point; the released share is recomputed only where S_mw or the
    decrement changes, since beta reads no other operand that varies in a sweep."""
    if t1 < t0:
        raise ValueError(f"pulse window is reversed: t1 = {t1} s is below t0 = {t0} s")
    for t in (t0, t1):
        if not t >= 0:
            raise ValueError(f"t must be nonnegative, got {t}")
    quantum = HBAR_ERG_S * OMEGA_31   # hbar*omega_31 (erg)
    last_s_mw = last_decrement = None
    for s_mw, decrement, n_atoms, rho22_0 in points:
        if not decrement >= 0:
            raise ValueError(f"decrement must be nonnegative, got {decrement}")
        if s_mw != last_s_mw or decrement != last_decrement:
            rate, exponent = _beta_scale(s_mw, ratio, decrement)
            released = _window(rate, exponent, t0, t1)
            last_s_mw, last_decrement = s_mw, decrement
        if released >= sys.float_info.min:
            # left to right, each partial product bounds the energy from above, so none is
            # below the normal range where the energy is not
            energy = n_atoms * rho22_0 * quantum * released
        else:
            # at a positive rate and width the share is at least about beta1 * 2^-56, so
            # here beta1 < 2e-291, where f and g are 1/3 to the last bit: the share is
            # k*(t1 - t0)/3, formed on the mantissas of the rate and of t1 - t0 to keep the
            # digits a subnormal share drops (abs: a zero rate is signed as its operands
            # are, and the memo reads -0.0 as 0.0)
            energy = _scaled(*_frexp_product(n_atoms * rho22_0 * quantum / 3.0, exponent,
                                             abs(rate), t1 - t0))
        if energy == 0 and t1 > t0 and s_mw > 0 and decrement > 0 and ratio > 0 and rho22_0 > 0:
            raise ValueError("pulse energy underflows to 0")
        yield energy


def sigma_max(cfg: EnsembleConfig, beta: float) -> float:
    """Peak ensemble cross-section I_total/S_mw (cm^2) at the resonant decrement
    value, which is 1 to within gamma^2/omega_32^2 corrections.  sigma_max/area is
    the peak conversion efficiency (3/2pi)*n31*ratio*rho22_0*f(beta); with the
    worked-example vessel (length 10 cm, density 0.9e-4 g/cm^3, 122 nm) the
    prefactor (3/2pi)*n31 is ~4e10.  ValueError where N (see ``n_atoms``) or sigma_max
    underflows to 0 at nonzero ratio and rho22_0."""
    n_atoms = cfg.n_atoms
    scale, shift = _sigma_scale(n_atoms, cfg.rho22_0, cfg.ratio)
    f = f_beta(beta)
    sigma = _scaled(*_frexp_product(scale, shift, f)) if shift else scale * f
    if sigma == 0 and cfg.ratio > 0 and cfg.rho22_0 > 0:
        raise ValueError(f"sigma_max underflows to 0 (N = {n_atoms} atoms, beta = {beta})")
    return sigma


def depletion_time(cfg: EnsembleConfig, s_mw: float, decrement: float):
    """Characteristic time (s) for the ensemble emission to fall roughly tenfold at
    drive flux s_mw (erg s^-1 cm^-2):

        tau = B / k,  B = 6e3 / (32 * pi^3) ~ 6.05

    with k beta's rate (see the module docstring), so that beta(tau) = B.  Inversely
    proportional to the drive flux.  Returns None ("no depletion") when the
    flux or the dipole ratio is zero, rather than an infinity that would
    poison downstream tables; a nonzero flux so strong that tau underflows to 0
    raises ValueError.
    """
    return _depletion_time(_checked(s_mw, "flux S_mw"), decrement, cfg.ratio)


def _depletion_time(s_mw: float, decrement: float, ratio: float):
    """``depletion_time`` on floats: B over ``_beta_scale``'s rate, scaled back by its e."""
    if not decrement > 0:
        raise ValueError(f"decrement must be positive, got {decrement}")
    if s_mw == 0 or ratio == 0:
        return None
    rate, exponent = _beta_scale(s_mw, ratio, decrement)
    tau = _scaled(_B / rate, -exponent)
    if tau == 0:
        raise ValueError(f"depletion time underflows to 0 at S_mw = {s_mw} erg/s/cm^2")
    return tau
