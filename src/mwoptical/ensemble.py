"""Orientation-averaged ensemble response for a gas of randomly oriented atoms:
the depletion integral f(beta) with its closed form and asymptotics, the
ensemble intensity and cross-sections, the depletion time, and the vessel
figure of merit n31 that sets the peak conversion efficiency.

The depletion parameter

    beta = 3 * E0^2 * wavelength_31^3 * ratio * decrement * t / (32 * pi^3 * hbar)

carries wavelength_31 *cubed*: that is the only power for which the exponent
of the single-atom depletion law stays dimensionless (E0^2 in erg/cm^3,
wavelength^3 in cm^3, hbar in erg s), and it is what the substitution of the
coupling and decay-rate definitions into that law produces.  beta equals
|b_32(theta=0)|^2 * decrement * t / (2 * gamma_31) identically, a consistency
the test suite checks against the hydrogen and dynamics modules.
"""

import functools
import math

from .coupling import MicrowaveDrive
from .units import HBAR_ERG_S, MU_H_G, _Record, flux_from_field

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

# Below this, the closed form loses digits to cancellation; the alternating
# series converges to <1e-16 in a handful of terms.
_SERIES_CUTOFF = 0.1

# beta = numerator * t / _BETA_DENOMINATOR, with the numerator of _beta_numerator
_BETA_DENOMINATOR = 32.0 * math.pi**3 * HBAR_ERG_S


class EnsembleConfig(_Record):
    """Vessel and gas parameters for the ensemble estimates.

    length/area in cm/cm^2, gas_density in g/cm^3, wavelength_31 (the optical
    emission wavelength) in cm; rho22_0 is the initial degree of excitation
    and ratio the squared dipole ratio |d_32|^2/|d_31|^2.
    """

    def __init__(self, length: float, area: float, gas_density: float, rho22_0: float,
                 ratio: float, wavelength_31: float):
        vars(self).update(length=length, area=area, gas_density=gas_density,
                          rho22_0=rho22_0, ratio=ratio, wavelength_31=wavelength_31)
        # Comparisons with math.inf also reject nan, which fails every comparison.
        for name in ("length", "area", "gas_density", "wavelength_31"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be finite and positive, got {getattr(self, name)}")
        if not 0.0 <= self.rho22_0 <= 1.0:
            raise ValueError(f"rho22_0 must lie in [0, 1], got {self.rho22_0}")
        if not 0 <= self.ratio < math.inf:
            raise ValueError(f"ratio must be finite and nonnegative, got {self.ratio}")

    @property
    def n_atoms(self) -> float:
        """Number of atoms in the vessel, gas_density * area * length / mu_H;
        ValueError where it overflows or underflows to 0 (its factors are positive)."""
        n_atoms = _n_atoms(self.length, self.area, self.gas_density)
        if not 0 < n_atoms < math.inf:
            raise ValueError(f"n_atoms {'overflows' if n_atoms else 'underflows to 0'} (length = "
                             f"{self.length} cm, area = {self.area} cm^2, gas density = "
                             f"{self.gas_density} g/cm^3)")
        return n_atoms

    @property
    def n31(self) -> float:
        """Dimensionless vessel parameter gas_density * length * wavelength_31^2 / mu_H;
        ValueError where it overflows or underflows to 0 (its factors are positive)."""
        n31 = self.gas_density * self.length * self.wavelength_31**2 / MU_H_G
        if not 0 < n31 < math.inf:
            raise ValueError(f"n31 {'overflows' if n31 else 'underflows to 0'} (length = "
                             f"{self.length} cm, gas density = {self.gas_density} g/cm^3)")
        return n31


def f_beta(beta: float) -> float:
    """Orientation-average depletion integral of x^2 * exp(-beta*x^2) over x in [0, 1].

    Closed form sqrt(pi)*erf(sqrt(beta))/(4*beta^(3/2)) - exp(-beta)/(2*beta)
    for beta >= 0.1; the alternating series sum_k (-beta)^k / (k! * (2k+3))
    below that, where the closed form would cancel catastrophically.
    """
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if beta < _SERIES_CUTOFF:
        total = 0.0
        term = 1.0 / 3.0  # k = 0
        k = 0
        while abs(term) > 1e-17:
            total += term
            k += 1
            term *= -beta / k
            term = term * (2 * k + 1) / (2 * k + 3)
        return total
    root = math.sqrt(beta)
    denominator = 4.0 * beta * root
    if denominator == math.inf:
        # beta^(3/2) overflows (beta above about 1.3e205) where erf(root) = 1 and
        # exp(-beta) = 0: divide in two steps; f underflows to 0 above about 3e215
        return math.sqrt(math.pi) / (4.0 * root) / beta
    return math.sqrt(math.pi) * math.erf(root) / denominator - math.exp(-beta) / (2.0 * beta)


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
        return math.sqrt(math.pi) / 4.0 * beta**-1.5
    except OverflowError:
        return math.inf


# The objectives on floats.  Each public function below unpacks its records into
# one private kernel: the field e0, the decrement, the atom count N (unchecked, so
# that a kernel names an N that underflows in its own message), rho22_0, the ratio
# and wavelength_31.  A sweep calls the kernels with one operand changed per point.

def _n_atoms(length: float, area: float, gas_density: float) -> float:
    """gas_density * area * length / mu_H, which may over- or underflow."""
    return gas_density * area * length / MU_H_G


def _operands(cfg: EnsembleConfig) -> tuple:
    """(N, rho22_0, ratio, wavelength_31), the vessel operands of the kernels."""
    return (_n_atoms(cfg.length, cfg.area, cfg.gas_density), cfg.rho22_0, cfg.ratio,
            cfg.wavelength_31)


def _sigma_prefactor(n_atoms: float, rho22_0: float, ratio: float,
                     wavelength_31: float) -> float:
    """N * (3/2pi) * wavelength^2 * ratio * rho22_0, the cross-section scale (cm^2)."""
    return n_atoms * 3.0 / (2.0 * math.pi) * wavelength_31**2 * ratio * rho22_0


def _beta_numerator(e0: float, wavelength_31: float, ratio: float, decrement: float) -> float:
    """3 * E0^2 * wavelength_31^3 * ratio * decrement, beta's rate times the denominator."""
    return 3.0 * e0**2 * wavelength_31**3 * ratio * decrement


def evaluate(cfg: EnsembleConfig, drive: MicrowaveDrive, decrement: float, times) -> list:
    """Rows (t, beta, f(beta), I_total, eta) for each time t (s), beta and f(beta)
    evaluated once per time.  I_total = decrement*sigma_max(cfg, beta)*S_mw is the
    ensemble stimulated intensity (erg/s) and eta = I_total/(area*S_mw) the
    conversion efficiency, zero by convention at zero drive.  ValueError on overflow, on
    f(beta) = 0 (beta above about 3e215), on area*S_mw = 0 at S_mw > 0, and on a zero
    decrement*sigma_max/f, I_total or eta at nonzero S_mw, decrement, ratio and rho22_0."""
    return _rows(drive.e0, decrement, *_operands(cfg), cfg.area, times)


def _rows(e0: float, decrement: float, n_atoms: float, rho22_0: float, ratio: float,
          wavelength_31: float, area: float, times) -> list:
    """``evaluate`` on floats; at the one time 0 its eta is the sweep objective eta_max_peak."""
    if not decrement >= 0:
        raise ValueError(f"decrement must be nonnegative, got {decrement}")
    numerator = _beta_numerator(e0, wavelength_31, ratio, decrement)
    denominator = _BETA_DENOMINATOR
    scale = decrement * _sigma_prefactor(n_atoms, rho22_0, ratio, wavelength_31)
    s_mw = flux_from_field(e0)
    power = area * s_mw
    if s_mw > 0 and power == 0:
        raise ValueError(f"vessel power area*S_mw underflows to 0 (S_mw = {s_mw} erg/s/cm^2)")
    if scale == 0 and s_mw > 0 and decrement > 0 and ratio > 0 and rho22_0 > 0:
        raise ValueError(f"cross-section scale underflows to 0 (N = {n_atoms} atoms)")
    isfinite = math.isfinite
    rows = []
    for t in times:
        if not t >= 0:
            raise ValueError(f"t must be nonnegative, got {t}")
        beta = numerator * t / denominator
        f = f_beta(beta)
        intensity = scale * f * s_mw
        eta = intensity / power if s_mw > 0 else 0.0
        if not (isfinite(beta) and isfinite(intensity) and isfinite(eta) and isfinite(power)):
            raise ValueError(f"beta, intensity or efficiency overflows at t = {t} s")
        if eta == 0 and (f == 0 or s_mw > 0 and scale > 0):
            raise ValueError(f"{'f(beta)' if f == 0 else 'intensity or efficiency'} underflows "
                             f"to 0 at t = {t} s (beta = {beta})")
        rows.append((t, beta, f, intensity, eta))
    return rows


def _g(beta: float, f: float) -> float:
    """G(B)/B, where G(B) = integral of 1 - exp(-B*x^2) over x in [0, 1]
    = 1 - exp(-B) - 2*B*f(B); g(0) = 1/3."""
    return -math.expm1(-beta) / beta - 2.0 * f if beta else 1.0 / 3.0


@functools.lru_cache(maxsize=1)
def _window(numerator: float, t0: float, t1: float) -> float:
    """Integral (s) of f(beta) over t in [t0, t1], 0 <= t0 <= t1, with
    beta = numerator * t / _BETA_DENOMINATOR; with beta = k*t, the integral of
    f(k*t) over [0, T] is T*g(k*T) (see ``_g``).  ValueError where beta overflows.

    A pure function of its operands, memoized for one entry: along a sweep of
    rho22_0, the length or the gas density every point has the same operands."""
    beta1 = numerator * t1 / _BETA_DENOMINATOR
    if not math.isfinite(beta1):
        raise ValueError(f"beta overflows at t = {t1} s")
    width = t1 - t0
    if width < t1 / 32.0:
        # t1*g(k*t1) - t0*g(k*t0) would cancel: 3-point Gauss-Legendre, 2e-12 relative
        mid, half = t0 + width / 2.0, math.sqrt(0.15) * width
        fa, fm, fb = [f_beta(numerator * t / _BETA_DENOMINATOR)
                      for t in (mid - half, mid, mid + half)]
        return width * (5.0 * (fa + fb) + 8.0 * fm) / 18.0
    beta0 = numerator * t0 / _BETA_DENOMINATOR
    return t1 * _g(beta1, f_beta(beta1)) - t0 * _g(beta0, f_beta(beta0))


def pulse_energy(cfg: EnsembleConfig, drive: MicrowaveDrive, decrement: float,
                 t0: float, t1: float) -> float:
    """Emitted energy (erg) over the window [t0, t1], 0 <= t0 <= t1 (s): the time integral
    of ``evaluate``'s I_total = decrement * _sigma_prefactor * f(beta) * S_mw, formed as
    decrement * _sigma_prefactor * S_mw times ``_window``, without ``evaluate``'s rows and
    its efficiency checks.  It is at most the energy stored in the metastable level,
    N*rho22_0*2*pi*hbar*c/wavelength_31.  ValueError on a reversed window, where beta or
    even the stored energy overflows, and where the energy underflows to 0 at nonzero
    field, decrement, ratio, rho22_0 and window width."""
    return _pulse_energy(drive.e0, decrement, *_operands(cfg), t0, t1)


def _pulse_energy(e0: float, decrement: float, n_atoms: float, rho22_0: float, ratio: float,
                  wavelength_31: float, t0: float, t1: float) -> float:
    """``pulse_energy`` on floats."""
    if t1 < t0:
        raise ValueError(f"pulse window is reversed: t1 = {t1} s is below t0 = {t0} s")
    if not decrement >= 0:
        raise ValueError(f"decrement must be nonnegative, got {decrement}")
    for t in (t0, t1):
        if not t >= 0:
            raise ValueError(f"t must be nonnegative, got {t}")
    window = _window(_beta_numerator(e0, wavelength_31, ratio, decrement), t0, t1)
    scale = decrement * _sigma_prefactor(n_atoms, rho22_0, ratio, wavelength_31)
    s_mw = flux_from_field(e0)
    energy = scale * s_mw * window
    if not math.isfinite(energy):
        # scale*S_mw can overflow where the energy does not; the window is then short
        energy = scale * (s_mw * window)
        if not math.isfinite(energy):
            raise ValueError("pulse energy overflows")
    if energy == 0 and (t1 > t0 and e0 > 0 and decrement > 0 and ratio > 0 and rho22_0 > 0):
        raise ValueError("pulse energy underflows to 0")
    return energy


def sigma_max(cfg: EnsembleConfig, beta: float) -> float:
    """Peak ensemble cross-section I_total/S_mw (cm^2) at the resonant decrement
    value, which is 1 to within gamma^2/omega_32^2 corrections.  sigma_max/area is
    the peak conversion efficiency (3/2pi)*n31*ratio*rho22_0*f(beta); with the
    worked-example vessel (length 10 cm, density 0.9e-4 g/cm^3, 122 nm) the
    prefactor (3/2pi)*n31 is ~4e10.  ValueError where N leaves the double range (see
    ``n_atoms``) and where sigma_max underflows to 0 at nonzero ratio and rho22_0."""
    n_atoms = cfg.n_atoms
    sigma = _sigma_prefactor(n_atoms, cfg.rho22_0, cfg.ratio, cfg.wavelength_31) * f_beta(beta)
    if sigma == 0 and cfg.ratio > 0 and cfg.rho22_0 > 0:
        raise ValueError(f"sigma_max underflows to 0 (N = {n_atoms} atoms, beta = {beta})")
    return sigma


def depletion_time(cfg: EnsembleConfig, drive: MicrowaveDrive, decrement: float):
    """Characteristic time (s) for the ensemble emission to fall roughly tenfold:

        tau = 2e3 * hbar / (decrement * E0^2 * wavelength_31^3 * ratio)

    (2e3 rounds 64*pi^3 ~ 1984, placing beta(tau) ~ 6).  Inversely
    proportional to the drive flux.  Returns None ("no depletion") when the
    field or the dipole ratio is zero, rather than an infinity that would
    poison downstream tables; a nonzero field too weak for a finite tau, or so
    strong that tau underflows to 0, raises ValueError.
    """
    return _depletion_time(drive.e0, decrement, cfg.ratio, cfg.wavelength_31)


def _depletion_time(e0: float, decrement: float, ratio: float, wavelength_31: float):
    """``depletion_time`` on floats."""
    if not decrement > 0:
        raise ValueError(f"decrement must be positive, got {decrement}")
    if e0 == 0 or ratio == 0:
        return None
    rate = decrement * e0**2 * wavelength_31**3 * ratio
    if rate == 0:
        raise ValueError(f"depletion time overflows at field {e0} statV/cm")
    tau = 2.0e3 * HBAR_ERG_S / rate
    if tau == 0:
        raise ValueError(f"depletion time underflows to 0 at field {e0} statV/cm")
    return tau
