"""Independent oracles used across the test suite: brute-force quadrature,
closed Gamma-function evaluations, the exact two-level amplitude solution and
the stored-energy form of the pulse energy.
Nothing here calls the library code paths it is used to check.
"""

import cmath
import math
from fractions import Fraction

from scipy.integrate import quad

# Constants restated independently of the library source.
HBAR = 1.054571817e-27   # erg s
C = 2.99792458e10        # cm/s
E = 4.80320471e-10       # statC
A0 = 5.29177210903e-9    # cm
MU_H = 1.6735328e-24     # g


def f_beta_quad(beta: float) -> float:
    """Adaptive quadrature of x^2 exp(-beta x^2) on [0, 1]."""
    value, _ = quad(lambda x: x * x * math.exp(-beta * x * x), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def _taylor_exact(beta: float, denominator) -> Fraction:
    """sum_k (-beta)^k / denominator(k) over k = 0..29, exactly, with beta = n/d taken
    exactly: the terms are summed as (-n)^k * d^(29-k) / denominator(k), whose
    denominators stay small, and the sum is divided by d^29 once.  For beta below 0.1
    the first dropped term is below 1e-63 of the sum."""
    n, d = beta.as_integer_ratio()
    return sum(Fraction((-n) ** k * d ** (29 - k), denominator(k)) for k in range(30)) / d**29


def f_taylor_exact(beta: float) -> Fraction:
    """f(beta), the integral of x^2 exp(-beta x^2) on [0, 1], as the Taylor series
    sum_k (-beta)^k / (k! (2k+3)) in exact arithmetic (see ``_taylor_exact``)."""
    return _taylor_exact(beta, lambda k: math.factorial(k) * (2 * k + 3))


def g_taylor_exact(beta: float) -> Fraction:
    """g(beta) = (1/beta) * integral of 1 - exp(-beta x^2) on [0, 1], as the Taylor series
    sum_k (-beta)^k / ((k+1)! (2k+3)) in exact arithmetic (see ``_taylor_exact``)."""
    return _taylor_exact(beta, lambda k: math.factorial(k + 1) * (2 * k + 3))


def _dip_points(*rates):
    """Breakpoints at 1, 2, 4 and 8 times B^(-1/2) inside (0, 1) for each rate B:
    exp(-B x^2) falls off over x ~ B^(-1/2), and without a breakpoint there
    quad's first samples miss that narrow dip at x = 0 when B is large."""
    points = {k / math.sqrt(b) for b in rates if b > 0 for k in (1.0, 2.0, 4.0, 8.0)}
    return sorted(x for x in points if x < 1.0) or None


def g_quad(b: float) -> float:
    """(1/B) * adaptive quadrature of 1 - exp(-B x^2) on [0, 1]; 1/3 at B = 0.

    The time integral of f(k*t) over [0, T] equals T * g_quad(k*T).
    """
    if b == 0:
        return 1.0 / 3.0
    value, _ = quad(lambda x: -math.expm1(-b * x * x), 0.0, 1.0, points=_dip_points(b),
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value / b


def _released_quad(b0: float, width: float) -> float:
    """G(b0 + width) - G(b0), where G(B) = B * g_quad(B) is the integral of
    1 - exp(-B x^2) on [0, 1]: the adaptive quadrature of
    exp(-b0 x^2) * (1 - exp(-width x^2)) on [0, 1], which takes no difference of
    G values and so does not cancel on narrow windows or deep in depletion."""
    value, _ = quad(lambda x: math.exp(-b0 * x * x) * -math.expm1(-width * x * x), 0.0, 1.0,
                    points=_dip_points(b0, b0 + width), epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def f_window_quad(k: float, t0: float, t1: float) -> float:
    """Integral of f(k*t) over t in [t0, t1], free of cancellation: exchanging the
    t and x integrals gives (1/k) * (G(k t1) - G(k t0)), see ``_released_quad``."""
    return _released_quad(k * t0, k * (t1 - t0)) / k


def stored_pulse_energy(n_excited: float, wavelength_31: float, e0: float, ratio: float,
                        decrement: float, t0: float, t1: float) -> float:
    """Energy (erg) emitted over [t0, t1] by n_excited metastable atoms driven at
    field e0: n_excited * (2 pi hbar c / wavelength_31) * (G(k t1) - G(k t0)), with
    k = beta/t = 3 e0^2 wavelength_31^3 ratio decrement / (32 pi^3 hbar) and the
    G difference taken by ``_released_quad``.  G rises from 0 to 1 because the
    integral of f(B) dB over [0, inf) is 1, so the pulse returns at most the
    stored energy.
    """
    k = 3.0 * e0**2 * wavelength_31**3 * ratio * decrement / (32.0 * math.pi**3 * HBAR)
    quantum = 2.0 * math.pi * HBAR * C / wavelength_31
    return n_excited * (quantum * _released_quad(k * t0, k * (t1 - t0)))


# Hydrogenic radial functions written out from scratch (r in units of a0).
def r10(r):
    return 2.0 * math.exp(-r)


def r20(r):
    return (2.0 - r) * math.exp(-r / 2.0) / (2.0 * math.sqrt(2.0))


def r21(r):
    return r * math.exp(-r / 2.0) / (2.0 * math.sqrt(6.0))


RADIAL = {(1, 0): r10, (2, 0): r20, (2, 1): r21}


def norm_quad(nl) -> float:
    """Quadrature of R_nl^2 r^2 over [0, 60] (tail < 1e-20)."""
    f = RADIAL[nl]
    value, _ = quad(lambda r: f(r) ** 2 * r * r, 0.0, 60.0,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def radial_integral_quad(nl_a, nl_b) -> float:
    """Quadrature of R_a r R_b r^2 over [0, 60]."""
    fa, fb = RADIAL[nl_a], RADIAL[nl_b]
    value, _ = quad(lambda r: fa(r) * r * fb(r) * r * r, 0.0, 60.0,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def radial_integral_gamma_1s2p() -> float:
    """Closed form of the (1s, 2p) radial integral via Gamma(5):
    (1/sqrt(6)) * integral of r^4 exp(-3r/2) = (1/sqrt(6)) * 4! / (3/2)^5."""
    return math.gamma(5) / (math.sqrt(6.0) * 1.5**5)


def radial_integral_gamma_2s2p() -> float:
    """Closed form of the (2s, 2p) radial integral:
    (2*Gamma(5) - Gamma(6)) / (4*sqrt(12)) = -3*sqrt(3)."""
    return (2.0 * math.gamma(5) - math.gamma(6)) / (4.0 * math.sqrt(12.0))


def two_level_amplitudes(t: float, omega: float, gamma: float) -> tuple:
    """Exact (c2(t), c3(t)) of the resonant RWA amplitude equations

        c2' = -i (omega/2) c3,   c3' = -i (omega/2) c2 - (gamma/2) c3,

    from c2 = 1, c3 = 0: a metastable level 2 Rabi-coupled at frequency omega
    to a level 3 whose population decays at gamma.  With the roots
    s+- = -gamma/4 +- sqrt(gamma^2/16 - omega^2/4) (complex above
    omega = gamma/2, where the atom Rabi-oscillates),
    c2 = (s+ exp(s- t) - s- exp(s+ t)) / (s+ - s-) and
    c3 = (i omega/2) (exp(s- t) - exp(s+ t)) / (s+ - s-).  s+ is taken as
    omega^2/(4 s-), free of cancellation at small omega; the critical point
    omega = gamma/2 itself, a double root, is excluded.
    """
    root = cmath.sqrt(gamma * gamma / 16.0 - omega * omega / 4.0)
    s_minus = -gamma / 4.0 - root
    s_plus = omega * omega / (4.0 * s_minus)
    e_minus, e_plus = cmath.exp(s_minus * t), cmath.exp(s_plus * t)
    c2 = (s_plus * e_minus - s_minus * e_plus) / (s_plus - s_minus)
    c3 = 0.5j * omega * (e_minus - e_plus) / (s_plus - s_minus)
    return c2, c3


def rho22_two_level(t: float, omega: float, gamma: float) -> float:
    """Exact |c2(t)|^2 of ``two_level_amplitudes``."""
    return abs(two_level_amplitudes(t, omega, gamma)[0]) ** 2


def two_level_ensemble(t: float, omega: float, gamma: float) -> tuple:
    """(<|c2(t)|^2>, <|c3(t)|^2>) of ``two_level_amplitudes`` averaged over an
    isotropic ensemble: an atom at angle theta to the field sees the Rabi
    frequency omega*x with x = cos(theta), and x is uniform on [0, 1].  The
    averages are adaptive quadratures over x; the double root at
    omega*x = gamma/2 is a single point of the range."""
    def average(index):
        value, _ = quad(lambda x: abs(two_level_amplitudes(t, omega * x, gamma)[index]) ** 2,
                        0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        return value

    return average(0), average(1)


def angular_average_quad(intensity_of_theta) -> float:
    """Isotropic orientation average (1/2) * integral of I(theta) sin(theta) on [0, pi]."""
    value, _ = quad(lambda th: intensity_of_theta(th) * math.sin(th), 0.0, math.pi,
                    epsabs=1e-13, epsrel=1e-12, limit=200)
    return 0.5 * value
