"""Independent oracles for every number the benchmarked commands emit.

Nothing here imports mwoptical.  The constants are restated from CODATA the
way the test suite's oracles restate them, the radial integrals use their
Gamma-function closed forms instead of quadrature, and erf comes from
scipy.special rather than the math module the package uses.

Values cross the process boundary as 9-significant-digit text, so every
comparison allows half a unit in the ninth digit on top of its relative
tolerance: REL_F for the depletion integral, REL for the physics chain.
"""

import io
import math

import numpy as np

HBAR = 1.054571817e-27   # erg s
C = 2.99792458e10        # cm/s
E = 4.80320471e-10       # statC
A0 = 5.29177210903e-9    # cm
MU_H = 1.6735328e-24     # g
ERG_PER_S_PER_W = 1.0e7
LAMBDA31 = 122.0e-7      # cm, the 2p-1s line

CHANNELS = {
    "fine_structure": (10949.0, ("2p3/2", "2s1/2")),
    "lamb_shift": (1057.77, ("2s1/2", "2p1/2")),
}
SERIES_CUTOFF = 0.1      # f(beta) switches from its series to the erf form here
DEEP_BETA = 60.0         # "beta >> 6": ten depletion times
REL_F = 1e-12
REL = 1e-9

# Radial integrals R(1s,2p) = 4!/(sqrt(6)*1.5^5) and R(2s,2p) = -3*sqrt(3), in a0.
R_1S2P = math.gamma(5) / (math.sqrt(6.0) * 1.5**5)
R_2S2P = (2.0 * math.gamma(5) - math.gamma(6)) / (4.0 * math.sqrt(12.0))
ANGULAR_SP = 1.0 / math.sqrt(3.0)
OMEGA31 = 2.0 * math.pi * C / LAMBDA31
D31 = math.sqrt(2.0) * E * A0 * ANGULAR_SP * R_1S2P       # sublevel-summed dipole
GAMMA31 = 2.0 * OMEGA31**3 * D31**2 / (3.0 * HBAR * C**3)
RATIO_HYDROGENIC = (R_2S2P / R_1S2P) ** 2

DEFAULTS = {
    "flux_w_cm2": 1.0, "detuning_mhz": 0.0, "vessel_length_cm": 10.0,
    "vessel_area_cm2": 1.0, "gas_density_g_cm3": 0.9e-4, "rho22_initial": 1.0e-4,
    "ratio_mode": "unity", "ratio_value": None, "time_start_s": 0.0,
    "time_stop_s": 1.0e-6, "time_steps": 101,
}

CONSTANTS = {
    "hbar_erg_s": HBAR, "c_cm_s": C, "e_statC": E, "a0_cm": A0, "mu_H_g": MU_H,
    "fine_structure_constant": E**2 / (HBAR * C),
}

SCENARIO_HEADER = "t[s],f_mw[MHz],beta[-],f_beta[-],I_total[erg/s],eta[-]"
FIG1_HEADER = "beta[-],f_exact[-],f_small_approx[-],f_large_approx[-]"
SWEEP_UNITS = {"flux_w_cm2": "W/cm^2", "rho22_initial": "-", "vessel_length_cm": "cm",
               "gas_density_g_cm3": "g/cm^3", "detuning_mhz": "MHz"}
OBJECTIVE_UNITS = {"eta_max_peak": "-", "pulse_energy": "erg", "tau": "s"}
NO_DEPLETION = "no_depletion"


def _erf(x):
    from scipy.special import erf
    return erf(x)


def f_beta(beta):
    """Depletion integral of x^2 exp(-beta x^2) on [0, 1]: series below the
    cutoff, erf closed form above it."""
    b = np.asarray(beta, dtype=float)
    small = b < SERIES_CUTOFF
    bs = np.where(small, b, 0.0)
    series = np.zeros_like(bs)
    term = np.ones_like(bs)
    for k in range(14):
        series += term / (2 * k + 3)
        term = term * (-bs) / (k + 1)
    bl = np.where(small, 1.0, b)
    root = np.sqrt(bl)
    closed = math.sqrt(math.pi) * _erf(root) / (4.0 * bl * root) - np.exp(-bl) / (2.0 * bl)
    return np.where(small, series, closed)


def g_beta(b):
    """G(B)/B with G(B) = 1 - sqrt(pi)*erf(sqrt(B))/(2*sqrt(B)), so that the
    integral of f(k*t) over [0, T] is T*g_beta(k*T)."""
    b = np.asarray(b, dtype=float)
    small = b < SERIES_CUTOFF
    bs = np.where(small, b, 0.0)
    series = np.zeros_like(bs)
    term = np.ones_like(bs)          # (-B)^j / (j+1)!
    for j in range(14):
        term = term / (j + 1)
        series += term / (2 * j + 3)
        term = term * (-bs)
    bl = np.where(small, 1.0, b)
    root = np.sqrt(bl)
    closed = (1.0 - math.sqrt(math.pi) * _erf(root) / (2.0 * root)) / bl
    return np.where(small, series, closed)


def ratio_of(cfg):
    mode = cfg["ratio_mode"]
    if mode == "unity":
        return 1.0
    if mode == "hydrogenic":
        return RATIO_HYDROGENIC
    return cfg["ratio_value"]


class Physics:
    """Closed-form pipeline for one config; any numeric field may be an array
    (the swept parameter), and every derived quantity broadcasts with it."""

    def __init__(self, cfg):
        cfg = {**DEFAULTS, **cfg}
        self.cfg = cfg
        flux = np.asarray(cfg["flux_w_cm2"], dtype=float)
        self.ratio = ratio_of(cfg)
        self.s = flux * ERG_PER_S_PER_W
        self.e0sq = 8.0 * math.pi * self.s / C
        delta = 2.0 * math.pi * 1.0e6 * np.asarray(cfg["detuning_mhz"], dtype=float)
        self.dec = GAMMA31**2 / (GAMMA31**2 + delta**2)
        self.k = 3.0 * self.e0sq * LAMBDA31**3 * self.ratio * self.dec / (32.0 * math.pi**3 * HBAR)
        rho, length = cfg["gas_density_g_cm3"], cfg["vessel_length_cm"]
        self.n31 = rho * length * LAMBDA31**2 / MU_H
        self.n_atoms = rho * cfg["vessel_area_cm2"] * length / MU_H
        sigma_pref = self.n_atoms * 3.0 / (2.0 * math.pi) * LAMBDA31**2 * self.ratio * cfg["rho22_initial"]
        self.sigma_max = sigma_pref / 3.0
        self.i_over_f = self.dec * sigma_pref * self.s
        self.eta_over_f = np.where(self.s > 0, self.dec * 1.5 / math.pi * self.n31
                                   * self.ratio * cfg["rho22_initial"], 0.0)
        with np.errstate(divide="ignore"):
            self.tau = np.where((self.e0sq > 0) & (self.ratio > 0),
                                2.0e3 * HBAR / (self.dec * self.e0sq * LAMBDA31**3 * self.ratio),
                                np.nan)
        self.drive_mhz = CHANNELS[cfg["channel"]][0] + np.asarray(cfg["detuning_mhz"], dtype=float)

    def times(self):
        c = self.cfg
        return np.linspace(c["time_start_s"], c["time_stop_s"], c["time_steps"])

    def eta_peak(self):
        return self.eta_over_f / 3.0

    def pulse_bounds(self):
        """(trapezoid, exact) pulse energies on the config's time grid."""
        t = self.times()
        k = np.asarray(self.k, dtype=float)[..., None]
        p = np.asarray(self.i_over_f, dtype=float)[..., None]
        trap = np.trapezoid(p * f_beta(k * t), t, axis=-1)
        t0, t1 = t[0], t[-1]
        exact = p[..., 0] * (t1 * g_beta(k[..., 0] * t1) - t0 * g_beta(k[..., 0] * t0))
        return trap, exact


def tau_of(cfg):
    """Depletion time of a config, or None when nothing depletes."""
    tau = float(Physics(cfg).tau)
    return None if math.isnan(tau) else tau


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _half_unit(x):
    """Half a unit in the ninth significant digit of |x| (0 where x is 0)."""
    a = np.abs(np.asarray(x, dtype=float))
    with np.errstate(divide="ignore"):
        exp = np.floor(np.log10(np.where(a > 0, a, 1.0)))
    return np.where(a > 0, 0.5 * 10.0 ** (exp - 8) * (1.0 + 1e-9), 0.0)


def close(printed, exact, rel):
    """Elementwise: printed matches exact to rel plus the 9-digit rounding."""
    p = np.asarray(printed, dtype=float)
    x = np.asarray(exact, dtype=float)
    tol = rel * np.abs(x) + _half_unit(np.maximum(np.abs(x), np.abs(p)))
    return np.abs(p - x) <= tol


class Report:
    """Failures and regime counts gathered while checking one operation."""

    def __init__(self):
        self.failures = []
        self.rows = 0
        self.regimes = {}

    def expect(self, ok, what):
        ok = np.asarray(ok)
        if not ok.all():
            bad = int(ok.size - np.count_nonzero(ok))
            self.failures.append(f"{what} ({bad} of {ok.size} values)")

    def count(self, key, n):
        self.regimes[key] = self.regimes.get(key, 0) + int(n)

    def count_betas(self, beta):
        beta = np.asarray(beta)
        self.count("f_evals", beta.size)
        self.count("f_series_branch", np.count_nonzero(beta < SERIES_CUTOFF))
        self.count("beta_deep", np.count_nonzero(beta > DEEP_BETA))


def parse_summary(text):
    record = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            record[key] = value
    return record


def _num(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _check_record(rep, record, expected):
    """expected: key -> str (exact text), float (REL), or None (no_depletion).
    Keys the record adds beyond these are diagnostics and are not checked."""
    missing = [key for key in expected if key not in record]
    if missing:
        rep.failures.append(f"summary lacks {missing}")
        return
    for key, want in expected.items():
        got = record[key]
        if isinstance(want, str):
            rep.expect(got == want, f"{key} = {got!r}, expected {want!r}")
        elif want is None:
            rep.expect(got == NO_DEPLETION, f"{key} = {got!r}, expected {NO_DEPLETION}")
        else:
            value = _num(got)
            rep.expect(math.isfinite(value), f"{key} = {got!r} is not finite")
            rep.expect(close(value, want, REL), f"{key} = {got}, oracle {want!r}")


def _table(rep, text, header, ncols):
    lines = text.split("\n", 1)
    if lines[0] != header:
        rep.failures.append(f"header {lines[0]!r} != {header!r}")
        return None
    body = lines[1] if len(lines) > 1 else ""
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        rep.failures.append(f"unparsable CSV body: {exc}")
        return None
    if data.shape[1] != ncols:
        rep.failures.append(f"{data.shape[1]} columns, expected {ncols}")
        return None
    return data


def _check_f(rep, beta_p, f_p, what):
    """f_p matches the closed form at the emitted beta: f is monotone, so the
    true value lies between f at the two rounding limits of the printed beta."""
    hu = _half_unit(beta_p)
    hi = f_beta(np.maximum(beta_p - hu, 0.0))
    lo = f_beta(beta_p + hu)
    tol = REL_F * hi + _half_unit(f_p)
    rep.expect((f_p >= lo - tol) & (f_p <= hi + tol), f"{what}: f_beta off the closed form")
    rep.expect((f_p > 0) & (f_p <= 1.0 / 3.0), f"{what}: f_beta outside (0, 1/3]")


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_scenario(rep, cfg, csv_text, summary_text):
    phys = Physics(cfg)
    n = cfg.get("time_steps", DEFAULTS["time_steps"])
    data = _table(rep, csv_text, SCENARIO_HEADER, 6)
    if data is not None:
        rep.rows += data.shape[0]
        rep.expect(data.shape[0] == n, f"{data.shape[0]} rows, expected {n}")
        rep.expect(np.isfinite(data), "non-finite value in scenario CSV")
    if data is not None and data.shape[0] == n:
        t_p, fmw_p, beta_p, f_p, i_p, eta_p = data.T
        t = phys.times()
        beta = phys.k * t
        f = f_beta(beta)
        rep.count_betas(beta)
        rep.count("zero_flux", n if phys.s == 0 else 0)
        rep.count(f"ratio_{phys.cfg['ratio_mode']}", n)
        rep.expect(close(t_p, t, REL_F), "time grid")
        rep.expect(close(fmw_p, phys.drive_mhz, REL_F), "drive frequency column")
        rep.expect(close(beta_p, beta, REL), "beta column")
        _check_f(rep, beta_p, f_p, "scenario")
        rep.expect(close(i_p, phys.i_over_f * f, REL), "I_total column")
        rep.expect(close(eta_p, phys.eta_over_f * f, REL), "eta column")
        rep.expect(np.all(np.diff(eta_p) <= 0), "eta increases with t")
    c = phys.cfg
    tau = float(phys.tau)
    _check_record(rep, parse_summary(summary_text), {
        "channel": cfg["channel"],
        "microwave_resonance_mhz": CHANNELS[cfg["channel"]][0],
        "microwave_drive_mhz": float(phys.drive_mhz),
        "detuning_mhz": c["detuning_mhz"],
        "flux_w_cm2": c["flux_w_cm2"],
        "field_e0_statv_cm": math.sqrt(phys.e0sq),
        "decrement": float(phys.dec),
        "ratio": phys.ratio,
        "rho22_initial": c["rho22_initial"],
        "n_atoms": phys.n_atoms,
        "n31": phys.n31,
        "gamma31_per_s": GAMMA31,
        "eta_peak": float(phys.eta_peak()),
        "tau_s": None if math.isnan(tau) else tau,
        "sigma_max_cm2": phys.sigma_max,
    })


def sweep_grid(lo, hi, steps, log):
    if log:
        return np.logspace(math.log10(lo), math.log10(hi), steps)
    return np.linspace(lo, hi, steps)


def check_sweep(rep, cfg, sweep, csv_text, summary_text):
    param, lo, hi, steps, log, objective = sweep
    lines = csv_text.split("\n")
    header = [f"{param}[{SWEEP_UNITS[param]}]", f"{objective}[{OBJECTIVE_UNITS[objective]}]"]
    if lines[0].split(",")[:2] != header:
        rep.failures.append(f"header {lines[0]!r} does not start with {header}")
        return
    # Columns after the first two are diagnostics and are not checked.
    rows = [line.split(",")[:2] for line in lines[1:] if line]
    rep.rows += len(rows)
    if len(rows) != steps or any(len(r) != 2 for r in rows):
        rep.failures.append(f"{len(rows)} rows, expected {steps} rows of at least 2 fields")
        return
    x = sweep_grid(lo, hi, steps, log)
    phys = Physics({**cfg, param: x})
    x_p = np.array([_num(r[0]) for r in rows])
    marker = np.array([r[1] == NO_DEPLETION for r in rows])
    y_p = np.array([_num(r[1]) for r in rows])
    rep.expect(close(x_p, x, REL_F), "sweep grid")
    rep.expect(np.isfinite(x_p) & (np.isfinite(y_p) | marker), "non-finite value in sweep CSV")
    rep.count("zero_flux", np.count_nonzero(np.broadcast_to(phys.s, x.shape) == 0))
    rep.count(f"ratio_{phys.cfg['ratio_mode']}", steps)
    none = np.zeros(steps, dtype=bool)
    if objective == "tau":
        want = np.broadcast_to(phys.tau, x.shape)
        none = np.isnan(want)
        rep.count("no_depletion", np.count_nonzero(none))
        rep.expect(marker == none, "no_depletion markers")
        rep.expect(close(y_p[~none], want[~none], REL), "tau objective")
    elif objective == "eta_max_peak":
        rep.expect(~marker, "unexpected no_depletion marker")
        rep.count_betas(np.zeros(steps))
        want = np.broadcast_to(phys.eta_peak(), x.shape)
        rep.expect(close(y_p, want, REL), "eta_max_peak objective")
    else:
        rep.expect(~marker, "unexpected no_depletion marker")
        rep.count_betas(np.asarray(phys.k)[..., None] * phys.times())
        trap, exact = (np.broadcast_to(v, x.shape) for v in phys.pulse_bounds())
        lo_e, hi_e = np.minimum(trap, exact), np.maximum(trap, exact)
        tol = REL * hi_e + _half_unit(y_p)
        rep.expect((y_p >= lo_e - tol) & (y_p <= hi_e + tol),
                   "pulse_energy outside the trapezoid/exact-G interval")
    record = parse_summary(summary_text)
    missing = [k for k in ("parameter", "objective", "argmax", "objective_max") if k not in record]
    if missing:
        rep.failures.append(f"argmax record lacks {missing}")
        return
    rep.expect(record["parameter"] == param and record["objective"] == objective,
               "argmax record names")
    if none.all():
        rep.expect(record["argmax"] == NO_DEPLETION and record["objective_max"] == NO_DEPLETION,
                   "argmax record for an all-no_depletion sweep")
        return
    # The rows are already checked against the oracle; the record must name
    # the row holding the largest emitted objective.
    rep.expect(_num(record["objective_max"]) == np.max(y_p[~none]), "objective_max")
    rep.expect([record["argmax"], record["objective_max"]] in rows, "argmax is not an emitted row")


def check_fig1(rep, beta_max, steps, csv_text):
    data = _table(rep, csv_text, FIG1_HEADER, 4)
    if data is None:
        return
    rep.rows += data.shape[0]
    if data.shape[0] != steps:
        rep.failures.append(f"{data.shape[0]} rows, expected {steps}")
        return
    beta_p, f_p, small_p, large_p = data.T
    beta = np.linspace(0.0, beta_max, steps)
    rep.count_betas(beta)
    # The large-beta asymptote is infinite at beta = 0 by definition; every
    # other emitted number must be finite.
    finite = np.isfinite(data)
    finite[0, 3] = True
    rep.expect(finite, "non-finite value in fig1 CSV")
    rep.expect(close(beta_p, beta, REL_F), "fig1 beta grid")
    _check_f(rep, beta_p, f_p, "fig1")
    rep.expect(close(small_p, np.exp(-beta / 2.0) / 3.0, REL_F), "small-beta approximation")
    with np.errstate(divide="ignore"):
        large = math.sqrt(math.pi) / 4.0 * beta**-1.5
    rep.expect(np.isinf(large_p[0]) & close(large_p[1:], large[1:], REL_F),
               "large-beta approximation")


def check_constants(rep, stdout_text):
    _check_record(rep, parse_summary(stdout_text), CONSTANTS)


def check_transition(rep, channel, stdout_text):
    resonance, (upper, lower) = CHANNELS[channel]
    omega_mw = 2.0 * math.pi * 1.0e6 * resonance
    _check_record(rep, parse_summary(stdout_text), {
        "channel": channel,
        "microwave_upper": upper,
        "microwave_lower": lower,
        "microwave_resonance_mhz": resonance,
        "optical_wavelength_nm": LAMBDA31 / 1.0e-7,
        "dipole_mw_z_e_a0": ANGULAR_SP * abs(R_2S2P),
        "dipole_optical_z_e_a0": ANGULAR_SP * R_1S2P,
        "dipole_ratio_hydrogenic": RATIO_HYDROGENIC,
        "gamma31_per_s": GAMMA31,
        "lifetime31_s": 1.0 / GAMMA31,
        "lifetime_metastable_s": 1.0 / 7.0,
        "decrement_at_resonance": 1.0 + GAMMA31**2 / (GAMMA31**2 + 4.0 * omega_mw**2),
    })
