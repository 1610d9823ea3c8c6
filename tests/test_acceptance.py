"""Acceptance suite: each test exercises one exit criterion at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see the lines
for passing criteria too).
"""

import math
import time

import numpy as np

import oracles
from mwoptical.coupling import coupling_element
from mwoptical.dynamics import intensity_full, intensity_weak
from mwoptical.ensemble import (
    EnsembleConfig,
    depletion_time,
    evaluate,
    f_beta,
    f_beta_approx_large,
    f_beta_approx_small,
    sigma_max,
)
from mwoptical.hydrogen import (
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    mode,
    radial_dipole_integral,
)
from mwoptical.cli import fig1_rows, format_scenario, parse_config, run_scenario
from mwoptical.units import C_CM_S, flux_si_to_cgs


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{label}]: {status}  {detail}".rstrip())


def test_criterion_1_depletion_curve_reproduction():
    start = time.perf_counter()
    header, rows = fig1_rows(100.0, 1001)
    elapsed = time.perf_counter() - start

    f0 = rows[0][1]
    exact = [row[1] for row in rows]
    decreasing = all(a > b for a, b in zip(exact, exact[1:]))
    f6 = rows[60][1]          # beta grid step is 0.1
    drop = f0 / f6
    worst_oracle = max(abs(row[1] - oracles.f_beta_quad(row[0])) for row in rows)

    ok = (abs(f0 - 1.0 / 3.0) <= 1e-12 and decreasing and 10.0 <= drop <= 12.0
          and worst_oracle <= 1e-10 and elapsed < 1.0)
    _report(1, "depletion curve", ok,
            f"f(0) err={abs(f0 - 1/3):.2e}, drop f(0)/f(6)={drop:.3f}, "
            f"max |exact-oracle|={worst_oracle:.2e}, runtime={elapsed:.3f}s")
    assert abs(f0 - 1.0 / 3.0) <= 1e-12
    assert decreasing
    assert 10.0 <= drop <= 12.0
    assert worst_oracle <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_asymptotics():
    def rel_err(approx, beta):
        exact = oracles.f_beta_quad(beta)
        return abs(approx(beta) - exact) / exact

    far = max(rel_err(f_beta_approx_large, float(b)) for b in np.linspace(10.0, 100.0, 181))
    mid = max(rel_err(f_beta_approx_large, float(b)) for b in np.linspace(4.0, 10.0, 121))
    small_errs = [(rel_err(f_beta_approx_small, float(b)), float(b))
                  for b in np.linspace(0.0, 4.0, 401)]
    small, small_at = max(small_errs)

    ok = far <= 0.05 and mid <= 0.12 and small <= 0.10
    _report(2, "asymptotics", ok,
            f"large-beta: {far:.4f} (<=0.05 on [10,100]), {mid:.4f} (<=0.12 on [4,10]); "
            f"small-beta: {small:.4f} at beta={small_at} (stated <=0.10 on [0,4])")
    assert far <= 0.05, f"large-beta asymptote error {far:.4f} exceeds 5% on [10, 100]"
    assert mid <= 0.12, f"large-beta asymptote error {mid:.4f} exceeds 12% on [4, 10]"
    # Known-red clause: (1/3)exp(-beta/2) genuinely reaches 14.6% relative
    # error at beta = 4 (crossing 10% near beta ~ 3.7), so a 10% bound over
    # the full [0, 4] interval cannot hold; kept as stated rather than widened.
    assert small <= 0.10, (
        f"small-beta approximation error {small:.4f} at beta={small_at} exceeds "
        "the stated 10% tolerance on [0, 4]")


def test_criterion_3_worked_example():
    cfg = EnsembleConfig(length=10.0, area=1.0, gas_density=0.9e-4, rho22_0=1.0e-4, ratio=1.0)
    n31 = cfg.n31
    eta_peak = sigma_max(cfg, 0.0) / cfg.area
    prefactor = eta_peak / (cfg.rho22_0 * f_beta(0.0))

    ok = (abs(n31 - 0.8e11) / 0.8e11 <= 0.03
          and abs(prefactor - 4.0e10) / 4.0e10 <= 0.10
          and eta_peak >= 1.0e6)
    _report(3, "worked example", ok,
            f"n31={n31:.4e} (0.8e11 +-3%), prefactor={prefactor:.4e} (4e10 +-10%), "
            f"eta_peak={eta_peak:.4e} (>=1e6)")
    assert abs(n31 - 0.8e11) / 0.8e11 <= 0.03
    assert abs(prefactor - 4.0e10) / 4.0e10 <= 0.10
    assert eta_peak >= 1.0e6


def test_criterion_4_lifetime():
    up, lo = mode("2p3/2"), mode("1s1/2")
    gamma = decay_rate(up.omega - lo.omega, effective_dipole(up, lo))   # sublevel-summed
    lifetime = 1.0 / gamma
    ok = abs(lifetime - 1.6e-9) / 1.6e-9 <= 0.05
    _report(4, "2p lifetime", ok,
            f"gamma={gamma:.4e}/s, lifetime={lifetime:.4e}s (1.6e-9 +-5%)")
    assert ok, f"lifetime {lifetime:.4e} s outside 5% of 1.6e-9 s"


def test_criterion_5_algebra_chain_equivalence():
    rng = np.random.default_rng(20240610)
    worst = 0.0
    for _ in range(1000):
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
        scale = max(abs(full), abs(weak), 1e-300)
        worst = max(worst, abs(full - weak) / scale)

    ok = worst <= 1e-12
    _report(5, "algebra-chain equivalence", ok,
            f"max relative deviation over 1000 draws: {worst:.2e} (<=1e-12)")
    assert ok, f"flux-form and coupling-form intensities diverge by {worst:.2e}"


def test_criterion_6_beta_tau_consistency():
    rng = np.random.default_rng(7)

    def vessel(ratio):
        return EnsembleConfig(length=10.0, area=1.0, gas_density=0.9e-4,
                              rho22_0=1.0e-4, ratio=ratio)

    def beta_at(ratio, s_mw, dec, t):
        return evaluate(vessel(ratio), s_mw, dec, (t,))[0][1]

    up, lo, metastable = mode("2p3/2"), mode("1s1/2"), mode("2s1/2")
    omega31 = up.omega - lo.omega
    worst = 0.0
    for dipole in (effective_dipole, dipole_matrix_element):   # sublevel-summed, then bare m = 0
        d31, d32 = dipole(up, lo), dipole(up, metastable)
        gamma31 = decay_rate(omega31, d31)
        ratio = (d32 / d31) ** 2
        for _ in range(200):
            e0 = float(rng.uniform(1e-3, 10.0))
            dec = float(rng.uniform(1e-3, 2.0))
            t = float(rng.uniform(0.0, 1e-4))
            b32 = coupling_element(d32, e0, 0.0)
            exponent = b32 * b32 * dec * t / (2.0 * gamma31)
            direct = beta_at(ratio, C_CM_S * e0**2 / (8.0 * math.pi), dec, t)
            scale = max(direct, exponent, 1e-300)
            worst = max(worst, abs(direct - exponent) / scale)

    s_mw = flux_si_to_cgs(1.0)
    tau = depletion_time(vessel(1.0), s_mw, 1.0)
    beta_tau = beta_at(1.0, s_mw, 1.0, tau)

    ok = worst <= 1e-10 and 5.9 <= beta_tau <= 6.3
    _report(6, "beta/tau self-consistency", ok,
            f"max relative deviation: {worst:.2e} (<=1e-10); beta(tau)={beta_tau:.4f} in [5.9, 6.3]")
    assert worst <= 1e-10
    assert 5.9 <= beta_tau <= 6.3


def test_criterion_7_orientation_average_oracle():
    cfg = EnsembleConfig(length=10.0, area=1.0, gas_density=0.9e-4, rho22_0=1.0e-4, ratio=1.0)
    s_mw = flux_si_to_cgs(1.0)
    omega31 = 2.0 * math.pi * 2.99792458e10 / 1.22e-5

    def one_atom(theta):
        return intensity_weak(s_mw, theta, cfg.ratio, omega31, 1.0, cfg.rho22_0)

    brute = cfg.n_atoms * oracles.angular_average_quad(one_atom)
    closed = evaluate(cfg, s_mw, 1.0, (0.0,))[0][3]
    rel = abs(closed - brute) / brute

    ok = rel <= 1e-10
    _report(7, "orientation-average oracle", ok,
            f"closed={closed:.6e}, angular quadrature={brute:.6e}, rel={rel:.2e} (<=1e-10)")
    assert ok, f"ensemble average deviates from angular quadrature by {rel:.2e}"


def test_criterion_8_channel_symmetry():
    base = ("flux_w_cm2 = 1.0\nvessel_length_cm = 10.0\nvessel_area_cm2 = 1.0\n"
            "gas_density_g_cm3 = 0.9e-4\nrho22_initial = 1e-4\nratio_mode = unity\n"
            "time_stop_s = 1e-6\ntime_steps = 51\n")
    outputs = {}
    summaries = {}
    for channel in ("fine_structure", "lamb_shift"):
        cfg = parse_config(f"channel = {channel}\n" + base)
        series, summary = run_scenario(cfg)
        outputs[channel] = format_scenario(series, summary)
        summaries[channel] = {k: v for k, v in summary.items()
                              if k not in ("channel", "microwave_resonance_mhz",
                                           "microwave_drive_mhz")}

    def drop_freq_column(text):
        lines = []
        for line in text.splitlines():
            cells = line.split(",")
            del cells[1]   # the f_mw[MHz] column
            lines.append(",".join(cells))
        return "\n".join(lines)

    differ = outputs["fine_structure"] != outputs["lamb_shift"]
    stripped_fine = drop_freq_column(outputs["fine_structure"])
    stripped_lamb = drop_freq_column(outputs["lamb_shift"])
    identical = stripped_fine.encode() == stripped_lamb.encode()
    summaries_match = summaries["fine_structure"] == summaries["lamb_shift"]

    ok = differ and identical and summaries_match
    _report(8, "channel symmetry", ok,
            "CSV byte-identical after dropping the frequency column; "
            "summaries identical minus frequency metadata")
    assert differ, "frequency metadata should differ between channels"
    assert identical, "eta columns differ between the two channels"
    assert summaries_match


def test_criterion_9_dipole_oracle():
    lib_1s2p = radial_dipole_integral((1, 0), (2, 1))
    lib_2s2p = radial_dipole_integral((2, 0), (2, 1))
    orc_1s2p = oracles.radial_integral_quad((1, 0), (2, 1))
    orc_2s2p = oracles.radial_integral_quad((2, 0), (2, 1))
    rel_a = abs(lib_1s2p - orc_1s2p) / abs(orc_1s2p)
    rel_b = abs(lib_2s2p - orc_2s2p) / abs(orc_2s2p)
    # and the oracle itself sits on the closed-form values
    anchored = (abs(orc_1s2p - 1.2902662019598634) <= 1e-9
                and abs(orc_2s2p - (-3.0 * math.sqrt(3.0))) <= 1e-9)

    ok = rel_a <= 1e-6 and rel_b <= 1e-6 and anchored
    _report(9, "dipole oracle", ok,
            f"(1s,2p): lib={lib_1s2p:.10f} vs oracle={orc_1s2p:.10f} (rel {rel_a:.2e}); "
            f"(2s,2p): lib={lib_2s2p:.10f} vs oracle={orc_2s2p:.10f} (rel {rel_b:.2e})")
    assert rel_a <= 1e-6
    assert rel_b <= 1e-6
    assert anchored
