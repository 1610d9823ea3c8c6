import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from mwoptical import cli
from mwoptical.cli import (
    ConfigError,
    SweepSpec,
    fig1_rows,
    format_csv,
    format_scenario,
    format_summary,
    main,
    parse_config,
    run_scenario,
    run_sweep,
)
from mwoptical.ensemble import depletion_time, evaluate, pulse_energy
from mwoptical.units import freq_mhz_to_angular

WORKED_VESSEL = """\
# worked-example vessel
channel = fine_structure
flux_w_cm2 = 1.0
vessel_length_cm = 10.0
vessel_area_cm2 = 1.0
gas_density_g_cm3 = 0.9e-4
rho22_initial = 1e-4
ratio_mode = unity
time_stop_s = 1e-6
time_steps = 11
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config("channel = fine_structure\n")
    assert cfg.detuning_mhz == 0.0
    assert freq_mhz_to_angular(cfg.drive_frequency_mhz) \
        == pytest.approx(2.0 * math.pi * 1.0949e10, rel=1e-12)
    assert cfg.ratio == 1.0


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config("\n# a comment\nchannel = lamb_shift  # trailing comment\n\n")
    assert cfg.channel == "lamb_shift"
    assert cfg.microwave_resonance_mhz == 1057.77


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown configuration keys: foo"):
        parse_config("channel = fine_structure\nfoo = 3\n")


def test_parse_config_rejects_negative_density():
    with pytest.raises(ConfigError, match="gas_density_g_cm3"):
        parse_config("channel = fine_structure\ngas_density_g_cm3 = -1e-4\n")


def test_parse_config_names_line_on_parse_failure():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("channel = fine_structure\njust words\n")
    with pytest.raises(ConfigError, match="line 3.*flux_w_cm2.*not a number"):
        parse_config("channel = fine_structure\n\nflux_w_cm2 = fast\n")


def test_parse_config_rejects_duplicates_and_missing_channel():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("channel = fine_structure\nchannel = lamb_shift\n")
    with pytest.raises(ConfigError, match="missing required key: channel"):
        parse_config("flux_w_cm2 = 1\n")
    with pytest.raises(ConfigError, match="channel: must be one of fine_structure, lamb_shift"):
        parse_config("channel = nowhere\n")


def test_parse_config_ratio_modes():
    cfg = parse_config("channel = fine_structure\nratio_mode = hydrogenic\n")
    assert cfg.ratio == pytest.approx(3**12 / 2**15, rel=1e-6)
    cfg = parse_config("channel = fine_structure\nratio_mode = custom\nratio_value = 2.5\n")
    assert cfg.ratio == 2.5
    with pytest.raises(ConfigError, match="ratio_value: required"):
        parse_config("channel = fine_structure\nratio_mode = custom\n")
    with pytest.raises(ConfigError, match="only valid"):
        parse_config("channel = fine_structure\nratio_value = 2.5\n")
    with pytest.raises(ConfigError, match="ratio_mode: must be one of unity, hydrogenic, custom"):
        parse_config("channel = fine_structure\nratio_mode = other\n")


def test_parse_config_time_grid_validation():
    with pytest.raises(ConfigError, match="monotone"):
        parse_config("channel = fine_structure\ntime_start_s = 1e-6\ntime_stop_s = 1e-7\n")
    with pytest.raises(ConfigError, match="time_steps"):
        parse_config("channel = fine_structure\ntime_steps = 1\n")
    with pytest.raises(ConfigError, match="time_start_s: must be finite and >= 0, got -1.0"):
        parse_config("channel = fine_structure\ntime_start_s = -1\n")
    with pytest.raises(ConfigError, match="line 2: time_steps: not an integer: '1.5'"):
        parse_config("channel = fine_structure\ntime_steps = 1.5\n")


def test_config_stores_no_negative_zero_factor(tmp_path, capsys):
    # a -0.0 flux, ratio or rho22(0) carried its sign into every product it scales
    # and printed -0 at exit 0; the config stores +0.0
    cfg = parse_config("channel = fine_structure\nflux_w_cm2 = -0.0\nrho22_initial = -0.0\n"
                       "ratio_mode = custom\nratio_value = -0.0\n")
    for value in (cfg.flux_w_cm2, cfg.rho22_initial, cfg.ratio_value,
                  cfg.replace(rho22_initial=-0.0).rho22_initial):
        assert math.copysign(1.0, value) == 1.0
    path = tmp_path / "run.cfg"
    path.write_text("channel = fine_structure\nratio_mode = custom\nratio_value = -0.0\n")
    for objective in ("pulse_energy", "eta_max_peak"):
        assert main(["sweep", "--config", str(path), "--param", "flux_w_cm2", "--min", "1",
                     "--max", "2", "--steps", "2", "--objective", objective]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == ["1.00000000e+00,0.00000000e+00",
                                                 "2.00000000e+00,0.00000000e+00"]
        assert "objective_max = 0.00000000e+00\n" in captured.err


def test_config_rejects_unphysical_drive_frequency():
    with pytest.raises(ConfigError, match="detuning_mhz"):
        parse_config("channel = lamb_shift\ndetuning_mhz = -2000\n")


# ---------------------------------------------------------------------------
# fig1 table
# ---------------------------------------------------------------------------

def test_fig1_rows_values():
    header, rows = fig1_rows(10.0, 11)
    assert header[0].startswith("beta") and all("[" in h for h in header)
    assert rows[0][1] == pytest.approx(1.0 / 3.0, abs=1e-12)
    row6 = rows[6]   # beta = 6.0
    assert row6[0] == 6.0
    assert row6[1] == pytest.approx(0.02992744959808268, rel=1e-10)
    row10 = rows[10]  # beta = 10.0
    assert 0.95 <= row10[3] / row10[1] <= 1.05


def test_fig1_rejects_invalid_grid():
    with pytest.raises(ConfigError):
        fig1_rows(0.0, 10)
    with pytest.raises(ConfigError):
        fig1_rows(5.0, 1)


# ---------------------------------------------------------------------------
# scenario runner
# ---------------------------------------------------------------------------

def test_scenario_summary_worked_example():
    cfg = parse_config(WORKED_VESSEL)
    series, summary = run_scenario(cfg)
    assert summary["n31"] == pytest.approx(0.8e11, rel=0.03)
    assert summary["eta_peak"] == pytest.approx(1.2739373591493357e6, rel=1e-10)
    # peak efficiency ~ prefactor * rho22 * f(0) with prefactor ~ 4e10 (rounded)
    assert summary["eta_peak"] == pytest.approx(4.0e10 * 1e-4 * (1 / 3), rel=0.10)
    assert summary["eta_peak"] >= 1.0e6
    assert series[0][4] == summary["eta_peak"]


def test_scenario_zero_drive():
    cfg = parse_config("channel = fine_structure\nflux_w_cm2 = 0.0\n")
    series, summary = run_scenario(cfg)
    assert all(row[3] == 0.0 and row[4] == 0.0 for row in series)
    assert summary["tau_s"] is None
    assert "tau_s = no_depletion" in format_summary(summary)


def test_scenario_headers_carry_units():
    cfg = parse_config(WORKED_VESSEL)
    header = format_scenario(*run_scenario(cfg)).split("\n", 1)[0]
    assert header == "t[s],f_mw[MHz],beta[-],f_beta[-],I_total[erg/s],eta[-]"


def test_scenario_deterministic_output():
    cfg = parse_config(WORKED_VESSEL)
    first = format_scenario(*run_scenario(cfg))
    second = format_scenario(*run_scenario(cfg))
    assert first == second


def test_scenario_rows_match_depletion_curve():
    cfg = parse_config(WORKED_VESSEL)
    series, summary = run_scenario(cfg)
    # beta at tau sits near 6 and the oracle agrees with the f column
    tau = summary["tau_s"]
    assert tau == pytest.approx(1.38550312e-7, rel=1e-8)
    for t, beta, f_value, intensity, eta in series[:5]:
        assert f_value == pytest.approx(oracles.f_beta_quad(beta), abs=1e-12)
        assert eta == pytest.approx(intensity / (cfg.vessel_area_cm2 * 1e7), rel=1e-12)


def test_channel_symmetry():
    base = "vessel_length_cm = 10.0\nrho22_initial = 1e-4\nratio_mode = unity\ntime_steps = 7\n"
    fine = parse_config("channel = fine_structure\n" + base)
    lamb = parse_config("channel = lamb_shift\n" + base)
    csv_fine = format_scenario(*run_scenario(fine))
    csv_lamb = format_scenario(*run_scenario(lamb))
    assert csv_fine != csv_lamb  # the frequency column differs

    def drop_freq_column(text):
        lines = []
        for line in text.splitlines():
            cells = line.split(",")
            del cells[1]
            lines.append(",".join(cells))
        return "\n".join(lines)

    assert drop_freq_column(csv_fine) == drop_freq_column(csv_lamb)


def test_csv_numeric_format_nine_significant_digits():
    cfg = parse_config(WORKED_VESSEL)
    text = format_scenario(*run_scenario(cfg))
    cell = text.splitlines()[1].split(",")[4]
    assert re.fullmatch(r"-?\d\.\d{8}e[+-]\d{2,3}", cell)


def _per_cell_csv(header, rows):
    lines = [",".join(header)] + [",".join(cli._format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_format_csv_row_template_matches_per_cell_format():
    # an all-float row goes through one "%.8e" template; it must print the bytes
    # of the per-cell f"{v:.8e}" at signed zeros, denormals, the extremes and nan
    edge = [0.0, -0.0, 5e-324, -2.5e-310, sys.float_info.max, -sys.float_info.max,
            math.inf, -math.inf, math.nan, 1.0, -123.456789012345]
    header = [f"c{i}[-]" for i in range(len(edge))]
    rows = [tuple(edge), tuple(reversed(edge))]
    assert format_csv(header, rows) == _per_cell_csv(header, rows)
    # rows holding None or str keep the per-cell path
    mixed = [(None, "x", 3.0, 1.5), (1.0, None, 2.0, 7.0), (0.5, 0.25, 0.125, 1.0)]
    text = format_csv(["a", "b", "c", "d"], mixed)
    assert text == _per_cell_csv(["a", "b", "c", "d"], mixed)
    assert text.splitlines()[1:3] == ["no_depletion,x,3.00000000e+00,1.50000000e+00",
                                      "1.00000000e+00,no_depletion,2.00000000e+00,7.00000000e+00"]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_length_monotone_boundary_argmax():
    cfg = parse_config(WORKED_VESSEL)
    spec = SweepSpec("vessel_length_cm", 1.0, 100.0, 12, objective="eta_max_peak")
    header, rows, record = run_sweep(cfg, spec)
    assert record["argmax"] == pytest.approx(100.0)
    values = [obj for _, obj in rows]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sweep_detuning_peaks_at_resonance():
    cfg = parse_config(WORKED_VESSEL)
    spec = SweepSpec("detuning_mhz", -50.0, 50.0, 101, objective="eta_max_peak")
    header, rows, record = run_sweep(cfg, spec)
    step = rows[1][0] - rows[0][0]
    assert abs(record["argmax"] - 0.0) <= step


def test_sweep_tau_inverse_in_flux():
    cfg = parse_config(WORKED_VESSEL)
    spec = SweepSpec("flux_w_cm2", 0.1, 100.0, 16, log=True, objective="tau")
    header, rows, record = run_sweep(cfg, spec)
    logs = np.log([row[0] for row in rows])
    logt = np.log([row[1] for row in rows])
    slope = np.polyfit(logs, logt, 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_sweep_pulse_energy_bounded_by_excited_population():
    # over a long window the emitted energy approaches N * rho22(0) * hbar * omega31
    cfg = parse_config(
        "channel = fine_structure\ntime_stop_s = 3e-5\ntime_steps = 20001\n")
    spec = SweepSpec("flux_w_cm2", 0.5, 1.0, 2, objective="pulse_energy")
    _, rows, _ = run_sweep(cfg, spec)
    _, summary = run_scenario(cfg)
    budget = summary["n_atoms"] * 1e-4 * 1.054571817e-27 * 1.5439766945154534e16
    for _, energy in rows:
        assert 0.9 * budget < energy <= 1.001 * budget
    # the energy is the exact integral over the window; the grid does not enter
    assert run_sweep(parse_config("channel = fine_structure\ntime_stop_s = 3e-5\n"
                                  "time_steps = 2\n"), spec)[1] == rows


def test_sweep_validation():
    cfg = parse_config(WORKED_VESSEL)
    with pytest.raises(ConfigError, match="unknown"):
        SweepSpec("vessel_volume", 1.0, 2.0, 5)
    with pytest.raises(ConfigError, match="range"):
        SweepSpec("flux_w_cm2", 2.0, 1.0, 5)
    with pytest.raises(ConfigError, match="log spacing"):
        SweepSpec("detuning_mhz", -1.0, 1.0, 5, log=True)
    with pytest.raises(ConfigError, match="objective"):
        SweepSpec("flux_w_cm2", 1.0, 2.0, 5, objective="entropy")


def test_sweep_no_depletion_marker_in_csv():
    cfg = parse_config(WORKED_VESSEL)
    spec = SweepSpec("flux_w_cm2", 0.0, 1.0, 3, objective="tau")
    header, rows, record = run_sweep(cfg, spec)
    text = format_csv(header, rows)
    assert "no_depletion" in text.splitlines()[1]
    assert record["argmax"] == 0.5   # smallest positive flux maximizes tau


# objective -> its value from the records of a scenario, by the public functions
RECORD_OBJECTIVES = {
    "eta_max_peak": lambda cfg, drive, decrement, ens:
        evaluate(ens, drive, decrement, (0.0,))[0][4],
    "pulse_energy": lambda cfg, drive, decrement, ens:
        pulse_energy(ens, drive, decrement, cfg.time_start_s, cfg.time_stop_s),
    "tau": lambda cfg, drive, decrement, ens: depletion_time(ens, drive, decrement),
}


def _per_point_sweep(cfg, spec):
    """Reference sweep: validate and rebuild the whole scenario, records and all, at
    every grid point, and evaluate the objective by its public function.  Like
    ``run_sweep`` it first checks the config at the grid's extremes and builds the
    physics at the lowest point, whose errors name no point; every later error
    names its point."""
    grid = spec.grid()
    lowest = cfg.replace(**{spec.parameter: min(grid)})
    cfg.replace(**{spec.parameter: max(grid)})
    cli._scenario_physics(lowest)
    rows = []
    for value in grid:
        try:
            sub = cfg.replace(**{spec.parameter: value})
            rows.append((value, RECORD_OBJECTIVES[spec.objective](
                sub, *cli._scenario_physics(sub))))
        except ValueError as exc:
            raise type(exc)(f"{spec.parameter} = {value}: {exc}") from None
    scored = [row for row in rows if row[1] is not None]
    argmax, best = max(scored, key=lambda row: row[1]) if scored else (cli.NO_DEPLETION,) * 2
    return rows, {"parameter": spec.parameter, "objective": spec.objective,
                  "argmax": argmax, "objective_max": best}


# parameter -> (linear range, log range); the linear flux range starts at zero
# drive, and bounds that are not round numbers put inexact floats on every grid
SWEEP_RANGES = {
    "flux_w_cm2": ((0.0, 97.3), (1.3e-3, 870.0)),
    "rho22_initial": ((1.7e-5, 9.1e-3), (1.3e-7, 0.087)),
    "vessel_length_cm": ((1.3, 97.1), (0.13, 870.0)),
    "gas_density_g_cm3": ((1.1e-6, 9.7e-4), (1.3e-7, 8.9e-3)),
    "detuning_mhz": ((-487.3, 512.9), (0.13, 970.0)),
}
RATIO_LINES = ["ratio_mode = unity", "ratio_mode = hydrogenic",
               "ratio_mode = custom\nratio_value = 2.5"]


@pytest.mark.parametrize("ratio_line", RATIO_LINES)
@pytest.mark.parametrize("parameter", sorted(SWEEP_RANGES))
def test_sweep_equals_per_point_reference_bit_for_bit(parameter, ratio_line):
    cfg = parse_config(WORKED_VESSEL.replace("ratio_mode = unity", ratio_line)
                       + "detuning_mhz = 3.0\n")
    for log, (lo, hi) in zip((False, True), SWEEP_RANGES[parameter]):
        for objective in cli.OBJECTIVES:
            spec = SweepSpec(parameter, lo, hi, 13, log=log, objective=objective)
            _, rows, record = run_sweep(cfg, spec)
            want_rows, want_record = _per_point_sweep(cfg, spec)
            assert repr(rows) == repr(want_rows), (log, objective)
            assert repr(record) == repr(want_record), (log, objective)
            if (parameter, log, objective) == ("flux_w_cm2", False, "tau"):
                assert rows[0] == (0.0, None)   # zero drive: no_depletion


@pytest.mark.parametrize("parameter, line", [("flux_w_cm2", "flux_w_cm2 = 1e305"),
                                             ("detuning_mhz", "detuning_mhz = 1e303")])
def test_sweep_ignores_the_swept_parameter_of_the_config(parameter, line):
    # the config's own flux (or detuning) overflows the drive (or the lineshape's
    # delta^2), but the sweep replaces it
    message = {"flux_w_cm2": "field amplitude must be finite",
               "detuning_mhz": "detuning lineshape underflows to 0"}[parameter]
    cfg = parse_config(f"channel = fine_structure\n{line}\n")
    with pytest.raises(ValueError, match=message):
        run_scenario(cfg)
    spec = SweepSpec(parameter, 1.0, 10.0, 4, objective="pulse_energy")
    assert repr(run_sweep(cfg, spec)[1]) == repr(_per_point_sweep(cfg, spec)[0])


def test_detuning_decrement_is_the_lineshape_at_the_signed_detuning():
    # the decrement reads |detuning|: every bit equals the signed expression's
    gamma = cli._GAMMA_31
    for detuning in (0.0, -0.0, 5e-324, -3.0, 3.0, -487.3, 512.9, -1e6, 2.1e147, -2.1e147):
        want = cli.detuning_lineshape(2.0 * math.pi * 1.0e6 * detuning, gamma)
        assert cli._decrement(detuning).hex() == want.hex(), detuning


@pytest.mark.parametrize("args, message", [
    (["--param", "rho22_initial", "--min", "0.5", "--max", "2"],
     "rho22_initial: must lie in [0, 1], got 2.0"),
    (["--param", "detuning_mhz", "--min=-2e4", "--max", "0"],
     "detuning_mhz: drive frequency -9051.0 MHz must be finite and positive"),
    # an earlier point's field overflows (exit 3 were each point checked in turn),
    # but the last point is inf, out of range: the grid is rejected first
    (["--param", "flux_w_cm2", "--min", "1", "--max", repr(sys.float_info.max), "--log"],
     "flux_w_cm2: must be finite and >= 0, got inf"),
    # the range's width overflows, so no evenly spaced grid exists
    (["--param", "detuning_mhz", "--min=-1.7e308", "--max", "1.7e308"],
     "sweep range: the width of min -1.7e+308 to max 1.7e+308 overflows"),
])
def test_sweep_rejects_a_grid_whose_extreme_is_out_of_range(tmp_path, capsys, args, message):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    assert main(["sweep", "--config", str(config), *args, "--steps", "100",
                 "--objective", "pulse_energy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_linspace_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(5)
    # denormal steps (the step of (0, 1e-323, 5) underflows to 0), num = 2, negative
    # starts, a typical time grid and a range whose width overflows
    cases = [(0.0, 1e-320, 5), (0.0, 1e-323, 5), (0.0, 5e-324, 3), (-3.5, 2.0, 2),
             (-1e-6, -1e-9, 7), (0.0, 1e-6, 101), (-1e300, 1e300, 9), (-1e308, 1e308, 3)]
    for _ in range(300):
        lo, hi = sorted(rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.integers(-30, 30, 2))
        cases.append((float(lo), float(hi), int(rng.integers(2, 2000))))
    for start, stop, num in cases:
        got = cli._linspace(start, stop, num)
        with np.errstate(over="ignore", invalid="ignore"):   # the overflowing widths
            want = np.linspace(start, stop, num).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want], (start, stop, num)


def test_log_grid_within_one_ulp_of_numpy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo, hi = sorted(10.0 ** rng.uniform(-30.0, 30.0, 2))
        steps = int(rng.integers(2, 500))
        got = SweepSpec("flux_w_cm2", float(lo), float(hi), steps, log=True).grid()
        want = np.logspace(math.log10(lo), math.log10(hi), steps).tolist()
        assert len(got) == steps
        assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))


def test_log_grid_overflow_is_a_config_error(tmp_path, capsys):
    # 10**log10(max) overflows for a max within rounding of the largest float: the
    # point is inf, which the swept config rejects (exit 2), never a traceback
    assert SweepSpec("flux_w_cm2", 1.0, sys.float_info.max, 3, log=True).grid()[-1] == math.inf
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    assert main(["sweep", "--config", str(config), "--param", "vessel_length_cm", "--min", "1",
                 "--max", repr(sys.float_info.max), "--steps", "3", "--log",
                 "--objective", "tau"]) == 2
    assert "vessel_length_cm: must be finite" in capsys.readouterr().err


def test_grid_sizes_are_bounded(tmp_path, capsys):
    # rejected in validation, before any grid is built
    huge = str(cli.MAX_GRID_POINTS + 1)
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    assert main(["fig1", "--beta-max", "6", "--steps", "1000000000000"]) == 2
    assert main(["fig1", "--beta-max", "6", "--steps", huge]) == 2
    assert main(["sweep", "--config", str(config), "--param", "flux_w_cm2", "--min", "0",
                 "--max", "1", "--steps", huge, "--objective", "tau"]) == 2
    big = tmp_path / "big.cfg"
    big.write_text("channel = fine_structure\ntime_steps = 1000000000000\n")
    assert main(["scenario", "--config", str(big)]) == 2
    assert capsys.readouterr().err.count(f"must lie in [2, {cli.MAX_GRID_POINTS}]") == 4
    assert SweepSpec("flux_w_cm2", 0.0, 1.0, cli.MAX_GRID_POINTS).steps == cli.MAX_GRID_POINTS


# ---------------------------------------------------------------------------
# command-line entry point
# ---------------------------------------------------------------------------

def test_main_fig1_to_file(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--beta-max", "6", "--steps", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("beta")
    assert len(lines) == 5


def test_main_scenario_files(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    out = tmp_path / "series.csv"
    summary = tmp_path / "summary.txt"
    code = main(["scenario", "--config", str(config),
                 "--out", str(out), "--summary", str(summary)])
    assert code == 0
    assert out.read_text().count("\n") == 12   # header + 11 rows
    assert "eta_peak = 1.27393736e+06" in summary.read_text()


def test_main_scenario_output_key_fallback(tmp_path):
    out = tmp_path / "from_config.csv"
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL + f"output = {out}\n")
    assert main(["scenario", "--config", str(config), "--summary",
                 str(tmp_path / "s.txt")]) == 0
    assert out.exists()


@pytest.mark.parametrize("lines", [
    "flux_w_cm2 = 0",
    "time_stop_s = 1e-9\ntime_steps = 40",   # beta <= 0.044: every f on the series branch
    "time_start_s = 3e-7\ntime_stop_s = 2e-6\ntime_steps = 57",
    "ratio_mode = hydrogenic",
    "ratio_mode = custom\nratio_value = 2.5",
    "detuning_mhz = -35.5\nflux_w_cm2 = 3.7",
])
def test_main_scenario_writes_the_per_cell_table(tmp_path, capsys, lines):
    # the command's one-template rows against the per-cell formatting of run_scenario's rows
    text = f"channel = fine_structure\n{lines}\n"
    series, summary = run_scenario(parse_config(text))
    f_mw = summary["microwave_drive_mhz"]
    expected = _per_cell_csv(cli.SCENARIO_HEADER, [(t, f_mw, beta, f, intensity, eta)
                                                   for t, beta, f, intensity, eta in series])
    config = tmp_path / "run.cfg"
    config.write_text(text)
    assert main(["scenario", "--config", str(config)]) == 0
    assert capsys.readouterr() == (expected, format_summary(summary))
    config.write_text("\ufeff" + text, encoding="utf-8")   # a byte-order mark is ignored
    assert main(["scenario", "--config", str(config)]) == 0
    assert capsys.readouterr() == (expected, format_summary(summary))
    out = tmp_path / "series.csv"
    config.write_text(text + f"output = {out}\n")
    assert main(["scenario", "--config", str(config), "--summary", str(tmp_path / "s")]) == 0
    assert out.read_text() == expected and capsys.readouterr() == ("", "")


def test_main_pulse_energy_where_scale_times_flux_overflows(tmp_path, capsys):
    # decrement*sigma*S_mw overflows, but the energy, at most the stored
    # N*rho22*hbar*omega31 ~ 9e208 erg, does not: this exited 3 with "overflows"
    config = tmp_path / "run.cfg"
    config.write_text("channel = fine_structure\nvessel_area_cm2 = 1e100\n"
                      "vessel_length_cm = 1e100\nratio_mode = custom\nratio_value = 1e92\n"
                      "rho22_initial = 1\n")
    assert main(["sweep", "--config", str(config), "--param", "rho22_initial", "--min", "0.5",
                 "--max", "1", "--steps", "3", "--objective", "pulse_energy"]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[1:]]
    cfg = parse_config(config.read_text())
    drive, decrement, _ = cli._scenario_physics(cfg)
    n_atoms = 0.9e-4 * 1e200 / oracles.MU_H
    for rho22, energy in rows:
        # 1.22e-5 cm: the optical line every scenario shares
        assert energy == pytest.approx(oracles.stored_pulse_energy(
            n_atoms * rho22, 1.22e-5, drive.e0, 1e92, decrement, 0.0, cfg.time_stop_s),
            rel=1e-8)
    assert rows[-1][1] == pytest.approx(8.7564e208, rel=1e-4)


def test_main_sweep(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "argmax.txt"
    code = main(["sweep", "--config", str(config), "--param", "vessel_length_cm",
                 "--min", "1", "--max", "100", "--steps", "5",
                 "--objective", "eta_max_peak", "--out", str(out),
                 "--summary", str(summary)])
    assert code == 0
    assert "argmax = 1.00000000e+02" in summary.read_text()


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; no option may leak into the next command
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    log_out = tmp_path / "log.csv"
    sweep = ["sweep", "--config", str(config), "--param", "flux_w_cm2", "--min", "0.1",
             "--max", "10", "--steps", "3", "--objective", "tau"]
    cfg = parse_config(WORKED_VESSEL)
    linear = format_csv(*run_sweep(cfg, SweepSpec("flux_w_cm2", 0.1, 10.0, 3,
                                                  objective="tau"))[:2])
    logged = format_csv(*run_sweep(cfg, SweepSpec("flux_w_cm2", 0.1, 10.0, 3, log=True,
                                                  objective="tau"))[:2])
    assert main(sweep + ["--log", "--out", str(log_out)]) == 0
    assert capsys.readouterr().out == "" and log_out.read_text() == logged
    assert main(sweep) == 0
    assert capsys.readouterr().out == linear
    assert main(["fig1", "--beta-max", "6", "--steps", "4"]) == 0
    assert capsys.readouterr().out == format_csv(*fig1_rows(6.0, 4))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(config), "--param", "flux_w_cm2"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(sweep) == 0
    assert capsys.readouterr().out == linear
    assert cli.build_parser() is cli.build_parser()


def test_main_exit_code_on_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("channel = fine_structure\ngas_density_g_cm3 = -1\n")
    assert main(["scenario", "--config", str(config)]) == 2
    assert "gas_density_g_cm3" in capsys.readouterr().err
    assert main(["scenario", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()
    config.write_bytes(b"channel = fine_structure\n\xff\n")   # not UTF-8
    assert main(["scenario", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {config}: ")


def test_main_exit_code_on_numerical_error(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)

    def boom(cfg):
        raise ValueError("outside the numerical domain")

    monkeypatch.setattr(cli, "_scenario_physics", boom)
    assert main(["scenario", "--config", str(config)]) == 3
    assert "numerical domain" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["flux_w_cm2 = nan", "vessel_length_cm = inf",
                                  "time_stop_s = inf", "detuning_mhz = nan",
                                  "ratio_mode = custom\nratio_value = inf"])
def test_main_rejects_non_finite_config_values(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text(f"channel = fine_structure\n{line}\n")
    assert main(["scenario", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err and captured.out == ""


def test_main_overflow_is_a_numerical_error(tmp_path, capsys):
    # a finite flux whose field, beta and intensity overflow: exit 3, no nan rows
    config = tmp_path / "run.cfg"
    config.write_text("channel = fine_structure\nflux_w_cm2 = 1e300\n")
    assert main(["scenario", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "nan" not in captured.err
    assert main(["sweep", "--config", str(config), "--param", "flux_w_cm2", "--min", "1",
                 "--max", "1e300", "--steps", "3", "--log", "--objective", "tau"]) == 3
    # inside a sweep the message names the grid point
    assert capsys.readouterr().err == ("error: flux_w_cm2 = 1e+300: field amplitude must be "
                                       "finite and nonnegative, got inf\n")
    # n31 = rho*L*lambda^2/mu_H overflows where N = rho*A*L/mu_H does not: this printed inf
    config.write_text("channel = fine_structure\nflux_w_cm2 = 0\nvessel_length_cm = 1e300\n"
                      "gas_density_g_cm3 = 1e10\nvessel_area_cm2 = 1e-100\n")
    assert main(["scenario", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: n31 overflows (length = 1e+300")


UNDERFLOWED_POWER = "channel = fine_structure\nflux_w_cm2 = 1e-130\nvessel_area_cm2 = 1e-219\n"


@pytest.mark.parametrize("args", [
    ["scenario"],
    ["sweep", "--param", "vessel_length_cm", "--min", "1", "--max", "10", "--steps", "3",
     "--objective", "eta_max_peak"],
    ["sweep", "--param", "rho22_initial", "--min", "0", "--max", "1e-3", "--steps", "3",
     "--objective", "pulse_energy"],
])
def test_main_underflowed_vessel_power_is_a_numerical_error(tmp_path, capsys, args):
    # area * S_mw underflows to 0 while S_mw > 0, so eta = I/power has no value
    config = tmp_path / "run.cfg"
    config.write_text(UNDERFLOWED_POWER)
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "underflows" in captured.err


@pytest.mark.parametrize("config, args, message", [
    # N = 0.9e-4*1e-320/mu_H: the atom count, and with it I and eta, underflows to 0
    ("vessel_length_cm = 1e-320", ["scenario"], "cross-section scale underflows to 0"),
    ("vessel_length_cm = 1e-320",
     ["sweep", "--param", "flux_w_cm2", "--min", "1", "--max", "2", "--steps", "3",
      "--objective", "eta_max_peak"],
     "flux_w_cm2 = 1.0: cross-section scale underflows to 0"),
    # I_total = scale*f*S_mw underflows while each factor is positive
    ("flux_w_cm2 = 1e-305\nvessel_length_cm = 1e-35", ["scenario"],
     "intensity or efficiency underflows to 0 at t = 0.0 s"),
    # eta = I_total/(area*S_mw) underflows while I_total is positive
    ("vessel_length_cm = 1e-300\nrho22_initial = 1e-35\nvessel_area_cm2 = 1e100",
     ["sweep", "--param", "rho22_initial", "--min", "1e-35", "--max", "1e-34", "--steps", "3",
      "--objective", "eta_max_peak"],
     "rho22_initial = 1e-35: intensity or efficiency underflows to 0 at t = 0.0 s"),
    # the pulse energy N*rho22*S_mw*window underflows while each factor is positive
    ("vessel_area_cm2 = 1e-200\nrho22_initial = 1e-125\ntime_stop_s = 1e-20",
     ["sweep", "--param", "flux_w_cm2", "--min", "1", "--max", "2", "--steps", "2",
      "--objective", "pulse_energy"],
     "flux_w_cm2 = 1.0: pulse energy underflows to 0"),
    # tau = 2e3*hbar/rate underflows at a rate near the largest float
    ("ratio_mode = custom\nratio_value = 1e308",
     ["sweep", "--param", "flux_w_cm2", "--min", "1e10", "--max", "2e10", "--steps", "2",
      "--objective", "tau"],
     "flux_w_cm2 = 10000000000.0: depletion time underflows to 0"),
    # n31 = rho*L*lambda^2/mu_H underflows where N = rho*A*L/mu_H does not
    ("vessel_length_cm = 1e-300\ngas_density_g_cm3 = 1e-30\nvessel_area_cm2 = 1e280\n"
     "rho22_initial = 1\nflux_w_cm2 = 1e-5", ["scenario"], "n31 underflows to 0"),
    # at zero flux evaluate checks no cross-section scale: the summary's N, or its
    # sigma_max at a positive N, underflows to 0
    ("flux_w_cm2 = 0\nvessel_area_cm2 = 1e-320", ["scenario"], "n_atoms underflows to 0"),
    ("flux_w_cm2 = 0\nvessel_area_cm2 = 1e-20\nrho22_initial = 1e-320", ["scenario"],
     "sigma_max underflows to 0"),
])
def test_main_underflowed_intensity_is_a_numerical_error(tmp_path, capsys, config, args,
                                                         message):
    # each printed a 0 at exit 0 where every factor of the value was nonzero
    path = tmp_path / "run.cfg"
    path.write_text(f"channel = fine_structure\n{config}\n")
    assert main([args[0], "--config", str(path), *args[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("detuning, args, message", [
    ("1e200", ["scenario"], "at detuning 1e+200 MHz"),
    # exited 0 printing eta = 0 at the points past |detuning| ~ 2.2e147 MHz
    ("0", ["sweep", "--param", "detuning_mhz", "--min", "1e100", "--max", "1e200",
           "--steps", "3", "--log", "--objective", "eta_max_peak"],
     "detuning_mhz = 1e+150: detuning lineshape underflows to 0 at detuning 1e+150 MHz"),
    ("1e200", ["sweep", "--param", "flux_w_cm2", "--min", "1", "--max", "2",
               "--steps", "3", "--objective", "tau"], "at detuning 1e+200 MHz"),
    # past |detuning| ~ 2.9e301 MHz the angular detuning itself is inf
    ("1e303", ["scenario"], "at detuning 1e+303 MHz"),
])
def test_main_lineshape_underflow_is_a_numerical_error(tmp_path, capsys, detuning, args,
                                                       message):
    # delta^2 overflows above |detuning| ~ 2.2e147 MHz, so the lineshape reads 0
    config = tmp_path / "run.cfg"
    config.write_text(f"channel = fine_structure\ndetuning_mhz = {detuning}\n")
    assert main([args[0], "--config", str(config), *args[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "lineshape underflows to 0" in captured.err and message in captured.err


def test_main_scenario_at_huge_beta(tmp_path, capsys):
    # beta reaches ~4e206 by the window's end: f is a positive denormal, not 0
    config = tmp_path / "run.cfg"
    config.write_text("channel = fine_structure\nratio_mode = custom\nratio_value = 1e205\n")
    assert main(["scenario", "--config", str(config)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert float(rows[-1][2]) > 1e206 and all(float(row[3]) > 0 for row in rows)
    # past beta ~ 3e215 f underflows to 0, which would print I = eta = 0: exit 3
    config.write_text("channel = fine_structure\nratio_mode = custom\nratio_value = 1e215\n")
    assert main(["scenario", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "f(beta) underflows to 0" in captured.err


def test_main_fig1_large_approx_is_inf_at_tiny_beta(tmp_path):
    # beta**-1.5 overflows below beta ~ 1e-205: the asymptote reads inf, as at beta = 0
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--beta-max", "1e-300", "--steps", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[3] for row in rows] == ["inf"] * 3
    assert all(math.isfinite(float(value)) for row in rows for value in row[:3])


def test_main_sweep_accepts_negative_exponent_bound_with_equals(tmp_path, capsys):
    # argparse takes "--min -1e3" for an option; "--min=-1e3" is the documented spelling
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    assert main(["sweep", "--config", str(config), "--param", "detuning_mhz", "--min=-1e3",
                 "--max", "1e3", "--steps", "3", "--objective", "eta_max_peak"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("-1.00000000e+03,")


def test_main_rejects_non_finite_sweep_range_and_fig1_grid(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    assert main(["sweep", "--config", str(config), "--param", "flux_w_cm2", "--min", "0",
                 "--max", "inf", "--steps", "3", "--objective", "tau"]) == 2
    assert main(["fig1", "--beta-max", "nan", "--steps", "3"]) == 2
    assert main(["fig1", "--beta-max", "inf", "--steps", "3"]) == 2
    assert "finite" in capsys.readouterr().err


def test_main_unwritable_output_path(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(WORKED_VESSEL)
    missing = tmp_path / "no_such_dir" / "out.csv"
    assert main(["fig1", "--beta-max", "6", "--steps", "4", "--out", str(missing)]) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err
    assert main(["scenario", "--config", str(config), "--out", str(tmp_path / "ok.csv"),
                 "--summary", str(missing)]) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_import_leaves_scipy_out():
    # numpy and scipy are test-only dependencies: the runtime imports neither
    for module in ("mwoptical", "mwoptical.cli"):
        code = f"import sys, {module}; print('numpy' in sys.modules, 'scipy' in sys.modules)"
        assert _run_python("-c", code).stdout.strip() == "False False", module


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the records are plain classes: dataclasses, with the inspect module it
    # loads, took most of the package's import time in a cold command
    code = "import sys, mwoptical.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_dash_m_runs_the_cli(capsys):
    proc = _run_python("-m", "mwoptical", "constants")
    assert main(["constants"]) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("args", [("fig1", "--beta-max", "20", "--steps", "201"),
                                  ("constants",)])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_pipe_is_an_exit_2_error(args, unbuffered):
    # stdout is a pipe whose reader has already gone: every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "mwoptical", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_main_transition_and_constants(capsys):
    assert main(["transition", "fine_structure"]) == 0
    out = capsys.readouterr().out
    assert "microwave_resonance_mhz = 1.09490000e+04" in out
    assert "gamma31_per_s" in out
    assert main(["constants"]) == 0
    out = capsys.readouterr().out
    assert "hbar_erg_s = 1.05457182e-27" in out


def test_main_rejects_unknown_sweep_param():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "x", "--param", "bogus",
              "--min", "0", "--max", "1", "--steps", "3", "--objective", "tau"])
    assert exc.value.code == 2
