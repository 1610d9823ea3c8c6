"""Command-line front end: flat key=value config ingestion, CSV emission for
the depletion curve and scenario time series, parameter sweeps with a grid
argmax, and plain-text summaries.

Both microwave channels drive the same metastable reservoir and emit on the
same 2p-1s line to within fine-structure corrections (~1e-5 relative), so the
pipeline evaluates one shared optical transition and the channel choice only
selects the microwave-frequency metadata; conversion figures are identical
across channels by construction.
"""

import argparse
import functools
import math
import os
import sys

from .coupling import MicrowaveDrive, _checked_field, damping_decrement, detuning_lineshape
from .ensemble import (
    EnsembleConfig,
    _depletion_time,
    _n_atoms,
    _operands,
    _pulse_energy,
    _rows,
    depletion_time,
    evaluate,
    f_beta,
    f_beta_approx_large,
    f_beta_approx_small,
    sigma_max,
)
from .hydrogen import (
    FINE_STRUCTURE_MHZ,
    LAMB_SHIFT_MHZ,
    LIFETIME_2S_S,
    OPTICAL_ANCHOR_CM,
    RATIO_UNITY,
    decay_rate,
    dipole_matrix_element,
    effective_dipole,
    hydrogenic_dipole_ratio,
    mode,
)
from .units import (
    A0_CM,
    C_CM_S,
    CM_PER_NM,
    E_STATC,
    HBAR_ERG_S,
    MU_H_G,
    _Record,
    field_from_flux,
    flux_si_to_cgs,
    freq_mhz_to_angular,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SweepSpec",
    "parse_config",
    "fig1_rows",
    "run_scenario",
    "run_sweep",
    "format_csv",
    "format_scenario",
    "main",
    "run",
]


class ConfigError(ValueError):
    """Configuration parse or validation failure (CLI exit code 2)."""


# channel -> (microwave resonance in MHz, (upper, lower) microwave pair labels)
CHANNELS = {
    "fine_structure": (FINE_STRUCTURE_MHZ, ("2p3/2", "2s1/2")),
    "lamb_shift": (LAMB_SHIFT_MHZ, ("2s1/2", "2p1/2")),
}

RATIO_MODES = ("unity", "hydrogenic", "custom")

SWEEP_PARAMETERS = {
    "flux_w_cm2": "W/cm^2",
    "rho22_initial": "-",
    "vessel_length_cm": "cm",
    "gas_density_g_cm3": "g/cm^3",
    "detuning_mhz": "MHz",
}

OBJECTIVES = {
    "eta_max_peak": "-",
    "pulse_energy": "erg",
    "tau": "s",
}

NO_DEPLETION = "no_depletion"

SCENARIO_HEADER = ("t[s]", "f_mw[MHz]", "beta[-]", "f_beta[-]", "I_total[erg/s]", "eta[-]")

# Largest scenario, sweep or fig1 grid; grids are Python lists built point by point.
MAX_GRID_POINTS = 10**7

# The one optical line every scenario and sweep point shares (see module docstring),
# and its decay rate, which the decrement of every sweep point reads.
_OPTICAL_UPPER, _OPTICAL_LOWER = mode("2p3/2"), mode("1s1/2")
_GAMMA_31 = decay_rate(_OPTICAL_UPPER.omega - _OPTICAL_LOWER.omega,
                       effective_dipole(_OPTICAL_UPPER, _OPTICAL_LOWER))


def _check_grid_size(name: str, steps: int):
    if not 2 <= steps <= MAX_GRID_POINTS:
        raise ConfigError(f"{name}: must lie in [2, {MAX_GRID_POINTS}], got {steps}")


class ScenarioConfig(_Record):
    """Validated scenario parameters; every field except ``channel`` has a default."""

    def __init__(self, channel: str, flux_w_cm2: float = 1.0, detuning_mhz: float = 0.0,
                 vessel_length_cm: float = 10.0, vessel_area_cm2: float = 1.0,
                 gas_density_g_cm3: float = 0.9e-4, rho22_initial: float = 1.0e-4,
                 ratio_mode: str = "unity", ratio_value: float | None = None,
                 time_start_s: float = 0.0, time_stop_s: float = 1.0e-6,
                 time_steps: int = 101, output: str | None = None):
        # x + 0.0 is +0.0 at x = -0.0: the three factors of every intensity store no
        # negative zero, which would print as -0 wherever it scales a product
        vars(self).update(
            channel=channel, flux_w_cm2=flux_w_cm2 + 0.0, detuning_mhz=detuning_mhz,
            vessel_length_cm=vessel_length_cm, vessel_area_cm2=vessel_area_cm2,
            gas_density_g_cm3=gas_density_g_cm3, rho22_initial=rho22_initial + 0.0,
            ratio_mode=ratio_mode, ratio_value=None if ratio_value is None else ratio_value + 0.0,
            time_start_s=time_start_s, time_stop_s=time_stop_s, time_steps=time_steps,
            output=output)
        if self.channel not in CHANNELS:
            raise ConfigError(
                f"channel: must be one of {', '.join(CHANNELS)}; got {self.channel!r}")
        # Comparisons with math.inf also reject nan, which fails every comparison.
        if not 0 <= self.flux_w_cm2 < math.inf:
            raise ConfigError(f"flux_w_cm2: must be finite and >= 0, got {self.flux_w_cm2}")
        for name in ("vessel_length_cm", "vessel_area_cm2", "gas_density_g_cm3"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}: must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.rho22_initial <= 1.0:
            raise ConfigError(f"rho22_initial: must lie in [0, 1], got {self.rho22_initial}")
        if self.ratio_mode not in RATIO_MODES:
            raise ConfigError(
                f"ratio_mode: must be one of {', '.join(RATIO_MODES)}; got {self.ratio_mode!r}")
        if self.ratio_mode == "custom":
            if self.ratio_value is None:
                raise ConfigError("ratio_value: required when ratio_mode = custom")
            if not 0 <= self.ratio_value < math.inf:
                raise ConfigError(f"ratio_value: must be finite and >= 0, got {self.ratio_value}")
        elif self.ratio_value is not None:
            raise ConfigError("ratio_value: only valid when ratio_mode = custom")
        if not 0 <= self.time_start_s < math.inf:
            raise ConfigError(f"time_start_s: must be finite and >= 0, got {self.time_start_s}")
        if not self.time_start_s < self.time_stop_s < math.inf:
            raise ConfigError(
                f"time grid must be monotone and finite: time_stop_s={self.time_stop_s} "
                f"must exceed time_start_s={self.time_start_s}")
        _check_grid_size("time_steps", self.time_steps)
        if not 0 < self.drive_frequency_mhz < math.inf:
            raise ConfigError(f"detuning_mhz: drive frequency {self.drive_frequency_mhz} MHz "
                              "must be finite and positive")

    @property
    def microwave_resonance_mhz(self) -> float:
        return CHANNELS[self.channel][0]

    @property
    def drive_frequency_mhz(self) -> float:
        return self.microwave_resonance_mhz + self.detuning_mhz

    @property
    def ratio(self) -> float:
        """Squared dipole ratio selected by ratio_mode."""
        if self.ratio_mode == "unity":
            return RATIO_UNITY
        if self.ratio_mode == "hydrogenic":
            return hydrogenic_dipole_ratio()
        return self.ratio_value


class SweepSpec(_Record):
    """One-dimensional grid sweep over a scenario parameter."""

    def __init__(self, parameter: str, minimum: float, maximum: float, steps: int,
                 log: bool = False, objective: str = "eta_max_peak"):
        vars(self).update(parameter=parameter, minimum=minimum, maximum=maximum, steps=steps,
                          log=log, objective=objective)
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter {self.parameter!r} unknown; "
                f"valid: {', '.join(SWEEP_PARAMETERS)}")
        if not -math.inf < self.minimum < self.maximum < math.inf:
            raise ConfigError(f"sweep range: min {self.minimum} must be below max "
                              f"{self.maximum}, both finite")
        if not self.log and self.maximum - self.minimum == math.inf:
            raise ConfigError(f"sweep range: the width of min {self.minimum} to max "
                              f"{self.maximum} overflows")
        _check_grid_size("sweep steps", self.steps)
        if self.log and self.minimum <= 0:
            raise ConfigError("log spacing requires a positive minimum")
        if self.objective not in OBJECTIVES:
            raise ConfigError(
                f"objective {self.objective!r} unknown; valid: {', '.join(OBJECTIVES)}")

    def grid(self) -> list:
        if self.log:
            return [_pow10(x) for x in
                    _linspace(math.log10(self.minimum), math.log10(self.maximum), self.steps)]
        return _linspace(self.minimum, self.maximum, self.steps)


def _linspace(start: float, stop: float, num: int) -> list:
    """num >= 2 evenly spaced points from start to stop, rounded as array linspace rounds.

    Point i is i*step + start with step = (stop - start)/(num - 1), or
    i/(num - 1)*(stop - start) + start when step underflows to 0; the last
    point is stop exactly.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _pow10(x: float) -> float:
    """10**x, or inf where it overflows (x just above log10 of the largest float)."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"not a number: {value!r}") from None


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}") from None


# config key -> parser, one per ScenarioConfig field, chosen by the field's type
_TYPE_PARSERS = {int: _parse_int, float: _parse_float, float | None: _parse_float}
_CONFIG_PARSERS = {name: _TYPE_PARSERS.get(kind, str)
                   for name, kind in ScenarioConfig.__init__.__annotations__.items()}


def parse_config(text: str) -> ScenarioConfig:
    """Parse a flat ``key = value`` document ('#' starts a comment).

    Unknown keys are rejected by name; only ``channel`` is required.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)

    unknown = sorted(k for k in entries if k not in _CONFIG_PARSERS)
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(unknown))
    if "channel" not in entries:
        raise ConfigError("missing required key: channel")

    kwargs = {}
    for key, (value, lineno) in entries.items():
        try:
            kwargs[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return ScenarioConfig(**kwargs)


# ---------------------------------------------------------------------------
# computations
# ---------------------------------------------------------------------------

# scenario field -> the EnsembleConfig field it sets
_ENSEMBLE_FIELDS = {
    "vessel_length_cm": "length",
    "vessel_area_cm2": "area",
    "gas_density_g_cm3": "gas_density",
    "rho22_initial": "rho22_0",
}


def _field(flux_w_cm2: float) -> float:
    """The field amplitude E0 (statV/cm) at a flux in W/cm^2, checked as the drive checks it."""
    return _checked_field(field_from_flux(flux_si_to_cgs(flux_w_cm2)))


def _decrement(detuning_mhz: float) -> float:
    """The lineshape at a detuning in MHz; it is even, and 2*pi*1e6*x is odd in x
    in floats too, so |detuning| gives every bit of delta^2."""
    decrement = detuning_lineshape(freq_mhz_to_angular(abs(detuning_mhz)), _GAMMA_31)
    if decrement == 0.0:
        raise ValueError(f"detuning lineshape underflows to 0 at detuning {detuning_mhz} MHz")
    return decrement


def _scenario_physics(cfg: ScenarioConfig):
    """Per-config setup: drive, detuning decrement, ensemble config."""
    drive = MicrowaveDrive(_field(cfg.flux_w_cm2))
    ens = EnsembleConfig(**{name: getattr(cfg, key) for key, name in _ENSEMBLE_FIELDS.items()},
                         ratio=cfg.ratio, wavelength_31=OPTICAL_ANCHOR_CM)
    return drive, _decrement(cfg.detuning_mhz), ens


def fig1_rows(beta_max: float, steps: int):
    """Depletion-curve table: beta, exact f, and both approximations."""
    if not 0 < beta_max < math.inf:
        raise ConfigError(f"beta-max: must be positive and finite, got {beta_max}")
    _check_grid_size("steps", steps)
    header = ["beta[-]", "f_exact[-]", "f_small_approx[-]", "f_large_approx[-]"]
    rows = [(b, f_beta(b), f_beta_approx_small(b), f_beta_approx_large(b))
            for b in _linspace(0.0, beta_max, steps)]
    return header, rows


def run_scenario(cfg: ScenarioConfig):
    """(series, summary) for one scenario: ``evaluate``'s (t, beta, f, I_total, eta)
    rows and an ordered mapping of labeled scalars."""
    drive, decrement, ens = _scenario_physics(cfg)
    times = _linspace(cfg.time_start_s, cfg.time_stop_s, cfg.time_steps)
    series = evaluate(ens, drive, decrement, times)

    summary = {
        "channel": cfg.channel,
        "microwave_resonance_mhz": cfg.microwave_resonance_mhz,
        "microwave_drive_mhz": cfg.drive_frequency_mhz,
        "detuning_mhz": cfg.detuning_mhz,
        "flux_w_cm2": cfg.flux_w_cm2,
        "field_e0_statv_cm": drive.e0,
        "decrement": decrement,
        "ratio": ens.ratio,
        "rho22_initial": ens.rho22_0,
        "n_atoms": ens.n_atoms,
        "n31": ens.n31,
        "gamma31_per_s": _GAMMA_31,
        "eta_peak": evaluate(ens, drive, decrement, (0.0,))[0][4],
        "tau_s": depletion_time(ens, drive, decrement),
        "sigma_max_cm2": sigma_max(ens, 0.0),
    }
    return series, summary


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec):
    """Grid sweep of one parameter; returns (header, rows, argmax record).

    Objectives are cheap closed forms, so the maximizer is an exhaustive grid
    scan; 'no depletion' points are excluded from the argmax.

    Every ScenarioConfig constraint on a sweepable parameter is an interval,
    and so is every record check on one, so checking the config at the grid's
    min and max checks every point.  The points then build no record: each
    recomputes the one operand its parameter sets (see ``_sweep_objective``)
    and runs every numerical check of the objective; an error at a point names
    the point.
    """
    header = [
        f"{spec.parameter}[{SWEEP_PARAMETERS[spec.parameter]}]",
        f"{spec.objective}[{OBJECTIVES[spec.objective]}]",
    ]
    grid = spec.grid()
    lowest = cfg.replace(**{spec.parameter: min(grid)})
    cfg.replace(**{spec.parameter: max(grid)})
    # Fixed operands at a grid point, not at cfg: cfg's own flux or detuning may
    # overflow where no swept value does.
    objective = _sweep_objective(spec.parameter, spec.objective, lowest)
    rows = []
    for value in grid:
        try:
            rows.append((value, objective(value)))
        except ValueError as exc:
            raise type(exc)(f"{spec.parameter} = {value}: {exc}") from None
    scored = [row for row in rows if row[1] is not None]
    argmax, best = max(scored, key=lambda row: row[1]) if scored else (NO_DEPLETION,) * 2
    record = {"parameter": spec.parameter, "objective": spec.objective,
              "argmax": argmax, "objective_max": best}
    return header, rows, record


def _sweep_objective(parameter: str, objective: str, cfg: ScenarioConfig):
    """value -> the objective at ``parameter`` = value, by the float kernels of
    ``ensemble``.  The scenario's drive, decrement and ensemble are built once, at
    cfg; a point recomputes only the operand its parameter sets: E0 (checked as
    the drive checks it) for the flux, the decrement for the detuning, N for the
    length and the density, and rho22_0 itself.  None marks 'no depletion'."""
    drive, decrement, ens = _scenario_physics(cfg)
    e0, length, area, density = drive.e0, ens.length, ens.area, ens.gas_density
    n_atoms, rho22_0, ratio, wavelength_31 = _operands(ens)
    if objective == "eta_max_peak":
        def kernel(e0, decrement, n_atoms, rho22_0):
            return _rows(e0, decrement, n_atoms, rho22_0, ratio, wavelength_31, area,
                         (0.0,))[0][4]
    elif objective == "pulse_energy":
        t0, t1 = cfg.time_start_s, cfg.time_stop_s

        def kernel(e0, decrement, n_atoms, rho22_0):
            return _pulse_energy(e0, decrement, n_atoms, rho22_0, ratio, wavelength_31, t0, t1)
    else:
        def kernel(e0, decrement, n_atoms, rho22_0):
            return _depletion_time(e0, decrement, ratio, wavelength_31)
    return {
        "flux_w_cm2": lambda value: kernel(_field(value), decrement, n_atoms, rho22_0),
        "detuning_mhz": lambda value: kernel(e0, _decrement(value), n_atoms, rho22_0),
        "rho22_initial": lambda value: kernel(e0, decrement, n_atoms, value),
        "vessel_length_cm": lambda value: kernel(e0, decrement, _n_atoms(value, area, density),
                                                 rho22_0),
        "gas_density_g_cm3": lambda value: kernel(e0, decrement, _n_atoms(length, area, value),
                                                  rho22_0),
    }[parameter]


# ---------------------------------------------------------------------------
# formatting and I/O
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    """Scientific notation with 9 significant digits for floats; markers/text as-is."""
    if value is None:
        return NO_DEPLETION
    if isinstance(value, str):
        return value
    return f"{value:.8e}"


def format_csv(header, rows) -> str:
    """Header line plus one line per row; a row of numbers formats through one
    template, with the bytes of ``_format_value``, and a row that holds None or
    text, which the template rejects, cell by cell."""
    template = ",".join(["%.8e"] * len(header))
    lines = [",".join(header)]
    for row in rows:
        try:
            lines.append(template % tuple(row))
        except TypeError:
            lines.append(",".join(map(_format_value, row)))
    return "\n".join(lines) + "\n"


def format_scenario(series, summary) -> str:
    """The scenario CSV: ``run_scenario``'s rows with the drive frequency in MHz
    as second column, one template per row with the bytes of ``_format_value``."""
    template = "%.8e," + _format_value(summary["microwave_drive_mhz"]) + ",%.8e,%.8e,%.8e,%.8e"
    return "\n".join([",".join(SCENARIO_HEADER), *map(template.__mod__, series)]) + "\n"


def format_summary(record) -> str:
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in record.items())


def _write_text(text: str, path: str | None, default_stream):
    if path is None:
        default_stream.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _read_config_file(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_constants(args) -> None:
    record = {
        "hbar_erg_s": HBAR_ERG_S,
        "c_cm_s": C_CM_S,
        "e_statC": E_STATC,
        "a0_cm": A0_CM,
        "mu_H_g": MU_H_G,
        "fine_structure_constant": E_STATC**2 / (HBAR_ERG_S * C_CM_S),
    }
    sys.stdout.write(format_summary(record))


def _cmd_transition(args) -> None:
    resonance_mhz, (upper_label, lower_label) = CHANNELS[args.channel]
    upper, lower = mode(upper_label), mode(lower_label)
    omega_32 = upper.omega - lower.omega
    e_a0 = E_STATC * A0_CM
    record = {
        "channel": args.channel,
        "microwave_upper": upper_label,
        "microwave_lower": lower_label,
        "microwave_resonance_mhz": resonance_mhz,
        "optical_wavelength_nm": OPTICAL_ANCHOR_CM / CM_PER_NM,
        "dipole_mw_z_e_a0": dipole_matrix_element(upper, lower) / e_a0,
        "dipole_optical_z_e_a0": dipole_matrix_element(_OPTICAL_UPPER, _OPTICAL_LOWER) / e_a0,
        "dipole_ratio_hydrogenic": hydrogenic_dipole_ratio(),
        "gamma31_per_s": _GAMMA_31,
        "lifetime31_s": 1.0 / _GAMMA_31,
        "lifetime_metastable_s": LIFETIME_2S_S,
        "decrement_at_resonance": damping_decrement(omega_32, omega_32, _GAMMA_31),
    }
    sys.stdout.write(format_summary(record))


def _cmd_fig1(args) -> None:
    header, rows = fig1_rows(args.beta_max, args.steps)
    _write_text(format_csv(header, rows), args.out, sys.stdout)


def _cmd_scenario(args) -> None:
    cfg = _read_config_file(args.config)
    series, summary = run_scenario(cfg)
    _write_text(format_scenario(series, summary), args.out or cfg.output, sys.stdout)
    _write_text(format_summary(summary), args.summary, sys.stderr)


def _cmd_sweep(args) -> None:
    cfg = _read_config_file(args.config)
    spec = SweepSpec(
        parameter=args.param,
        minimum=args.min,
        maximum=args.max,
        steps=args.steps,
        log=args.log,
        objective=args.objective,
    )
    header, rows, record = run_sweep(cfg, spec)
    _write_text(format_csv(header, rows), args.out, sys.stdout)
    _write_text(format_summary(record), args.summary, sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="mwoptical",
        description="Microwave-to-optical conversion estimates for microwave-driven "
                    "metastable hydrogen (CSV tables, scenario summaries, sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the Gaussian-CGS constants in use")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("transition", help="print catalog data for a microwave channel")
    p.add_argument("channel", choices=sorted(CHANNELS))
    p.set_defaults(func=_cmd_transition)

    p = sub.add_parser("fig1", help="CSV table of the depletion integral vs beta")
    p.add_argument("--beta-max", type=float, required=True, dest="beta_max")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("scenario", help="time series + summary for a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path (default: config 'output' or stdout)")
    p.add_argument("--summary", help="summary output path (default: stderr)")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="grid sweep of one parameter with argmax record")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMETERS))
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    p.add_argument("--objective", required=True, choices=sorted(OBJECTIVES))
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--summary", help="argmax record path (default: stderr)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


def run() -> None:
    """Console entry point: ``main``; a stdout pipe whose reader has gone exits 2."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Point stdout at devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)
