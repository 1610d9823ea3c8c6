"""Command-line front end: flat key=value config ingestion, CSV emission for
the depletion curve and scenario time series, parameter sweeps with a grid
argmax, and plain-text summaries.

Both microwave channels drive the same metastable reservoir and emit on the
same 2p-1s line to within fine-structure corrections (~1e-5 relative), so the
pipeline evaluates one shared optical transition and the channel choice only
selects the microwave-frequency metadata; conversion figures are identical
across channels by construction.
"""

import contextlib
import errno
import math
import os
import sys
from types import SimpleNamespace

from .coupling import damping_decrement, detuning_lineshape
from .ensemble import (
    EnsembleConfig,
    _depletion_time,
    _n_atoms,
    _operands,
    _pulse_energies,
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
    GAMMA_31,
    LAMB_SHIFT_MHZ,
    LIFETIME_2S_S,
    OPTICAL_ANCHOR_CM,
    RATIO_UNITY,
    dipole_matrix_element,
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
    _checked,
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

# fig1's comparison columns, printed as they are (inf at beta = 0): exempt from ``_check_range``
_APPROXIMATION_COLUMNS = ("f_small_approx[-]", "f_large_approx[-]")

# Largest scenario, sweep or fig1 grid; grids are Python lists built point by point.
MAX_GRID_POINTS = 10**7


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
                 time_steps: int = 101):
        # x + 0.0 is +0.0 at x = -0.0: the three factors of every intensity store no
        # negative zero, which would print as -0 wherever it scales a product
        vars(self).update(
            channel=channel, flux_w_cm2=flux_w_cm2 + 0.0, detuning_mhz=detuning_mhz,
            vessel_length_cm=vessel_length_cm, vessel_area_cm2=vessel_area_cm2,
            gas_density_g_cm3=gas_density_g_cm3, rho22_initial=rho22_initial + 0.0,
            ratio_mode=ratio_mode, ratio_value=None if ratio_value is None else ratio_value + 0.0,
            time_start_s=time_start_s, time_stop_s=time_stop_s, time_steps=time_steps)
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

def _flux(flux_w_cm2: float) -> float:
    """The drive flux S_mw (erg s^-1 cm^-2) at a flux in W/cm^2; ValueError where it is inf."""
    return _checked(flux_si_to_cgs(flux_w_cm2), "flux S_mw")


def _decrement(detuning_mhz: float) -> float:
    """The lineshape at a detuning in MHz; it is even, and 2*pi*1e6*x is odd in x
    in floats too, so |detuning| gives every bit of delta^2."""
    decrement = detuning_lineshape(freq_mhz_to_angular(abs(detuning_mhz)))
    if decrement == 0.0:
        raise ValueError(f"detuning lineshape underflows to 0 at detuning {detuning_mhz} MHz")
    return decrement


def _scenario_physics(cfg: ScenarioConfig):
    """Per-config setup: drive flux S_mw, detuning decrement, ensemble config."""
    s_mw = _flux(cfg.flux_w_cm2)
    ens = EnsembleConfig(cfg.vessel_length_cm, cfg.vessel_area_cm2, cfg.gas_density_g_cm3,
                         cfg.rho22_initial, cfg.ratio)
    return s_mw, _decrement(cfg.detuning_mhz), ens


def fig1_rows(beta_max: float, steps: int):
    """Depletion-curve table: beta, exact f, and both approximations; ValueError on f = 0."""
    if not 0 < beta_max < math.inf:
        raise ConfigError(f"beta-max: must be positive and finite, got {beta_max}")
    _check_grid_size("steps", steps)
    header = ["beta[-]", "f_exact[-]", *_APPROXIMATION_COLUMNS]
    rows = [(b, f_beta(b), f_beta_approx_small(b), f_beta_approx_large(b))
            for b in _linspace(0.0, beta_max, steps)]
    for b, f, *_ in rows:
        if f == 0:
            raise ValueError(f"f(beta) underflows to 0 at beta = {b}")
    return header, rows


def run_scenario(cfg: ScenarioConfig):
    """(series, summary) for one scenario: ``evaluate``'s (t, beta, f, I_total, eta)
    rows and an ordered mapping of labeled scalars."""
    s_mw, decrement, ens = _scenario_physics(cfg)
    times = _linspace(cfg.time_start_s, cfg.time_stop_s, cfg.time_steps)
    series = evaluate(ens, s_mw, decrement, times)

    summary = {
        "channel": cfg.channel,
        "microwave_resonance_mhz": cfg.microwave_resonance_mhz,
        "microwave_drive_mhz": cfg.drive_frequency_mhz,
        "detuning_mhz": cfg.detuning_mhz,
        "flux_w_cm2": cfg.flux_w_cm2,
        "field_e0_statv_cm": field_from_flux(s_mw),
        "decrement": decrement,
        "ratio": ens.ratio,
        "rho22_initial": ens.rho22_0,
        "n_atoms": ens.n_atoms,
        "n31": ens.n31,
        "gamma31_per_s": GAMMA_31,
        "eta_peak": evaluate(ens, s_mw, decrement, (0.0,))[0][4],
        "tau_s": depletion_time(ens, s_mw, decrement),
        "sigma_max_cm2": sigma_max(ens, 0.0),
    }
    return series, summary


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec):
    """Grid sweep of one parameter; returns (header, rows, argmax record).

    Objectives are cheap closed forms, so the maximizer is an exhaustive grid
    scan; 'no depletion' points are excluded from the argmax, and the record's
    ``argmax_ties`` counts the scored points equal to ``objective_max`` (0 if none).

    Every ScenarioConfig constraint on a sweepable parameter is an interval,
    and so is every record check on one, so checking the config at the grid's
    min and max checks every point.  The points then build no record: the
    objective takes the whole grid in one call, each point recomputes the one
    operand its parameter sets (see ``_sweep_objective``) and runs every
    numerical check that reads a point, and an error at a point names the point.
    """
    header = [
        f"{spec.parameter}[{SWEEP_PARAMETERS[spec.parameter]}]",
        f"{spec.objective}[{OBJECTIVES[spec.objective]}]",
    ]
    grid = spec.grid()
    lowest = cfg.replace(**{spec.parameter: min(grid)})
    cfg.replace(**{spec.parameter: max(grid)})
    # Fixed operands at a grid point, not at cfg: cfg's own flux or detuning may
    # overflow where no swept value does.  An error in building them names no point.
    results = _sweep_objective(spec.parameter, spec.objective, lowest, grid)
    rows = []
    try:
        # one result per grid point, in order: the point that failed is the next one
        for result in results:
            rows.append((grid[len(rows)], result))
    except ValueError as exc:
        raise type(exc)(f"{spec.parameter} = {grid[len(rows)]}: {exc}") from None
    scored = [row for row in rows if row[1] is not None]
    argmax, best = max(scored, key=lambda row: row[1]) if scored else (NO_DEPLETION,) * 2
    record = {"parameter": spec.parameter, "objective": spec.objective, "argmax": argmax,
              "objective_max": best, "argmax_ties": sum(row[1] == best for row in scored)}
    return header, rows, record


def _sweep_objective(parameter: str, objective: str, cfg: ScenarioConfig, values):
    """An iterator over the objective at ``parameter`` = each of values, by the float
    kernels of ``ensemble``; it reads the next value only after the previous result,
    so an error comes from the value after the last result.  The scenario's flux,
    decrement and ensemble are built once, at cfg; a point recomputes only the
    operand its parameter sets: S_mw (checked by ``_flux``) for the flux, the
    decrement for the detuning, N for the length and the density, and rho22_0 itself.
    None marks 'no depletion'."""
    s_mw, decrement, ens = _scenario_physics(cfg)
    length, area, density = ens.length, ens.area, ens.gas_density
    n_atoms, rho22_0, ratio = _operands(ens)
    # (S_mw, decrement, N, rho22_0) at each value
    points = {
        "flux_w_cm2": lambda: ((_flux(v), decrement, n_atoms, rho22_0) for v in values),
        "detuning_mhz": lambda: ((s_mw, _decrement(v), n_atoms, rho22_0) for v in values),
        "rho22_initial": lambda: ((s_mw, decrement, n_atoms, v) for v in values),
        "vessel_length_cm": lambda: ((s_mw, decrement, _n_atoms(v, area, density), rho22_0)
                                     for v in values),
        "gas_density_g_cm3": lambda: ((s_mw, decrement, _n_atoms(length, area, v), rho22_0)
                                      for v in values),
    }[parameter]()
    if objective == "pulse_energy":
        return _pulse_energies(points, ratio, cfg.time_start_s, cfg.time_stop_s)
    if objective == "eta_max_peak":
        return (_rows(*point, ratio, area, (0.0,))[0][4] for point in points)
    return (_depletion_time(s, d, ratio) for s, d, _, _ in points)


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


def _format_table(header, rows, template) -> str:
    """Header line plus one line per row through template, whose cells are "%.8e", with
    the bytes of ``_format_value``; a row that holds None or text formats cell by cell."""
    lines = [",".join(header)]
    for row in rows:
        try:
            lines.append(template % tuple(row))
        except TypeError:   # "%.8e" rejects None and text
            lines.append(template.replace("%.8e", "%s") % tuple(map(_format_value, row)))
    return "\n".join(lines) + "\n"


def _csv_table(header, rows):
    return header, rows, ",".join(["%.8e"] * len(header))


def format_csv(header, rows) -> str:
    """Header line plus one line per row, each cell with the bytes of ``_format_value``."""
    return _format_table(*_csv_table(header, rows))


def _scenario_table(series, summary):
    drive = _format_value(summary["microwave_drive_mhz"])
    return SCENARIO_HEADER, series, "%.8e," + drive + ",%.8e,%.8e,%.8e,%.8e"


def format_scenario(series, summary) -> str:
    """``run_scenario``'s rows with the drive frequency in MHz, formatted once, as second column."""
    return _format_table(*_scenario_table(series, summary))


def _check_range(value):
    """ValueError on the first number of a record or table that is not finite, or is not
    0 and lies below the normal range, where it keeps fewer than 53 bits; a table names
    the row by its first cell.  The one range rule for every printed number."""
    table = not isinstance(value, dict)
    if table:   # every column the template formats: it holds the scenario's drive as text
        names = [name for name, cell in zip(value[0], value[2].split(",")) if cell == "%.8e"]
        rows = value[1]
    else:   # text, such as a channel or a parameter, is no number
        names, rows = list(value), [[None if isinstance(x, str) else x for x in value.values()]]
    low, high = sys.float_info.min, math.inf
    for row in rows:
        # a fast scan for a number that is neither 0 (nor None) nor a normal number of
        # either sign, without abs, which costs a float per cell; then the row's cells
        for x in row:
            if x and not low <= x < high and not -high < x <= -low:
                for name, cell in zip(names, row):
                    if (cell and not low <= cell < high and not -high < cell <= -low
                            and name not in _APPROXIMATION_COLUMNS):
                        point = f" at {names[0]} = {row[0]}" if table and name != names[0] else ""
                        raise ValueError(f"{name} = {cell}{point} " + ("lies below the normal "
                                         "range" if math.isfinite(cell) else "is not finite"))


def format_summary(record) -> str:
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in record.items())


def _write_text(*outputs):
    """Write and flush each (text, path, stream) in order, to the file at path or, where
    path is None, to ``sys.stdout`` or ``sys.stderr`` as stream names it.  Every path is
    opened before any byte is written, outputs to one path share its file, and a failed
    write stops the outputs after it.  Any OSError, or a stream the process started
    without, is a ConfigError naming the path or the stream."""
    files = {}
    path = None
    try:
        try:
            for _, path, _ in outputs:
                if path is not None and path not in files:
                    files[path] = open(path, "w", encoding="utf-8")
            for text, path, stream in outputs:
                handle = getattr(sys, stream) if path is None else files[path]
                if handle is None:   # the descriptor was closed when the process started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                handle.write(text)
                handle.flush()
            for path, handle in files.items():
                handle.close()
        finally:
            for handle in files.values():
                handle.close()
    except OSError as exc:
        if path is None and getattr(sys, stream) is not None:
            # Point the failed stream's descriptor, where it has one, at devnull, so that
            # no later write and no flush at exit meets the failure again.
            with contextlib.suppress(OSError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), getattr(sys, stream).fileno())
        raise ConfigError(f"cannot write {stream if path is None else path}: "
                          f"{exc.strerror or exc}") from None


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

def _cmd_constants(args) -> list:
    record = {
        "hbar_erg_s": HBAR_ERG_S,
        "c_cm_s": C_CM_S,
        "e_statC": E_STATC,
        "a0_cm": A0_CM,
        "mu_H_g": MU_H_G,
        "fine_structure_constant": E_STATC**2 / (HBAR_ERG_S * C_CM_S),
    }
    return [(record, None, "stdout")]


def _cmd_transition(args) -> list:
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
        "dipole_optical_z_e_a0": dipole_matrix_element(mode("2p3/2"), mode("1s1/2")) / e_a0,
        "dipole_ratio_hydrogenic": hydrogenic_dipole_ratio(),
        "gamma31_per_s": GAMMA_31,
        "lifetime31_s": 1.0 / GAMMA_31,
        "lifetime_metastable_s": LIFETIME_2S_S,
        "decrement_at_resonance": damping_decrement(omega_32, omega_32),
    }
    return [(record, None, "stdout")]


def _cmd_fig1(args) -> list:
    return [(_csv_table(*fig1_rows(args.beta_max, args.steps)), args.out, "stdout")]


def _cmd_scenario(args) -> list:
    series, summary = run_scenario(_read_config_file(args.config))
    return [(_scenario_table(series, summary), args.out, "stdout"),
            (summary, args.summary, "stderr")]


def _cmd_sweep(args) -> list:
    cfg = _read_config_file(args.config)
    spec = SweepSpec(args.param, args.min, args.max, args.steps, args.log, args.objective)
    header, rows, record = run_sweep(cfg, spec)
    return [(_csv_table(header, rows), args.out, "stdout"), (record, args.summary, "stderr")]


def _argument(name, kind=str, required=False, choices=None, help=""):
    """One argument of a command: a positional where name has no leading "--", else
    an option; kind converts its value, and kind None makes a flag that takes no value."""
    return name, kind, required, choices, help


# command -> (handler, help line, arguments); the one declaration of the command line
_COMMANDS = {
    "constants": (_cmd_constants, "print the Gaussian-CGS constants in use", ()),
    "transition": (_cmd_transition, "print catalog data for a microwave channel", (
        _argument("channel", required=True, choices=sorted(CHANNELS)),
    )),
    "fig1": (_cmd_fig1, "CSV table of the depletion integral vs beta", (
        _argument("--beta-max", float, required=True),
        _argument("--steps", int, required=True),
        _argument("--out", help="CSV output path (default: stdout)"),
    )),
    "scenario": (_cmd_scenario, "time series + summary for a config file", (
        _argument("--config", required=True),
        _argument("--out", help="CSV output path (default: stdout)"),
        _argument("--summary", help="summary output path (default: stderr)"),
    )),
    "sweep": (_cmd_sweep, "grid sweep of one parameter with argmax record", (
        _argument("--config", required=True),
        _argument("--param", required=True, choices=sorted(SWEEP_PARAMETERS)),
        _argument("--min", float, required=True),
        _argument("--max", float, required=True),
        _argument("--steps", int, required=True),
        _argument("--log", None, help="logarithmic grid spacing"),
        _argument("--objective", required=True, choices=sorted(OBJECTIVES)),
        _argument("--out", help="CSV output path (default: stdout)"),
        _argument("--summary", help="argmax record path (default: stderr)"),
    )),
}

def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _spelling(name, kind, choices) -> str:
    """How an argument is written: its value as {choice,...} or as its upper-case name."""
    value = "{" + ",".join(choices) + "}" if choices else _dest(name).upper()
    if not name.startswith("--"):
        return value
    return name if kind is None else f"{name} {value}"


def _usage(command) -> str:
    if command is None:
        return "usage: mwoptical [-h] {" + ",".join(_COMMANDS) + "} ..."
    parts = [f"usage: mwoptical {command} [-h]"]
    for name, kind, required, choices, _ in _COMMANDS[command][2]:
        spelling = _spelling(name, kind, choices)
        parts.append(spelling if required else f"[{spelling}]")
    return " ".join(parts)


def _help(command) -> str:
    """The usage line, then each command, or each argument of command, with its help."""
    if command is None:
        heading = ("Microwave-to-optical conversion estimates for microwave-driven metastable "
                   "hydrogen (CSV tables, scenario summaries, sweeps).\n\ncommands:")
        rows = [(name, help_line) for name, (_, help_line, _) in _COMMANDS.items()]
    else:
        _, help_line, arguments = _COMMANDS[command]
        heading = help_line + "\n\narguments:"
        rows = [("-h, --help", "show this help message and exit")] + [
            (_spelling(name, kind, choices), text) for name, kind, _, choices, text in arguments]
    width = max(len(left) for left, right in rows if right) + 2
    lines = [f"  {left:<{width}}{right}".rstrip() for left, right in rows]
    return "\n".join([_usage(command), "", heading, *lines]) + "\n"


def _usage_error(command, message):
    """Exit 2 with the usage line, then the error, on stderr."""
    prog = "mwoptical" if command is None else f"mwoptical {command}"
    _write_text((f"{_usage(command)}\n{prog}: error: {message}\n", None, "stderr"))
    raise SystemExit(2)


def _print_help(command):
    _write_text((_help(command), None, "stdout"))
    raise SystemExit(0)


def _parse_args(argv=None) -> SimpleNamespace:
    """The command and its arguments from argv (default ``sys.argv[1:]``), as a
    namespace of ``func`` and one attribute per argument of ``_COMMANDS``.

    ``mwoptical COMMAND [ARGS]``: an option is ``--flag VALUE`` or ``--flag=VALUE``,
    and the token after a flag that takes a value is that value, even where it
    starts with "-"; a repeated option keeps its last value; a flag is never
    abbreviated.  ``-h``/``--help`` prints the help and exits 0; a usage error
    prints the usage and the error to stderr and exits 2.
    """
    tokens = sys.argv[1:] if argv is None else list(argv)
    if not tokens:
        _usage_error(None, "the following arguments are required: command")
    command, *tokens = tokens
    if command in ("-h", "--help"):
        _print_help(None)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    func, _, arguments = _COMMANDS[command]
    options = {argument[0]: argument for argument in arguments if argument[0].startswith("--")}
    positionals = [argument for argument in arguments if not argument[0].startswith("--")]
    values = {_dest(name): False if kind is None else None for name, kind, *_ in arguments}
    given, extras = set(), []
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _print_help(command)
        flag, equals, value = token.partition("=")
        if flag in options:
            name, kind, _, choices, _ = options[flag]
        elif positionals and not token.startswith("-"):
            (name, kind, _, choices, _), value = positionals.pop(0), token
        else:
            extras.append(token)
            continue
        if kind is None:
            if equals:
                _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            value = True
        else:
            if name in options and not equals:
                value = next(tokens, None)
                if value is None:
                    _usage_error(command, f"argument {name}: expected one argument")
            try:
                value = kind(value)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid {kind.__name__} value: {value!r}")
            if choices is not None and value not in choices:
                listed = ", ".join(map(repr, choices))
                _usage_error(command,
                             f"argument {name}: invalid choice: {value!r} (choose from {listed})")
        values[_dest(name)] = value
        given.add(name)
    missing = [name for name, _, required, *_ in arguments if required and name not in given]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(func=func, **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # a command returns its outputs as (value, path, stream); a value is a record (a
        # mapping) or a table (header, rows, row template), all checked, then formatted
        outputs = args.func(args)
        for value, _, _ in outputs:
            _check_range(value)
        _write_text(*((format_summary(value) if isinstance(value, dict) else _format_table(*value),
                       path, stream) for value, path, stream in outputs))
    except ValueError as exc:
        with contextlib.suppress(ConfigError):   # stderr failed: the exit code alone reports it
            _write_text((f"error: {exc}\n", None, "stderr"))
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


def run() -> None:
    """Console entry point."""
    raise SystemExit(main())
