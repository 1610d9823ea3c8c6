"""Property tests of the exit-code contract, run in process through ``cli.main``.

For any finite config, a ``scenario`` and a short ``sweep`` (whose range may
leave the parameter's valid interval) exit 0, 2 or 3 and never raise.  A run
that exits 0 prints only finite numbers, a depletion integral f in (0, 1/3],
an efficiency eta that never rises with t and is positive wherever the flux,
the ratio and rho22(0) are, and the same bytes when repeated.  Its summary's
eta_peak, tau_s, n31, n_atoms and sigma_max_cm2, and every sweep objective, print
0 only where one of their factors is 0.  Besides configs mostly inside the
model's working range, the tests draw configs whose every positive float key is
log-uniform over the whole double range at once; on those, ``run_sweep`` gives
the rows and record of a reference that rebuilds every point from the records,
or raises the same error.
Any bytes at all as the config file make a scenario exit 0 or 2, and 2 when
they are not UTF-8.
The examples are derandomized and no database is kept, so every run of the
suite draws the same configs.
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mwoptical import cli
from test_cli import _per_point_sweep
from mwoptical.units import flux_from_field

PROPERTY_SETTINGS = settings(max_examples=75, derandomize=True, database=None, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

WHOLE_RANGE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=150)

ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


def _mostly(typical, other=ANY_FINITE):
    """Values inside the model's working range five times in six, else any finite float."""
    return st.sampled_from([typical] * 5 + [other]).flatmap(lambda strategy: strategy)


RATIO = st.one_of(
    st.just({}),
    st.just({"ratio_mode": "unity"}),
    st.just({"ratio_mode": "hydrogenic"}),
    _mostly(_log_uniform(0.1, 30.0)).map(
        lambda value: {"ratio_mode": "custom", "ratio_value": value}),
)

CONFIG = st.tuples(
    st.fixed_dictionaries(
        {"channel": st.sampled_from(sorted(cli.CHANNELS))},
        optional={
            "flux_w_cm2": _mostly(st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3))),
            "detuning_mhz": _mostly(st.floats(-500.0, 500.0)),
            "vessel_length_cm": _mostly(_log_uniform(0.1, 1000.0)),
            "vessel_area_cm2": _mostly(_log_uniform(0.1, 10.0)),
            "gas_density_g_cm3": _mostly(_log_uniform(1e-7, 1e-2)),
            "rho22_initial": _mostly(st.floats(0.0, 1.0)),
            "time_start_s": _mostly(st.floats(0.0, 1e-9)),
            "time_stop_s": _mostly(_log_uniform(1e-9, 1e-4)),
            "time_steps": _mostly(st.integers(2, 40), st.integers(-3, 3)),
        }),
    RATIO,
).map(lambda parts: {**parts[0], **parts[1]})

# Every positive float key at once, log-uniform over the whole double range (up to 1
# for rho22(0), and with the start time below the stop time, so most configs are valid).
POSITIVE = _log_uniform(1e-320, 1e308)
FRACTION = _log_uniform(1e-320, 1.0)


def _pair(strategy):
    return st.lists(strategy, min_size=2, max_size=2, unique=True).map(sorted)


WHOLE_RANGE = st.tuples(
    st.fixed_dictionaries({
        "channel": st.sampled_from(sorted(cli.CHANNELS)),
        "ratio_mode": st.just("custom"),
        "rho22_initial": FRACTION,
        **{key: POSITIVE for key in ("flux_w_cm2", "detuning_mhz", "vessel_length_cm",
                                     "vessel_area_cm2", "gas_density_g_cm3", "ratio_value")},
    }),
    _pair(POSITIVE),
).map(lambda parts: {**parts[0], "time_start_s": parts[1][0], "time_stop_s": parts[1][1]})
WHOLE_RANGE_SWEEP = st.sampled_from(sorted(cli.SWEEP_PARAMETERS)).flatmap(
    lambda parameter: st.tuples(
        st.just(parameter), _pair(FRACTION if parameter == "rho22_initial" else POSITIVE)))

# The scenario keys a printed 0 may come from: eta and the pulse energy scale with the
# flux, the ratio and rho22(0) (the decrement of an exit-0 run is positive, and its time
# window is not empty), and sigma_max with the ratio and rho22(0); tau, where it is
# printed, n31 and N have no factor that can be 0.
SCALE_FACTORS = ("flux_w_cm2", "ratio", "rho22_initial")
ZERO_FACTORS = {"eta_peak": SCALE_FACTORS, "eta_max_peak": SCALE_FACTORS,
                "pulse_energy": SCALE_FACTORS, "sigma_max_cm2": SCALE_FACTORS[1:],
                "tau_s": (), "tau": (), "n31": (), "n_atoms": ()}

# Sweep bounds around each parameter's valid interval, reaching past its edges
# (the detuning range passes both channels' -resonance).
SWEEP_BOUNDS = {
    "flux_w_cm2": st.floats(-10.0, 1e3),
    "rho22_initial": st.floats(-0.1, 1.2),
    "vessel_length_cm": st.floats(-1.0, 1e3),
    "gas_density_g_cm3": st.floats(-1e-4, 1e-2),
    "detuning_mhz": st.floats(-2e4, 2e4),
}
SWEEP = st.sampled_from(sorted(SWEEP_BOUNDS)).flatmap(lambda parameter: st.tuples(
    st.just(parameter),
    st.lists(_mostly(SWEEP_BOUNDS[parameter]), min_size=2, max_size=2,
             unique=True).map(sorted),
    st.integers(2, 5),
    st.booleans(),
    st.sampled_from(sorted(cli.OBJECTIVES)),
))


def _config_text(config):
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in config.items())


def _run(config, args):
    """(exit code, stdout, stderr) of one in-process command on ``config``."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "run.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_config_text(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([args[0], "--config", path, *args[1:]])
    return code, stdout.getvalue(), stderr.getvalue()


def _checked_run(config, args):
    """Run twice; check the exit code, byte identity and finite numbers.  None on an
    error exit, else the CSV rows and the summary record as strings."""
    first = _run(config, args)
    assert first == _run(config, args)
    code, out, err = first
    assert code in (0, 2, 3), err
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return None
    for line in out.splitlines()[1:] + err.splitlines():
        for cell in line.replace(" = ", ",").split(","):
            try:
                value = float(cell)
            except ValueError:
                continue   # a channel name, a parameter name or no_depletion
            assert math.isfinite(value), line
    return ([line.split(",") for line in out.splitlines()[1:]],
            dict(line.split(" = ") for line in err.splitlines()))


def _check_zeros(config, name, printed, **swept):
    """A printed 0 of ``name`` needs a zero factor in config (with the swept key's value)."""
    if printed == cli.NO_DEPLETION or float(printed) != 0:
        return
    cfg = cli.parse_config(_config_text(config)).replace(**swept)
    factors = {key: getattr(cfg, key) for key in ZERO_FACTORS[name]}
    assert 0 in factors.values(), (name, factors)


def _check_scenario(config):
    result = _checked_run(config, ["scenario"])
    if result is None:
        return
    rows, record = result
    for name in ("eta_peak", "tau_s", "n31", "n_atoms", "sigma_max_cm2"):
        _check_zeros(config, name, record[name])
    f_values = [float(row[3]) for row in rows]
    assert all(0.0 < f <= 1.0 / 3.0 for f in f_values), f_values
    etas = [float(row[5]) for row in rows]
    assert all(later <= earlier for earlier, later in zip(etas, etas[1:])), etas
    # eta reads 0 only where the flux, the ratio or rho22(0) does (the decrement
    # of an exit-0 run is positive)
    cfg = cli.parse_config(_config_text(config))
    if flux_from_field(cli._field(cfg.flux_w_cm2)) > 0 and cfg.ratio > 0 and cfg.rho22_initial > 0:
        assert all(eta > 0 for eta in etas), etas


def _check_sweep(config, parameter, low, high, steps, log, objective):
    args = ["sweep", "--param", parameter, f"--min={low!r}", f"--max={high!r}",
            "--steps", str(steps), "--objective", objective] + (["--log"] if log else [])
    result = _checked_run(config, args)
    if result is None:
        return
    rows = result[0]
    assert len(rows) == steps
    grid = cli.SweepSpec(parameter, low, high, steps, log, objective).grid()
    for value, (_, printed) in zip(grid, rows):
        _check_zeros(config, objective, printed, **{parameter: value})


@PROPERTY_SETTINGS
@given(CONFIG)
def test_scenario_exit_contract(config):
    _check_scenario(config)


@PROPERTY_SETTINGS
@given(CONFIG, SWEEP)
def test_sweep_exit_contract(config, sweep):
    parameter, (low, high), steps, log, objective = sweep
    _check_sweep(config, parameter, low, high, steps, log, objective)


@WHOLE_RANGE_SETTINGS
@given(WHOLE_RANGE, WHOLE_RANGE_SWEEP)
def test_whole_range_exit_contract(config, sweep):
    parameter, bounds = sweep
    _check_scenario(config)
    for objective in cli.OBJECTIVES:
        _check_sweep(config, parameter, *bounds, 2, False, objective)


@WHOLE_RANGE_SETTINGS
@given(WHOLE_RANGE, WHOLE_RANGE_SWEEP, st.booleans())
@example({"channel": "fine_structure"}, ("flux_w_cm2", [1.0, 1e305]), True)
@example({"channel": "lamb_shift"}, ("detuning_mhz", [1.0, 1e200]), True)
def test_whole_range_sweep_equals_per_point_reference(config, sweep, log):
    # run_sweep evaluates float kernels on operands built once; the reference builds
    # the records at every point and calls the public objectives.  Both give the same
    # rows and record, or raise the same error with the same message.  The examples
    # reach a field that overflows and a lineshape that underflows inside the grid.
    parameter, bounds = sweep
    cfg = cli.parse_config(_config_text(config))
    for objective in cli.OBJECTIVES:
        spec = cli.SweepSpec(parameter, *bounds, 5, log, objective)
        assert _outcome(lambda: cli.run_sweep(cfg, spec)[1:]) \
            == _outcome(lambda: _per_point_sweep(cfg, spec)), objective


def _outcome(sweep):
    try:
        return repr(sweep())
    except ValueError as exc:
        return type(exc), str(exc)


@PROPERTY_SETTINGS
@given(st.binary())
def test_any_config_bytes_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "run.cfg")
        with open(path, "wb") as handle:
            handle.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["scenario", "--config", path])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2
    assert code in (0, 2)
