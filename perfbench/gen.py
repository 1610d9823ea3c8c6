"""Seeded operation generator for the three benchmark workloads.

A workload is an endless sequence of cycles; cycle i is drawn from its own
random stream, derived from (workload, seed, i), so a seed always gives the
same operations.  The properties that set an operation's cost follow a fixed
design of slots, the same in every cycle and for every seed: grid size,
time span in depletion times (which sets the share of rows on the f_beta
series branch), objective and swept parameter.  The seed draws everything
else (channel, flux, detuning, ratio mode and value, vessel, gas, excitation)
and the order, so runs with different seeds measure the same amount of work
on different inputs.  The first slot of a cycle runs again at its end, so byte
identity is checked in every cycle.

Why the ranges:
- flux 0.01 to 100 W/cm^2: four decades around the paper's 1 W/cm^2 worked
  example, from weak coupling to well outside it.  The time grid is set in
  depletion times, so flux does not change the work.
- time_stop_s 0.01 to 30 depletion times: beta at the last row then runs from
  0.06 (every row on the f_beta series branch) to 180 (beta >> 6).
- scenario grids of 1.6e4 to 2.5e4 rows: long series as users run them,
  sized so a run holds over 100 of them.
- pulse sweeps of 11 to 201 time steps over all five parameters, with points
  scaled to the group's cost: a few hundred sweeps per run.
- cold commands use the sizes of the README examples (101-step scenario,
  25-point sweep), because there start-up, not size, is the cost.
- flux 0 appears in every scenario cycle and the linear flux sweep starts at
  0, so the zero-drive and no_depletion paths always run.
"""

import math
import random
from dataclasses import dataclass

import oracle

WORKLOADS = ("cold_cli", "scenario_series", "sweep_pulse")

SWEEP_RANGES = {   # parameter -> (linear range, log range)
    "flux_w_cm2": ((0.0, 100.0), (1e-3, 1e3)),
    "rho22_initial": ((1e-5, 1e-2), (1e-7, 1e-1)),
    "vessel_length_cm": ((1.0, 100.0), (0.1, 1000.0)),
    "gas_density_g_cm3": ((1e-6, 1e-3), (1e-7, 1e-2)),
    "detuning_mhz": ((-500.0, 500.0), (0.1, 1000.0)),
}


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``config`` is the scenario file as (key, value) pairs;
    ``sweep`` is (param, min, max, steps, log, objective)."""

    kind: str
    config: tuple = ()
    channel: str = ""
    fig1: tuple = ()
    sweep: tuple = ()

    def cfg(self):
        return dict(self.config)

    def config_text(self):
        return "".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in self.config)

    def argv(self, config_path, out_path, summary_path):
        if self.kind == "constants":
            return ["constants"]
        if self.kind == "transition":
            return ["transition", self.channel]
        if self.kind == "fig1":
            beta_max, steps = self.fig1
            return ["fig1", "--beta-max", repr(beta_max), "--steps", str(steps),
                    "--out", out_path]
        if self.kind == "scenario":
            return ["scenario", "--config", config_path, "--out", out_path,
                    "--summary", summary_path]
        param, lo, hi, steps, log, objective = self.sweep
        return (["sweep", "--config", config_path, "--param", param, "--min", repr(lo),
                 "--max", repr(hi), "--steps", str(steps)] + (["--log"] if log else [])
                + ["--objective", objective, "--out", out_path, "--summary", summary_path])


def ladder(n, lo, hi):
    """n fixed steps across [lo, hi], at the middles of n equal log slices."""
    return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _physics(rng, ratio_mode, flux, detuning):
    """Scenario keys other than the time grid, as an ordered dict."""
    cfg = {
        "channel": rng.choice(sorted(oracle.CHANNELS)),
        "flux_w_cm2": flux,
        "detuning_mhz": detuning,
        "vessel_length_cm": _log_uniform(rng, 1.0, 100.0),
        "vessel_area_cm2": _log_uniform(rng, 0.1, 10.0),
        "gas_density_g_cm3": _log_uniform(rng, 1e-5, 1e-3),
        "rho22_initial": _log_uniform(rng, 1e-6, 1e-2),
        "ratio_mode": ratio_mode,
    }
    if ratio_mode == "custom":
        cfg["ratio_value"] = _log_uniform(rng, 0.1, 30.0)
    return cfg


def _time_grid(cfg, depletion_times, steps, late_start=False):
    tau = oracle.tau_of(cfg)
    stop = 1.0e-6 if tau is None else depletion_times * tau
    cfg["time_start_s"] = 0.25 * stop if late_start else 0.0
    cfg["time_stop_s"] = stop
    cfg["time_steps"] = steps
    return cfg


def _modes(rng, n):
    return _shuffled(rng, (["unity", "hydrogenic", "custom"] * n)[:n])


def _scenario(rng, mode, steps, span, zero_flux=False, late=False):
    flux = 0.0 if zero_flux else _log_uniform(rng, 0.01, 100.0)
    detuning = rng.choice([0.0, rng.uniform(-300.0, 300.0)])
    return Op("scenario", tuple(_time_grid(_physics(rng, mode, flux, detuning),
                                           span, steps, late).items()))


def _sweep(rng, mode, slot, points, objective, span, time_steps):
    param, log = slot
    lo, hi = SWEEP_RANGES[param][log]
    flux = _log_uniform(rng, 0.1, 10.0)
    detuning = rng.choice([0.0, rng.uniform(-100.0, 100.0)])
    cfg = _time_grid(_physics(rng, mode, flux, detuning), span, time_steps)
    return Op("sweep", tuple(cfg.items()), sweep=(param, lo, hi, points, log, objective))


# Sweep slots (parameter, log) in a fixed order; the linear flux sweep is
# index 0 and starts at zero drive.
SWEEP_SLOTS = [(param, log) for param in SWEEP_RANGES for log in (False, True)]

# Cost designs.  Scenario slots all cost about the same, so every percentile
# falls inside one group; slots are (rows, depletion times, zero drive, late
# start), and since rows on the f_beta series branch cost about 1.5 times an
# erf row and zero-drive rows about 1.07 times, those slots are shortened to
# the cost of a 25000-row slot.  (Scenario commands that cost several times
# more were tried as a tail group: their CPU time swung 30% between sets of
# runs on a shared host, against 9% for the rest.)  Pulse sweeps form a lower
# group of equal cost (slot 0, run twice, and five more) and an upper group of
# four dearer ones making up a third of the cycle, so the median falls inside
# the lower group and every tail percentile from p75 to p99 inside the upper
# one, whatever the number of commands a run holds.
SCENARIO_DESIGN = ([(25000, span, False, i in (2, 5)) for i, span in enumerate(ladder(8, 0.1, 30.0))]
                   + [(16000, 0.012, False, False), (23000, 1.0, True, False)])
PULSE_GRID_EVALUATIONS = [14000] * 6 + [35000] * 4


def cycle(workload, seed, index):
    """The operations of cycle ``index``; its last one repeats its first."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "scenario_series":
        modes = _modes(rng, len(SCENARIO_DESIGN))
        ops = [_scenario(rng, modes[i], steps, span, zero_flux=zero, late=late)
               for i, (steps, span, zero, late) in enumerate(SCENARIO_DESIGN)]
    elif workload == "sweep_pulse":
        steps, spans, modes = ladder(10, 11, 201), ladder(10, 0.01, 30.0), _modes(rng, 10)
        # Points per sweep follow the group's budget of grid evaluations; a
        # sweep point costs about as much as eight of them.
        ops = [_sweep(rng, modes[i], SWEEP_SLOTS[(7 * i + 2) % 10],
                      round(budget / (round(steps[j]) + 8)), "pulse_energy",
                      spans[(3 * i + 1) % 10], round(steps[j]))
               for i, (j, budget) in enumerate(zip((0, 9, 2, 7, 4, 5, 6, 3, 8, 1),
                                                   PULSE_GRID_EVALUATIONS))]
    elif workload == "cold_cli":
        modes = _modes(rng, 3)
        # The sweep's objective rotates with the cycle; tau sweeps run the
        # linear flux sweep, so cycle 0 always emits no_depletion points.
        objective = ("tau", "eta_max_peak", "pulse_energy")[index % 3]
        slot = SWEEP_SLOTS[0] if objective == "tau" else rng.choice(SWEEP_SLOTS)
        ops = [_scenario(rng, modes[0], rng.randint(96, 106), _log_uniform(rng, 0.01, 30.0)),
               Op("constants"),
               Op("transition", channel=rng.choice(sorted(oracle.CHANNELS))),
               Op("fig1", fig1=(_log_uniform(rng, 1.0, 100.0), rng.randint(191, 211))),
               _sweep(rng, modes[1], slot, rng.randint(23, 27), objective,
                      _log_uniform(rng, 0.01, 30.0), rng.randint(96, 106)),
               _scenario(rng, modes[2], rng.randint(96, 106), 1.0, zero_flux=True)]
    else:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    ops = [ops[0]] + _shuffled(rng, ops[1:])
    return ops + [ops[0]]
