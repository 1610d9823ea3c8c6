"""Self-tests of the benchmark's own machinery: span arithmetic, the tail
percentile rule, generator determinism, the oracles, and failure counting.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle
import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_and_stages_on_synthetic_spans():
    # main [0, 10] > parse_config [1, 3] > ScenarioConfig [1.5, 2.5]
    #              > run_scenario [4, 9] > make_transition_pair [5, 6]
    #                                    > f_beta [7, 7.5]
    clock = FakeClock([0, 1, 1.5, 2.5, 3, 4, 5, 6, 7, 7.5, 9, 10])
    t = spans.Tracer(clock=clock)
    t.enter("cli.main")
    t.enter("cli.parse_config")
    t.enter("cli.ScenarioConfig")
    t.exit()
    t.exit()
    t.enter("cli.run_scenario")
    t.enter("hydrogen.make_transition_pair")
    t.exit()
    t.enter("ensemble.f_beta")
    t.exit()
    t.exit()
    t.exit()
    out = t.collect()
    agg = out["agg"]
    assert agg["cli.main"] == [1, 10, 10 - 2 - 5]
    assert agg["cli.parse_config"] == [1, 2, 1]
    assert agg["cli.ScenarioConfig"] == [1, 1, 1]
    assert agg["cli.run_scenario"] == [1, 5, 5 - 1 - 0.5]
    assert agg["hydrogen.make_transition_pair"] == [1, 1, 1]
    assert agg["ensemble.f_beta"] == [1, 0.5, 0.5]
    # Construction under parse_config is parse; main's own time is parse but
    # does not absorb its children.
    assert out["stages"] == {"parse": 3 + 2, "physics": 1, "evaluate": 3.5 + 0.5}
    assert sum(out["stages"].values()) == 10
    by_id = {s[0]: s for s in out["spans"]}
    main_id = next(s[0] for s in out["spans"] if s[1] == "cli.main")
    assert by_id[main_id][4] == -1
    assert {s[1] for s in out["spans"] if s[4] == main_id} == {"cli.parse_config",
                                                              "cli.run_scenario"}
    assert t.collect()["agg"] == {}


@pytest.mark.parametrize("n, percentile", [
    (5, 50), (19, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (5000, 99)])
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(np.random.default_rng(n).permutation(n) * 0.001)
    p, value = run.tail(samples)
    assert p == percentile
    if p > 50:
        assert sum(s > value for s in samples) >= 10
        assert value == sorted(samples)[-(-p * n // 100) - 1]
    else:
        assert value == pytest.approx(float(np.median(samples)))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seed_deterministic(workload):
    first = [gen.cycle(workload, 5, i) for i in range(3)]
    again = [gen.cycle(workload, 5, i) for i in range(3)]
    assert first == again
    assert gen.cycle(workload, 6, 0) != first[0]
    assert first[1] != first[0]
    for ops in first:
        assert ops[-1] == ops[0]


def test_every_cycle_holds_the_required_regimes():
    for seed in range(5):
        ops = gen.cycle("scenario_series", seed, 0)[:-1]
        cfgs = [op.cfg() for op in ops]
        assert sum(c["flux_w_cm2"] == 0.0 for c in cfgs) == 1
        assert {c["ratio_mode"] for c in cfgs} == {"unity", "hydrogenic", "custom"}
        beta_at_tau = 3 * 2e3 / (32 * math.pi**3)
        beta_max = [c["time_stop_s"] / oracle.tau_of(c) * beta_at_tau
                    for c in cfgs if oracle.tau_of(c)]
        assert min(beta_max) < 1.0 and max(beta_max) > oracle.DEEP_BETA
        pulse = gen.cycle("sweep_pulse", seed, 0)
        assert {op.sweep[:2] for op in pulse} >= {("flux_w_cm2", 0.0)}
        assert {op.sweep[0] for op in pulse} == set(gen.SWEEP_RANGES)
        steps = [op.cfg()["time_steps"] for op in pulse]
        assert min(steps) < 20 and max(steps) > 150
        cold = [op.sweep for op in gen.cycle("cold_cli", seed, 0) if op.kind == "sweep"]
        assert cold[0][:2] == ("flux_w_cm2", 0.0) and cold[0][5] == "tau"


def test_oracle_constants_and_closed_forms():
    assert 1.0 / oracle.GAMMA31 == pytest.approx(1.6e-9, rel=0.02)
    assert oracle.RATIO_HYDROGENIC == pytest.approx(16.22, rel=1e-3)
    assert oracle.f_beta(0.0) == 1.0 / 3.0
    below, above = oracle.f_beta([0.1 - 1e-12, 0.1])
    assert below == pytest.approx(above, rel=1e-10)
    assert oracle.g_beta(1e-9) == pytest.approx(1.0 / 3.0, rel=1e-8)
    # The trapezoid converges to the exact-G pulse energy from above.
    cfg = {"channel": "lamb_shift", "flux_w_cm2": 2.0, "time_stop_s": 5e-7}
    gaps = []
    for steps in (11, 101, 1001):
        trap, exact = oracle.Physics({**cfg, "time_steps": steps}).pulse_bounds()
        assert trap > exact
        gaps.append(trap / exact - 1.0)
    assert gaps[1] < gaps[0] / 50 and gaps[2] < gaps[1] / 50


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        150 |       numpy.core",
        "import time:       200 |        350 |     numpy",
        "import time:        50 |         60 |         numpy.linalg",
        "import time:       400 |        460 |       scipy.integrate",
        "import time:       100 |       1000 |     mwoptical.hydrogen",
        "import time:        10 |       1010 |   mwoptical",
        "import time:        30 |         30 | mwoptical.cli",
        "import time:         5 |       1015 | mwoptical",
    ])
    got = spans.parse_importtime(text)
    assert got["hydrogen.import_cum_s"] == pytest.approx(1000e-6)
    assert got["hydrogen.import_numpy_s"] == pytest.approx(350e-6)
    assert got["hydrogen.import_scipy_s"] == pytest.approx(460e-6)
    assert got["cli.import_cum_s"] == pytest.approx(1045e-6)


def _program_output(runner, op):
    from mwoptical import cli
    config, out, summary = (runner.dir / n for n in ("config.cfg", "out.csv", "summary.txt"))
    config.write_text(op.config_text(), encoding="utf-8")
    assert cli.main(op.argv(str(config), str(out), str(summary))) == 0


@pytest.mark.parametrize("op", [
    gen.Op("scenario", (("channel", "fine_structure"), ("ratio_mode", "hydrogenic"),
                        ("detuning_mhz", 40.0), ("time_stop_s", 3e-6), ("time_steps", 51))),
    gen.Op("sweep", (("channel", "lamb_shift"), ("time_steps", 21)),
           sweep=("flux_w_cm2", 0.0, 5.0, 9, False, "pulse_energy")),
    gen.Op("sweep", (("channel", "lamb_shift"),),
           sweep=("flux_w_cm2", 0.0, 5.0, 9, False, "tau")),
])
def test_a_wrong_output_is_counted_as_failed(tmp_path, op):
    runner = run.Runner("scenario_series", tmp_path)
    runner.execute = lambda op, traced=False: (0, 0.01, 0.01, None)
    _program_output(runner, op)
    rows = op.cfg()["time_steps"] if op.kind == "scenario" else op.sweep[3]
    assert runner.run_op(op) == (0.01, 0.01, rows, False)

    out = runner.dir / "out.csv"
    lines = out.read_text(encoding="utf-8").split("\n")
    fields = lines[3].split(",")
    fields[-1] = f"{float(fields[-1]) * (1 + 1e-7):.8e}"
    lines[3] = ",".join(fields)
    out.write_text("\n".join(lines), encoding="utf-8")
    assert runner.run_op(op)[3] is True
    assert runner.failures and "differs from an earlier run" in runner.failures[-1]

    runner.execute = lambda op, traced=False: (3, 0.01, 0.01, "ValueError")
    assert runner.run_op(op)[3] is True


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert spec["paths"] == [Path(run.HERE).name]
