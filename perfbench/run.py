"""mwoptical benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see gen.py for the input ranges and BENCHMARK.json for why each
exists), each a closed loop with one caller:
  cold_cli           fresh-interpreter `mwoptical` commands, one after another
  scenario_series    in-process `scenario` on long time grids
  sweep_pulse        in-process `sweep` of pulse_energy

Every command's output is checked against the independent oracles in
oracle.py.  With --trace 0 the last stdout line reports the end-to-end
metrics; with --trace 1 it reports the per-layer metrics of spans.py, taken
over cycle 0 of the workload (which every traced run completes, so counts
repeat exactly for a seed).  Scratch files live under perfbench/out/.

Command times are CPU seconds of the process doing the work (user + system,
from wait4 for cold commands), not wall seconds: on a shared virtual machine
the wall clock also counts time the host gives to other tenants, which no
change to mwoptical can move.  Wall-clock figures are printed as records.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3             # worker start-ups per run; setup_s is their median
TAIL_LADDER = (99, 95, 90, 75, 50)     # percentiles tried for cmd_tail_s
WATCHDOG_S = 170

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cmd_p50_s", "s", "lower"),
    ("cmd_tail_s", "s", "lower"),
    ("rows_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("hydrogen.import_cum_s", "s", "lower"),
    ("hydrogen.import_scipy_s", "s", "lower"),
    ("hydrogen.import_numpy_s", "s", "lower"),
    ("cli.import_cum_s", "s", "lower"),
    ("hydrogen.make_transition_pair.calls", "count", "lower"),
    ("hydrogen.make_transition_pair.self_s", "s", "lower"),
    ("hydrogen.make_transition_pair.calls_per_op", "calls/op", "lower"),
    ("hydrogen.make_transition_pair.calls_per_row", "calls/row", "lower"),
    ("hydrogen.radial_dipole_integral.cache_hit_ratio", "ratio", "higher"),
    ("coupling.detuning_lineshape.calls", "count", "lower"),
    ("coupling.MicrowaveDrive.constructions", "count", "lower"),
    ("units.flux_from_field.calls", "count", "lower"),
    ("units.flux_from_field.self_s", "s", "lower"),
    ("ensemble.f_beta.calls", "count", "lower"),
    ("ensemble.f_beta.self_s", "s", "lower"),
    ("ensemble.f_beta.series_share", "ratio", "lower"),
    ("ensemble.beta_of.calls", "count", "lower"),
    ("ensemble.beta_of.self_s", "s", "lower"),
    ("ensemble.beta_of.calls_per_row", "calls/row", "lower"),
    ("ensemble.total_intensity.calls", "count", "lower"),
    ("ensemble.total_intensity.self_s", "s", "lower"),
    ("ensemble.EnsembleConfig.constructions", "count", "lower"),
    ("cli.parse_config.self_s", "s", "lower"),
    ("cli.run_scenario.self_s", "s", "lower"),
    ("cli.run_sweep.self_s", "s", "lower"),
    ("cli.format_csv.self_s", "s", "lower"),
    ("cli.format_csv.bytes", "bytes", "lower"),
    ("cli.format_summary.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stage.parse_s", "s", "lower"),
    ("cli.stage.physics_s", "s", "lower"),
    ("cli.stage.evaluate_s", "s", "lower"),
    ("cli.stage.format_s", "s", "lower"),
    ("cli.stage.write_s", "s", "lower"),
    ("dynamics.calls", "count", "lower"),
    ("share.import", "ratio", "lower"),
    ("share.units", "ratio", "lower"),
    ("share.hydrogen", "ratio", "lower"),
    ("share.coupling", "ratio", "lower"),
    ("share.dynamics", "ratio", "lower"),
    ("share.ensemble", "ratio", "lower"),
    ("share.cli", "ratio", "lower"),
    ("design.dominant_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.rows", "count", "higher"),
]
# The layer each workload is built to stress, as named in design.dominant_share.
DOMINANT = {
    "cold_cli": "hydrogen import (hydrogen.import_cum_s)",
    "scenario_series": "ensemble self time + cli.format_csv",
    "sweep_pulse": "ensemble.total_intensity, children included",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(samples):
    """(percentile, value): the highest ladder percentile (nearest rank) that
    leaves at least ten samples above it; the median when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER[:-1]:
        rank = _rank(p, n)
        if n - rank - 1 >= 10:
            return p, ordered[rank]
    return 50, statistics.median(ordered)


class Worker:
    """A warm `worker.py serve` process; construction measures its set-up."""

    def __init__(self, workdir, errfile, importtime=False):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            str(HERE / "worker.py"), "serve", str(workdir)]
        self.errfile = errfile
        start = time.perf_counter()
        with open(errfile, "wb") as err:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err, cwd=workdir, text=True)
        ready = self._recv()
        self.setup_wall_s = time.perf_counter() - start
        self.setup_s = ready["cpu"]

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            with open(self.errfile, encoding="utf-8", errors="replace") as err:
                raise BenchError("worker exited:\n" + err.read()[-2000:])
        return json.loads(line)

    def call(self, **msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self):
        """Stop the worker; returns its peak RSS in MB."""
        try:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.close()
        except OSError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


class Runner:
    """Runs, checks and records operations of one workload."""

    FILES = ("config.cfg", "out.csv", "summary.txt", "stdout.txt", "stderr.txt", "trace.json")

    def __init__(self, workload, workdir):
        self.cold = workload == "cold_cli"
        self.dir = workdir
        self.worker = None
        self.child = None
        self.digests = {}
        self.max_child_rss = 0.0
        self.child_traces = []
        self.child_imports = []
        self.failures = []
        self.regimes = {}
        self.kinds = {}

    def _paths(self):
        return [self.dir / name for name in self.FILES]

    def execute(self, op, traced=False):
        """Run one op; returns (rc, wall_s, cpu_s, error)."""
        config, out, summary, stdout, stderr, trace_file = paths = self._paths()
        for path in paths:
            path.unlink(missing_ok=True)
        if op.config:
            config.write_text(op.config_text(), encoding="utf-8")
        argv = op.argv(str(config), str(out), str(summary))
        if not self.cold:
            reply = self.worker.call(op="run", argv=argv)
            return reply["rc"], reply["wall"], reply["cpu"], reply["error"]
        cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
            str(HERE / "worker.py"), "cmd"] + (["--trace-out", str(trace_file)] if traced else [])
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            start = time.perf_counter()
            proc = self.child = subprocess.Popen(cmd + ["--"] + argv, stdout=so, stderr=se,
                                                 cwd=self.dir)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        self.child = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss = max(self.max_child_rss, usage.ru_maxrss / 1024.0)
        if traced and trace_file.exists():
            self.child_traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
            self.child_imports.append(spans.parse_importtime(stderr.read_text(encoding="utf-8")))
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, None

    def check(self, op, rc, error):
        """Check one op's outputs; returns its Report."""
        _, out, summary, stdout, _, _ = self._paths()
        rep = oracle.Report()
        texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in (out, summary, stdout)]
        if rc != 0:
            rep.failures.append(f"exit code {rc}" + (f": {error}" if error else ""))
        else:
            csv_text, summary_text, stdout_text = texts
            try:
                if op.kind == "scenario":
                    oracle.check_scenario(rep, op.cfg(), csv_text, summary_text)
                elif op.kind == "sweep":
                    oracle.check_sweep(rep, op.cfg(), op.sweep, csv_text, summary_text)
                elif op.kind == "fig1":
                    oracle.check_fig1(rep, *op.fig1, csv_text)
                elif op.kind == "constants":
                    oracle.check_constants(rep, stdout_text)
                else:
                    oracle.check_transition(rep, op.channel, stdout_text)
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                rep.failures.append(f"output the checker cannot read: {exc!r}")
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        first = self.digests.setdefault(op, digest)
        if first != digest:
            rep.failures.append("output differs from an earlier run of the same command")
        return rep

    def run_op(self, op, traced=False):
        """Execute and check; returns (wall_s, cpu_s, rows, failed)."""
        rc, wall, cpu, error = self.execute(op, traced)
        rep = self.check(op, rc, error)
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        for key, n in rep.regimes.items():
            self.regimes[key] = self.regimes.get(key, 0) + n
        if rep.failures:
            self.failures.append(f"{op.kind}: " + "; ".join(rep.failures))
        return wall, cpu, rep.rows, bool(rep.failures)


def _setups(workdir, keep):
    """Start SETUPS workers one after another; returns the median set-up CPU
    and wall seconds, and the last worker when ``keep``, else None."""
    cpu, wall = [], []
    for i in range(SETUPS):
        worker = Worker(workdir, workdir / f"worker-{i}.err")
        cpu.append(worker.setup_s)
        wall.append(worker.setup_wall_s)
        if i < SETUPS - 1 or not keep:
            worker.close()
    return statistics.median(cpu), statistics.median(wall), worker if keep else None


def measure(runner, workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    setup_s, setup_wall_s, runner.worker = _setups(runner.dir, keep=not runner.cold)
    walls, cpus, rates, rows, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    index = 0
    # Whole cycles only, so every run holds the same mix of regimes.
    while index == 0 or time.perf_counter() < deadline:
        for op in gen.cycle(workload, seed, index):
            wall, cpu, n, bad = runner.run_op(op)
            walls.append(wall)
            cpus.append(cpu)
            if n:
                rates.append(n / cpu)
            rows += n
            failed += bad
        index += 1
    peak = runner.max_child_rss if runner.cold else runner.worker.close()
    runner.worker = None
    p, tail_s = tail(cpus)
    metrics = {"setup_s": setup_s, "cmd_p50_s": statistics.median(cpus),
               "cmd_tail_s": tail_s, "rows_per_s": statistics.median(rates), "peak_rss_mb": peak}
    notes = {"ops": len(cpus), "rows": rows, "cycles": index,
             "tail_percentile": p, "tail_samples_beyond": sum(c > tail_s for c in cpus),
             "wall_setup_s": setup_wall_s, "wall_cmd_p50_s": statistics.median(walls),
             "wall_cmd_tail_s": tail(walls)[1], "rows_per_cpu_s": rows / sum(cpus)}
    return metrics, len(cpus), failed, notes


def _rank(p, n):
    return max(0, -(-p * n // 100) - 1)


def _pass_metrics(workload, agg, walls, cpu, rows, untraced_cpu, imports, n_proc):
    """Per-layer metrics of one traced pass over cycle 0.  Shares divide span
    time by op wall time, the clock spans use; the tracing overhead compares
    CPU time, which time taken by other tenants of the machine does not enter."""
    a = agg["agg"]

    def calls(name):
        return a.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return a.get(name, [0, 0.0, 0.0])[2]

    wall, ops = sum(walls), len(walls)
    layer_self = {layer: sum(v[2] for k, v in a.items() if k.split(".", 1)[0] == layer)
                  for layer in spans.LAYERS}
    hits, misses = agg["cache"]
    f_calls = calls("ensemble.f_beta")
    m = dict(imports)
    m.update({
        "hydrogen.make_transition_pair.calls": calls("hydrogen.make_transition_pair"),
        "hydrogen.make_transition_pair.self_s": self_s("hydrogen.make_transition_pair"),
        "hydrogen.make_transition_pair.calls_per_op": calls("hydrogen.make_transition_pair") / ops,
        "hydrogen.make_transition_pair.calls_per_row":
            calls("hydrogen.make_transition_pair") / max(rows, 1),
        "hydrogen.radial_dipole_integral.cache_hit_ratio": hits / max(hits + misses, 1),
        "coupling.detuning_lineshape.calls": calls("coupling.detuning_lineshape"),
        "coupling.MicrowaveDrive.constructions": calls("coupling.MicrowaveDrive"),
        "units.flux_from_field.calls": calls("units.flux_from_field"),
        "units.flux_from_field.self_s": self_s("units.flux_from_field"),
        "ensemble.f_beta.calls": f_calls,
        "ensemble.f_beta.self_s": self_s("ensemble.f_beta"),
        "ensemble.f_beta.series_share":
            agg["counters"].get("ensemble.f_beta.series", 0) / max(f_calls, 1),
        "ensemble.beta_of.calls": calls("ensemble.beta_of"),
        "ensemble.beta_of.self_s": self_s("ensemble.beta_of"),
        "ensemble.beta_of.calls_per_row": calls("ensemble.beta_of") / max(rows, 1),
        "ensemble.total_intensity.calls": calls("ensemble.total_intensity"),
        "ensemble.total_intensity.self_s": self_s("ensemble.total_intensity"),
        "ensemble.EnsembleConfig.constructions": calls("ensemble.EnsembleConfig"),
        "cli.format_csv.bytes": agg["counters"].get("cli.format_csv.bytes", 0),
        "dynamics.calls": sum(v[0] for k, v in a.items() if k.startswith("dynamics.")),
        "share.import": imports["cli.import_cum_s"] * n_proc / wall,
        "trace.overhead_ratio": cpu / untraced_cpu,
        "trace.ops": ops,
        "trace.rows": rows,
    })
    for name in ("parse_config", "run_scenario", "run_sweep", "format_csv",
                 "format_summary", "main"):
        m[f"cli.{name}.self_s"] = self_s(f"cli.{name}")
    for stage in ("parse", "physics", "evaluate", "format", "write"):
        m[f"cli.stage.{stage}_s"] = agg["stages"].get(stage, 0.0)
    for layer in spans.LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / wall
    m["design.dominant_share"] = {
        "cold_cli": imports["hydrogen.import_cum_s"] * n_proc,
        "scenario_series": layer_self["ensemble"] + self_s("cli.format_csv"),
        "sweep_pulse": a.get("ensemble.total_intensity", [0, 0.0, 0.0])[1],
    }[workload] / wall
    return m


def _merge(traces):
    """Sum span aggregates of several cold commands; their spans take the
    command's index as op id (span ids are unique within one op)."""
    out = {"agg": {}, "stages": {}, "counters": {}, "cache": [0, 0], "spans": []}
    for op, t in enumerate(traces):
        for k, v in t["agg"].items():
            acc = out["agg"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for key in ("stages", "counters"):
            for k, v in t[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["cache"] = [out["cache"][0] + t["cache"][0], out["cache"][1] + t["cache"][1]]
        out["spans"].extend(span[:5] + [op] for span in t["spans"])
    return out


def measure_traced(runner, workload, seed, seconds):
    """Traced run: cycle 0 untraced once, then traced until the time is up."""
    start = time.perf_counter()
    cycle = gen.cycle(workload, seed, 0)
    imports = None
    if not runner.cold:
        errfile = runner.dir / "worker-traced.err"
        runner.worker = Worker(runner.dir, errfile, importtime=True)
        imports = spans.parse_importtime(errfile.read_text(encoding="utf-8"))
    untraced = [runner.run_op(op) for op in cycle]
    if not runner.cold:
        runner.worker.call(op="trace")
        cache_before = runner.worker.call(op="collect")["cache"]
    passes, failed, attempted, kept = [], sum(r[3] for r in untraced), len(untraced), None
    while not passes or time.perf_counter() < start + seconds:
        results = [runner.run_op(op, traced=True) for op in cycle]
        attempted += len(results)
        failed += sum(r[3] for r in results)
        if runner.cold:
            agg = _merge(runner.child_traces)
            imports = {k: statistics.median(d[k] for d in runner.child_imports)
                       for k in runner.child_imports[0]}
            n_proc = len(runner.child_traces)
            runner.child_traces, runner.child_imports = [], []
        else:
            agg = runner.worker.call(op="collect")
            hits, misses = agg["cache"]
            agg["cache"] = [hits - cache_before[0], misses - cache_before[1]]
            cache_before = [hits, misses]
            n_proc = 0
        kept = kept or agg["spans"]
        passes.append(_pass_metrics(workload, agg, [r[0] for r in results],
                                    sum(r[1] for r in results), sum(r[2] for r in results),
                                    sum(r[1] for r in untraced), imports, n_proc))
    if not runner.cold:
        runner.worker.close()
        runner.worker = None
    with open(OUT / f"spans-{workload}.jsonl", "w", encoding="utf-8") as handle:
        for span in kept:
            handle.write(json.dumps(span) + "\n")
    metrics = {}
    for name, _, _ in PER_LAYER:
        timed = name.endswith("_s") or name.split(".")[0] in ("share", "design") \
            or name == "trace.overhead_ratio"
        metrics[name] = (statistics.median(p[name] for p in passes) if timed
                         else passes[0][name])
    notes = {"traced_passes": len(passes), "cycle_ops": len(cycle),
             "counts_repeat": all(_counts(p) == _counts(passes[0]) for p in passes)}
    return metrics, attempted, failed, notes


def _counts(m):
    return {k: v for k, v in m.items() if k.endswith(".calls") or k.endswith("constructions")}


def probe():
    """CPU seconds of a fixed pure-Python loop (median of five): an index of
    how fast the machine ran, to read run-to-run differences against."""
    times = []
    for _ in range(5):
        start = time.process_time()
        total = 0
        for k in range(200000):
            total += k * k
        times.append(time.process_time() - start)
    return statistics.median(times)


def regime_shares(counts):
    """Share of f_beta evaluations on the series branch and at beta >> 6, and
    share of CSV rows with zero drive, no depletion, and each ratio mode."""
    rows = sum(v for k, v in counts.items() if k.startswith("ratio_")) or 1
    evals = counts.get("f_evals", 0) or 1
    return {key: round(n / (evals if key in ("f_series_branch", "beta_deep") else rows), 4)
            for key, n in sorted(counts.items()) if key != "f_evals"}


def machine_record():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit()}


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mwoptical" / "cli.py").is_file():
        print(f"error: no mwoptical sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: mwoptical sources do not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    oracle.f_beta(0.5)                     # load scipy.special before timing
    runner = Runner(args.workload, workdir)

    def stop(signum, frame):
        raise BenchError(f"stopped by {signal.Signals(signum).name}"
                         + (f" after {WATCHDOG_S} s" if signum == signal.SIGALRM else ""))

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(WATCHDOG_S)
    probe_before = probe()
    try:
        if args.trace:
            metrics, attempted, failed, notes = measure_traced(runner, args.workload, args.seed,
                                                               args.seconds)
            spec = PER_LAYER
        else:
            metrics, attempted, failed, notes = measure(runner, args.workload, args.seed,
                                                        args.seconds)
            spec = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        if runner.worker is not None:
            runner.worker.kill()
        if runner.child is not None:
            runner.child.kill()
            runner.child.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    notes.update(probe_before_s=probe_before, probe_after_s=probe())
    units = {name: unit for name, unit, _ in spec}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_record(), "op_kinds": runner.kinds,
              "attempted": attempted, "failed": failed, **notes,
              "regime_shares": regime_shares(runner.regimes)}
    for key, value in record.items():
        print(f"record {key} = {value}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    if not args.trace:
        if args.workload.startswith("sweep"):
            print(f"metric points_per_s = {metrics['rows_per_s']:.6g} 1/s")
    else:
        print(f"design dominant layer ({DOMINANT[args.workload]}) share = "
              f"{metrics['design.dominant_share']:.3f} of op wall time")
    print(f"metric failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for failure in runner.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(OUT / f"record-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"record": record, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
