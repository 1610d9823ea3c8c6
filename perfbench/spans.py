"""Span tracing of mwoptical from outside the package.

``install`` wraps the public functions of each module, and the dataclass
constructors, with span recorders, and rebinds every mwoptical namespace that
holds the same object (cli binds names at import, and ensemble reaches
``f_beta`` and ``beta_of`` through its module globals).  A few private cli
helpers are wrapped too, when present, to split the stages that a
``--timings`` flag would report.

A span's self time is its duration minus the time its child spans cover.
Each self time goes to one stage (parse, physics, evaluate, format, write):
the span's own stage, except that everything below ``parse_config`` or the
config reader counts as parse.  Aggregates are exact for every span; the
first ``keep`` spans are also kept whole: (id, name, start, end, parent id, op).
"""

import dataclasses
import sys
import time

LAYERS = ("units", "hydrogen", "coupling", "dynamics", "ensemble", "cli")
LAYER_STAGE = {"units": "physics", "hydrogen": "physics", "coupling": "physics",
               "dynamics": "evaluate", "ensemble": "evaluate", "cli": "evaluate"}
CLI_EXTRA = ("format_summary", "_read_config_file", "_write_text",
             "_scenario_physics", "_objective_value", "_eta")
STAGE = {
    "cli.main": "parse", "cli.parse_config": "parse", "cli._read_config_file": "parse",
    "cli.SweepSpec": "parse", "cli.ScenarioConfig": "physics",
    "cli._scenario_physics": "physics", "ensemble.EnsembleConfig": "physics",
    "cli.format_csv": "format", "cli.format_summary": "format", "cli._write_text": "write",
}
ABSORBS = {"cli.parse_config", "cli._read_config_file"}
SERIES_CUTOFF = 0.1


class Tracer:
    """Span recorder with exact online self-time aggregation."""

    def __init__(self, clock=time.perf_counter, keep=20000):
        self.clock = clock
        self.keep = keep
        self.stack = []
        self.next_id = 0
        self.op = 0
        self.reset()

    def reset(self):
        self.agg = {}        # name -> [calls, total_s, self_s]
        self.stages = {}     # stage -> self_s
        self.counters = {}   # name -> count, for argument/result hooks
        self.spans = []

    def enter(self, name):
        stack = self.stack
        if stack and stack[-1][5]:
            stage, absorbs = "parse", True
        else:
            stage, absorbs = STAGE.get(name) or LAYER_STAGE[name.split(".", 1)[0]], name in ABSORBS
        span_id = self.next_id
        self.next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append([span_id, name, self.clock(), 0.0, stage, absorbs, parent])

    def exit(self):
        end = self.clock()
        span_id, name, start, child, stage, _, parent = self.stack.pop()
        dur = end - start
        own = dur - child
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += own
        self.stages[stage] = self.stages.get(stage, 0.0) + own
        if self.stack:
            self.stack[-1][3] += dur
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent, self.op))

    def bump(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def collect(self):
        out = {"agg": self.agg, "stages": self.stages, "counters": self.counters,
               "spans": self.spans}
        self.reset()
        return out


def _wrap(tracer, name, fn):
    enter, exit_ = tracer.enter, tracer.exit
    if name == "ensemble.f_beta":
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                if args and args[0] < SERIES_CUTOFF:
                    tracer.bump("ensemble.f_beta.series")
                return fn(*args, **kwargs)
            finally:
                exit_()
    elif name == "cli.format_csv":
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                text = fn(*args, **kwargs)
                tracer.bump("cli.format_csv.bytes", len(text))
                return text
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Wrap mwoptical's public callables; returns the unwrapped
    ``radial_dipole_integral`` so its cache statistics stay readable."""
    import mwoptical.cli  # noqa: F401  (loads every layer)

    modules = {n: m for n, m in sys.modules.items()
               if n == "mwoptical" or n.startswith("mwoptical.")}
    swaps = {}
    for layer in LAYERS:
        module = modules[f"mwoptical.{layer}"]
        names = list(getattr(module, "__all__", ())) + list(CLI_EXTRA if layer == "cli" else ())
        for attr in names:
            obj = getattr(module, attr, None)
            if isinstance(obj, type):
                if dataclasses.is_dataclass(obj) and not issubclass(obj, BaseException):
                    obj.__init__ = _wrap(tracer, f"{layer}.{obj.__name__}", obj.__init__)
            elif callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                swaps[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            swap = swaps.get(id(value))
            if swap is not None and swap[0] is value:
                setattr(module, attr, swap[1])
    return modules["mwoptical.hydrogen"].radial_dipole_integral.__wrapped__


def parse_importtime(text):
    """Cumulative import seconds from ``-X importtime`` output: the hydrogen
    module, scipy and numpy where the program first imports them (outside
    each other), and the whole package as the CLI entry point loads it."""
    entries = []   # [level, name, cumulative_s, parent entry]
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        if not cum.strip().isdigit():
            continue
        entry = [(len(name) - len(name.lstrip(" "))) // 2, name.strip(), int(cum) * 1e-6, None]
        while pending and pending[-1][0] > entry[0]:
            pending.pop()[3] = entry
        pending.append(entry)
        entries.append(entry)

    def root(entry):
        return entry[1].split(".", 1)[0]

    def first_import(package):
        total = 0.0
        for entry in entries:
            parent = entry[3]
            while parent is not None and root(parent) not in ("numpy", "scipy"):
                parent = parent[3]
            if root(entry) == package and parent is None:
                total += entry[2]
        return total

    return {"hydrogen.import_cum_s": sum(e[2] for e in entries if e[1] == "mwoptical.hydrogen"),
            "hydrogen.import_scipy_s": first_import("scipy"),
            "hydrogen.import_numpy_s": first_import("numpy"),
            "cli.import_cum_s": sum(e[2] for e in entries
                                    if e[0] == 0 and root(e) == "mwoptical")}
