"""Child process of the benchmark; imports mwoptical from the checkout's src/.

    python3 worker.py cmd [--trace-out FILE] -- ARGS...
        One cold `mwoptical ARGS...` command, as the console script runs it.
    python3 worker.py serve WORKDIR
        Import, warm up, then run CLI commands sent as JSON lines on stdin
        and answer each with one JSON line on stdout.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def cold(argv):
    trace_out = None
    if argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    argv = argv[1:]                      # drop "--"
    if trace_out is None:
        sys.argv = ["mwoptical"] + argv
        from mwoptical.cli import run
        run()
    from mwoptical import cli            # first, so -X importtime charges the package
    import json
    import spans
    tracer = spans.Tracer()
    radial = spans.install(tracer)
    try:
        rc = cli.main(argv)
    finally:
        info = radial.cache_info()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({**tracer.collect(), "cache": [info.hits, info.misses]}, handle)
    raise SystemExit(rc)


def _warm_up(cli, workdir):
    """Fill the lru_caches and touch every command path the workloads use."""
    config = os.path.join(workdir, "warmup.cfg")
    out = os.path.join(workdir, "warmup.csv")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("channel = fine_structure\nratio_mode = hydrogenic\ntime_steps = 11\n")
    cli.main(["scenario", "--config", config, "--out", out, "--summary", out])
    for objective in ("eta_max_peak", "pulse_energy", "tau"):
        cli.main(["sweep", "--config", config, "--param", "flux_w_cm2", "--min", "0",
                  "--max", "1", "--steps", "5", "--objective", objective,
                  "--out", out, "--summary", out])


def serve(workdir):
    import json
    import time

    channel = sys.stdout
    sys.stdout = sys.stderr              # program output never reaches the channel
    from mwoptical import cli
    _warm_up(cli, workdir)
    tracer = radial = None

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    reply({"ready": True, "cpu": time.process_time()})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "run":
            if tracer is not None:
                tracer.op += 1
            error = None
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(msg["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:     # reported as a failed operation
                rc, error = -1, repr(exc)
            reply({"rc": rc, "wall": time.perf_counter() - start,
                   "cpu": time.process_time() - start_cpu, "error": error})
        elif msg["op"] == "trace":
            import spans
            tracer = spans.Tracer()
            radial = spans.install(tracer)
            reply({"ok": True})
        elif msg["op"] == "collect":
            info = radial.cache_info()
            reply({**tracer.collect(), "cache": [info.hits, info.misses]})
        else:
            break


if __name__ == "__main__":
    if sys.argv[1] == "cmd":
        cold(sys.argv[2:])
    else:
        serve(sys.argv[2])
