"""Byte-identity of the CLI against recorded digests, the public-name tables and
README's library example.

``golden_cli.json`` holds 129 commands of the benchmark generator
(``perfbench/gen.py``) under "commands", and the 44 edge commands of
``_edge_commands`` under "edge".  The first 63 generator commands are its
``cold_cli`` workload (seeds 0-2, cycles 0-2), which covers constants, both
transitions, fig1, scenarios at zero and nonzero flux and a sweep with each of
the three objectives.  The other 66 are its ``sweep_pulse`` workload (seeds 0-2,
cycles 0-1): pulse-energy sweeps over all five parameters on linear and log
grids, with unity, hydrogenic and custom ratios.  For every command it stores
the config text, the argv with ``{config}``, ``{out}`` and ``{summary}``
path placeholders, the exit code, and the sha256 digests of stdout, stderr
and the ``--out`` and ``--summary`` files (null where none is written).  The
digests were recorded from the code before a refactor (the cold_cli ones
before the constants injection was removed, the sweep_pulse ones before the
scenario and sweep physics were merged into one map, and the first 28 edge
ones before the optical wavelength became a constant; the 29th edge command
was recorded after its overflow was fixed, at exit 0, the next three after
the deep-depletion pulse energy was fixed, the next two after beta's rate
kept its digits below a subnormal head, the next two after the drive became
its flux S_mw and a subnormal tau or pulse energy exited 3, the 37th after a tau
from a subnormal rate of beta kept its digits, its ``--out`` digest again after
beta from that rate did, the next two after a pulse energy whose window
integral is subnormal was read from the released share, the 40th after the
window integral of a subnormal time kept its digits, and the last four after the
pulse energy became the stored energy times the released share), so these tests pin
that refactors leave every byte unchanged.

An intended numeric change regenerates the digests from the stored generator
commands and the current ``_edge_commands``,

    PYTHONPATH=src python tests/test_golden.py --regenerate

and is recorded, with its size, in CHANGES.md.

The recorded digests leave out the generator's 66 ``scenario_series``
commands (16k-25k rows each), which cost more than the rest of the suite.
Byte identity against any git revision, on every generator command, is one
opt-in check:

    PYTHONPATH=src python tests/test_golden.py --against REV

It extracts REV's tracked files with ``git archive`` into a temporary
directory, so the repository is only read, builds the 174 commands of
``perfbench/gen.py`` (its three workloads, seeds 0-2, cycles 0-1) plus the
edge commands of ``_edge_commands``, and replays them all with ``replay`` in
two child processes, one with ``PYTHONPATH`` set to each tree's ``src/``
(each child reports where it imported ``mwoptical`` from).  It compares
the exit codes and the sha256 of stdout, stderr, ``--out`` and ``--summary``,
prints each command that differs and exits 1 if any does.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import pytest

import mwoptical
from mwoptical import cli, coupling, dynamics, ensemble, hydrogen, units

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
GOLDEN = os.path.join(TESTS, "golden_cli.json")
MODULES = (units, hydrogen, coupling, dynamics, ensemble, cli)


def _digest(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def replay(command, workdir):
    """Run one recorded command in process; returns its record without 'config'/'argv'."""
    paths = {name: os.path.join(workdir, name) for name in ("config", "out", "summary")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    with open(paths["config"], "w", encoding="utf-8") as handle:
        handle.write(command["config"])
    argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in command["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return {
        "rc": rc,
        "stdout": _digest(stdout.getvalue().encode()),
        "stderr": _digest(stderr.getvalue().encode()),
        "out": _digest(_read(paths["out"])),
        "summary": _digest(_read(paths["summary"])),
    }


def _load():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def _differences(commands, wanted, got):
    """One line per command whose record differs, naming the differing fields."""
    return [f"#{index} {' '.join(command['argv'])}: "
            + ", ".join(key for key in want if want[key] != have[key])
            for index, (command, want, have) in enumerate(zip(commands, wanted, got))
            if want != have]


def _assert_replays_match(commands, workdir):
    got = [replay(command, workdir) for command in commands]
    wanted = [{key: command[key] for key in record} for command, record in zip(commands, got)]
    differ = _differences(commands, wanted, got)
    assert not differ, "output differs from the recorded digests:\n" + "\n".join(differ)


def test_cli_output_matches_recorded_digests(tmp_path):
    commands = _load()["commands"]
    assert len(commands) == 129
    _assert_replays_match(commands, str(tmp_path))


def test_edge_commands_match_recorded_digests(tmp_path):
    edge = _load()["edge"]
    assert len(edge) == 44
    assert [{"config": c["config"], "argv": c["argv"]} for c in edge] == _edge_commands()
    _assert_replays_match(edge, str(tmp_path))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_reexports_only_module_all_names():
    # the package's public names are exactly its five layers' __all__ lists
    exported = set().union(*(module.__all__ for module in MODULES if module is not cli))
    public = {name for name in vars(mwoptical)
              if not name.startswith("_")
              and not isinstance(getattr(mwoptical, name), type(mwoptical))}
    assert public == exported


def test_readme_library_example_prints_the_documented_values():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(code, {})
    eta, tau = (float(line) for line in stdout.getvalue().splitlines())
    assert f"{eta:.3g}" == "1.27e+06"
    assert f"{tau:.3g}" == "1.39e-07"


def test_readme_config_block_names_every_key_with_its_default():
    # the keys of README's config block, commented ones included, are exactly the
    # scenario config's; each uncommented key but the required channel shows its default
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("### Config format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {}
    for line in block.splitlines():
        commented = line.startswith("#")
        key, _, value = line.lstrip("# ").split("#", 1)[0].partition("=")
        keys[key.strip()] = (commented, value.strip())
    parameters = inspect.signature(cli.ScenarioConfig).parameters
    assert set(keys) == set(parameters)
    for key, (commented, value) in keys.items():
        if not commented and key != "channel":
            assert cli._CONFIG_PARSERS[key](value) == parameters[key].default, key


def _regenerate():
    data = _load()
    data["edge"] = _edge_commands()
    with tempfile.TemporaryDirectory() as workdir:
        for command in data["commands"] + data["edge"]:
            command.update(replay(command, workdir))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


def _edge_commands():
    """Commands whose exit code or bytes a past change fixed on an overflow,
    underflow or cancellation branch, or in reading a config that starts with
    a UTF-8 byte-order mark.  Of the twenty-six from the 19th on, the first four
    print a positive pulse energy where only the efficiency underflows, and exit
    3 where the pulse energy, tau or n31 underflows to 0 at nonzero factors; two
    exit 3 where the summary's n_atoms or sigma_max_cm2 underflows to 0 at zero
    flux; three print +0 where the ratio, rho22(0) or the flux is given as -0.0;
    one exits 3 at a subnormal flux whose pulse energy falls below the normal
    range (it exited 3 as the field amplitude underflowing to 0); one prints a
    pulse energy below the stored energy where the cross-section scale overflows;
    three print the pulse energy of a window that starts deep in depletion, which
    read negative or up to 53% off, or exited 3 as underflowing to 0; two print
    the pulse energy and tau of a flux whose 3*E0^2*wavelength^3 is subnormal,
    which read 1.8e-4 off or exited 3 as tau overflowing; one exits 3 where tau
    is subnormal, which it printed; one prints the pulse energy at a subnormal
    flux, linear in the flux, which read 1.99 times too high; one prints the tau
    and the rows of a flux whose beta rate is subnormal, where tau read 2.7% high
    and beta read 0 at t > 0; the next prints the pulse energy at a rate
    of beta above 1e334 s^-1, which exited 3; the next prints a pulse energy
    whose window integral is subnormal, which read 8.9e-7 low; the next prints
    the pulse energy of a subnormal window whose released share is smaller still,
    which read 4.9e-6 low; the next three print the whole stored energy released
    at a flux or rho22(0) where the cross-section scale times S_mw underflows, which
    exited 3 as underflowing to 0 or read 3.4% high; and the last prints the pulse
    energy of a narrow window at beta above 1e213, where f at the quadrature nodes
    underflows, which exited 3 as underflowing to 0."""
    plain = "channel = fine_structure\n"
    late = plain + "time_start_s = 0.9e-6\ntime_stop_s = 1e-6\n"
    underflowed_power = plain + "flux_w_cm2 = 1e-130\nvessel_area_cm2 = 1e-219\n"
    subnormal_head = ("channel = lamb_shift\nflux_w_cm2 = 1.4004939611837856e-304\n"
                      "ratio_mode = custom\nratio_value = 3.027736961255513e+282\n"
                      "detuning_mhz = 1e8\nvessel_area_cm2 = 10\n"
                      "gas_density_g_cm3 = 3.292595919092061e-220\nrho22_initial = 1\n"
                      "time_start_s = 4.258347710216384e+50\ntime_stop_s = 5.249387779664677e+50\n")
    released_whole = plain + "rho22_initial = 1e-160\ntime_stop_s = 1e300\n"
    huge_vessel = plain + ("vessel_area_cm2 = 1e100\nvessel_length_cm = 1e100\n"
                           "ratio_mode = custom\nratio_value = 1e92\nrho22_initial = 1\n")

    def sweep(config, parameter, low, high, steps, objective, *log):
        return {"config": config,
                "argv": ["sweep", "--config", "{config}", "--param", parameter,
                         f"--min={low!r}", f"--max={high!r}", "--steps", str(steps), *log,
                         "--objective", objective, "--out", "{out}", "--summary", "{summary}"]}

    def scenario(config):
        return {"config": config, "argv": ["scenario", "--config", "{config}",
                                           "--out", "{out}", "--summary", "{summary}"]}

    return [sweep(plain, parameter, 1.0, 1.7976931348623157e308, 100, "eta_max_peak", "--log")
            for parameter in cli.SWEEP_PARAMETERS] + [
        sweep(plain, "detuning_mhz", -1.7e308, 1.7e308, 5, "eta_max_peak"),
        sweep(plain, "flux_w_cm2", 0.0, 1e-320, 5, "eta_max_peak"),
        sweep(plain, "flux_w_cm2", 5e-324, 1e-320, 5, "tau", "--log"),
        {"config": "", "argv": ["fig1", "--beta-max", "1e-300", "--steps", "3", "--out", "{out}"]},
        scenario(underflowed_power),
        sweep(underflowed_power, "rho22_initial", 0.0, 1e-3, 3, "pulse_energy"),
        scenario(plain + "detuning_mhz = 1e200\n"),
        sweep(plain, "detuning_mhz", 1e100, 1e200, 3, "eta_max_peak", "--log"),
        sweep(huge_vessel, "rho22_initial", 0.5, 1.0, 3, "pulse_energy"),
        scenario(plain + "vessel_length_cm = 1e-320\n"),
        sweep(plain + "time_start_s = 2.9909999999999997e-07\ntime_stop_s = 2.991e-07\n",
              "flux_w_cm2", 1.0, 2.0, 3, "pulse_energy"),
        scenario(plain + "detuning_mhz = 1e303\n"),
        scenario("\ufeff" + plain),
        sweep(plain + "vessel_length_cm = 1e-300\nvessel_area_cm2 = 1e100\n",
              "rho22_initial", 1e-35, 2e-35, 2, "pulse_energy"),
        sweep(plain + "vessel_area_cm2 = 1e-200\nrho22_initial = 1e-125\ntime_stop_s = 1e-20\n",
              "flux_w_cm2", 1.0, 2.0, 2, "pulse_energy"),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e308\n",
              "flux_w_cm2", 1e10, 2e10, 2, "tau"),
        scenario(plain + "vessel_length_cm = 1e-300\ngas_density_g_cm3 = 1e-30\n"
                 "vessel_area_cm2 = 1e280\nrho22_initial = 1\nflux_w_cm2 = 1e-5\n"),
        scenario(plain + "flux_w_cm2 = 0\nvessel_area_cm2 = 1e-320\n"),
        scenario(plain + "flux_w_cm2 = 0\nvessel_area_cm2 = 1e-20\nrho22_initial = 1e-320\n"),
        sweep(plain + "ratio_mode = custom\nratio_value = -0.0\n",
              "flux_w_cm2", 1.0, 2.0, 2, "pulse_energy"),
        sweep(plain + "rho22_initial = -0.0\n", "flux_w_cm2", 1.0, 2.0, 2, "eta_max_peak"),
        scenario(plain + "flux_w_cm2 = -0.0\n"),
        sweep(plain, "flux_w_cm2", 0.0, 1e-322, 3, "pulse_energy"),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e300\nvessel_length_cm = 1e30\n"
              "vessel_area_cm2 = 1e30\ngas_density_g_cm3 = 1\nrho22_initial = 1\n",
              "rho22_initial", 0.5, 1.0, 2, "pulse_energy"),
        sweep(late + "ratio_mode = custom\nratio_value = 1e28\n",
              "rho22_initial", 0.5, 1.0, 2, "pulse_energy"),
        sweep(late + "ratio_mode = custom\nratio_value = 1e31\n",
              "rho22_initial", 0.5, 1.0, 2, "pulse_energy"),
        sweep(late, "flux_w_cm2", 1e18, 1e26, 9, "pulse_energy", "--log"),
        sweep(subnormal_head, "vessel_length_cm", 1.0, 5.249387779664677e+50, 2, "pulse_energy"),
        scenario(subnormal_head),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e302\n", "flux_w_cm2", 1.0, 2.0, 2,
              "tau"),
        sweep(plain + "vessel_area_cm2 = 1e10\nvessel_length_cm = 1e10\n",
              "flux_w_cm2", 2.964e-322, 1e-300, 2, "pulse_energy"),
        scenario(plain + "flux_w_cm2 = 1e-306\n"),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e308\ntime_stop_s = 1e-320\n",
              "flux_w_cm2", 1e19, 1e20, 2, "pulse_energy"),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e300\nrho22_initial = 1e-200\n"
              "time_stop_s = 1e-300\n", "flux_w_cm2", 1e10, 2e10, 2, "pulse_energy"),
        sweep(plain + "vessel_area_cm2 = 1e100\ntime_stop_s = 1e-318\n",
              "flux_w_cm2", 1e-10, 2e-10, 2, "pulse_energy"),
        sweep(released_whole, "flux_w_cm2", 1e-200, 1e-180, 3, "pulse_energy", "--log"),
        sweep(released_whole, "flux_w_cm2", 1e-180, 1e-150, 3, "pulse_energy", "--log"),
        sweep(released_whole + "flux_w_cm2 = 1e-200\n", "rho22_initial", 1e-160, 1e-150, 3,
              "pulse_energy", "--log"),
        sweep(plain + "ratio_mode = custom\nratio_value = 1e10\ntime_start_s = 0.99\n"
              "time_stop_s = 1\n", "flux_w_cm2", 1e180, 1e200, 3, "pulse_energy", "--log"),
    ]


def _replay_file(path):
    """Child side of ``--against``: replay the commands in the JSON file at path
    and print the records, and where mwoptical was imported from, as JSON."""
    with open(path, encoding="utf-8") as handle:
        commands = json.load(handle)
    with tempfile.TemporaryDirectory() as workdir:
        records = [replay(command, workdir) for command in commands]
    json.dump({"package": mwoptical.__file__, "records": records}, sys.stdout)


def _generator_commands():
    """The 174 commands of ``perfbench/gen.py``: its three workloads, seeds 0-2, cycles 0-1."""
    perfbench = os.path.join(ROOT, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import gen

    return [{"config": op.config_text(), "argv": op.argv("{config}", "{out}", "{summary}")}
            for workload in gen.WORKLOADS for seed in range(3) for index in range(2)
            for op in gen.cycle(workload, seed, index)]


def _against(rev):
    """Replay the generator and edge commands on REV and on this tree; 1 if any differs."""
    generated = _generator_commands()
    commands = generated + _edge_commands()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "commands.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(commands, handle)
        tree = os.path.join(workdir, "tree")
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                                 stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        child_code = "import sys, test_golden; test_golden._replay_file(sys.argv[1])"
        children = [subprocess.Popen(
            [sys.executable, "-c", child_code, path], cwd=workdir, stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.path.join(root, "src") + os.pathsep + TESTS})
            for root in (tree, ROOT)]
        outputs = [child.communicate()[0] for child in children]
    for root, child, output in zip((tree, ROOT), children, outputs):
        if child.returncode:
            raise SystemExit(f"replay on {root} exited {child.returncode}")
        package = json.loads(output)["package"]
        if not package.startswith(os.path.join(root, "src", "")):
            raise SystemExit(f"replay for {root} imported mwoptical from {package}")
    differ = _differences(commands, *(json.loads(output)["records"] for output in outputs))
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len(commands)} commands differ from {rev} "
          f"({len(generated)} generator commands, {len(commands) - len(generated)} edge commands)")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        _regenerate()
    elif len(sys.argv) == 3 and sys.argv[1] == "--against":
        raise SystemExit(_against(sys.argv[2]))
    else:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate\n"
                         "       PYTHONPATH=src python tests/test_golden.py --against REV")
