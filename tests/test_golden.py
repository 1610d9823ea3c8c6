"""Byte-identity of the CLI against recorded digests, and the public-name tables.

``golden_cli.json`` holds 129 commands of the benchmark generator
(``perfbench/gen.py``).  The first 63 are its ``cold_cli`` workload (seeds
0-2, cycles 0-2), which covers constants, both transitions, fig1, scenarios at
zero and nonzero flux and a sweep with each of the three objectives.  The
other 66 are its ``sweep_pulse`` workload (seeds 0-2, cycles 0-1):
pulse-energy sweeps over all five parameters on linear and log grids, with
unity, hydrogenic and custom ratios.  For every command it stores
the config text, the argv with ``{config}``, ``{out}`` and ``{summary}``
path placeholders, the exit code, and the sha256 digests of stdout, stderr
and the ``--out`` and ``--summary`` files (null where none is written).  The
digests were recorded from the code before a refactor (the cold_cli ones
before the constants injection was removed, the sweep_pulse ones before the
scenario and sweep physics were merged into one map), so this test pins that
refactors leave every byte unchanged.

An intended numeric change regenerates the digests from the stored commands,

    PYTHONPATH=src python tests/test_golden.py --regenerate

and is recorded, with its size, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

import mwoptical
from mwoptical import cli, coupling, dynamics, ensemble, hydrogen, units

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
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


def test_cli_output_matches_recorded_digests(tmp_path):
    commands = _load()["commands"]
    assert len(commands) == 129
    differ = []
    for index, command in enumerate(commands):
        got = replay(command, str(tmp_path))
        want = {key: command[key] for key in got}
        if got != want:
            fields = [key for key in got if got[key] != want[key]]
            differ.append(f"#{index} {' '.join(command['argv'])}: {', '.join(fields)}")
    assert not differ, "output differs from the recorded digests:\n" + "\n".join(differ)


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


def _regenerate():
    data = _load()
    with tempfile.TemporaryDirectory() as workdir:
        for command in data["commands"]:
            command.update(replay(command, workdir))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
