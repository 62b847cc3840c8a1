import os
import pathlib
import subprocess
import sys

import telematch


def test_public_names_resolve_and_are_sorted():
    assert telematch.__all__ == sorted(telematch.__all__)
    assert len(set(telematch.__all__)) == len(telematch.__all__)
    missing = [name for name in telematch.__all__ if not hasattr(telematch, name)]
    assert missing == []
    assert "DegenerateBasisError" in telematch.__all__


def test_importing_the_cli_builds_nothing_a_command_needs():
    # A cold start pays for imports alone: the CSV writer's tables, the
    # argument parser and the bases are built on first use.
    code = (
        "import sys, telematch.cli as cli, telematch.measurement as m\n"
        "print('telematch.csvtext' in sys.modules, cli._parser.cache_info().currsize,\n"
        "      m.standard_bell.cache_info().currsize, m._generalized_bell.cache_info().currsize)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["False", "0", "0", "0"]


def test_importing_the_csv_writer_loads_nothing_beyond_numpy_and_telematch():
    # its tables are built with numpy and Python ints: fractions or decimal
    # would add their own import to the first sweep or fig1 of a process
    code = (
        "import sys, numpy, telematch\n"
        "before = set(sys.modules)\n"
        "import telematch.csvtext\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["telematch.csvtext"]
