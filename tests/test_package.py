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


def test_a_failing_hypothesis_test_is_reported_under_the_suite_warning_filters(tmp_path):
    # hypothesis imports libcst to write its failure patch, and libcst warns
    # DeprecationWarning on import; under the suite's filters that warning must
    # not stop the run with INTERNALERROR before the failure and the next test
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
