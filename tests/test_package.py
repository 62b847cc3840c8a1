import ast
import contextlib
import dataclasses
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

import telematch


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "telematch"

# The public surface, in full: a name added or removed shows up here.
PUBLIC_NAMES = [
    "Batch", "ChannelClass", "DegenerateBasisError", "InvalidBasisError", "KOutOfRangeError",
    "KPolicy", "MonteCarloReport", "OutcomeReport", "Points", "ProtocolReport",
    "PureInputState", "TwoQubitBasis", "TwoQubitChannel", "UnteleportableChannelError",
    "__version__", "analytic_batch", "analytic_report", "classify", "concurrence", "cpm",
    "format_complex", "generalized_bell", "matched_unitary", "monte_carlo",
    "parse_basis", "parse_channel", "parse_complex", "points", "simulate_batch",
    "simulate_report", "standard_bell",
]


def test_public_names_resolve_and_are_sorted():
    assert telematch.__all__ == sorted(telematch.__all__)
    assert len(set(telematch.__all__)) == len(telematch.__all__)
    missing = [name for name in telematch.__all__ if not hasattr(telematch, name)]
    assert missing == []
    assert telematch.__all__ == PUBLIC_NAMES


def test_the_cli_imports_no_private_name_of_the_package():
    # the CLI is a client of the library: it prints what the public functions return
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("telematch"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_protocol_reads_no_degeneracy_of_a_basis():
    # a basis refuses its own degeneracy when it is built; the kernels read
    # only its blocks, t_matrix (through project_all), pref2 and c_b
    source = (PACKAGE / "protocol.py").read_text()
    found = [name for name in ("DegenerateBasisError", "DEGENERATE_TOL", ".a_p", ".b_p")
             if name in source]
    assert found == []


# Every public entry point that takes a number, called with one argument; the
# points entries use two points, so that a one-element list is no K per point.
_TWO_POINTS = [[[0.8, 0.0], [0.0, 0.6]], [[0.6, 0.0], [0.0, 0.8]]]
NUMBER_ENTRY_POINTS = {
    "kpolicy-fixed": telematch.KPolicy.fixed,
    "points-k": lambda v: telematch.points(_TWO_POINTS, telematch.standard_bell(), "fixed", v),
    "points-stack": lambda v: telematch.points(v, telematch.standard_bell(), "max-global"),
    "matched-unitary": lambda v: telematch.matched_unitary(0.8, 0.6, v),
    "generalized-bell": lambda v: telematch.generalized_bell(v, 0.8),
    "two-qubit-basis": lambda v: telematch.TwoQubitBasis("gbm", 0.6, v),
    "pure-input-state": lambda v: telematch.PureInputState(v, 0.0),
    "two-qubit-channel": lambda v: telematch.TwoQubitChannel(0.8, 0.0, 0.0, v),
}


@pytest.mark.parametrize("enter", NUMBER_ENTRY_POINTS.values(), ids=NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("value", [True, "1", None, [1.0], [1.0, True]], ids=repr)
def test_every_entry_point_refuses_what_is_not_a_number_with_a_value_error(enter, value):
    # a bool is no number, a str is not parsed, and nothing reaches a cast that raises TypeError
    with pytest.raises(ValueError):
        enter(value)


def test_one_module_decides_what_counts_as_a_number():
    # channel._number is the rule; the other modules call it
    importing = sorted(path.name for path in PACKAGE.glob("*.py")
                       if re.search(r"^import numbers$", path.read_text(), re.MULTILINE))
    assert importing == ["channel.py"]


def test_a_basis_is_built_from_its_kind_and_coefficients_alone():
    # its matrix is derived: an argument for it could again disagree with the coefficients
    names = [f.name for f in dataclasses.fields(telematch.TwoQubitBasis) if f.init]
    assert names == ["kind", "a_p", "b_p"]
    with pytest.raises(TypeError):
        telematch.TwoQubitBasis("bell", None, None, telematch.standard_bell().t_matrix)


def test_the_package_names_no_extended_precision_type():
    # long double is 80-bit on x86-64 Linux and plain double on MSVC and macOS
    # arm64: a number computed in it would print differently by platform
    banned = re.compile(r"longdouble|clongdouble|float128|complex256")
    found = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert found == []


def test_the_readme_python_blocks_run_in_order():
    # one namespace for all blocks, so a later block may use an earlier one's names
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)


def test_importing_the_cli_builds_nothing_a_command_needs():
    # A cold start pays for imports alone: the CSV writer's tables, the
    # argument parser and the Bell basis are built on first use, and no
    # output format loads json.
    code = (
        "import sys, telematch.cli as cli, telematch.measurement as m\n"
        "print('telematch.csvtext' in sys.modules, cli._parser.cache_info().currsize,\n"
        "      m.standard_bell.cache_info().currsize, 'json' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["False", "0", "0", "False"]


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
