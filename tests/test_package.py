import ast
import contextlib
import dataclasses
import importlib
import io
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import telematch
import telematch.cli


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "telematch"

# The public surface, in full: a name added or removed shows up here.
PUBLIC_NAMES = [
    "Batch", "ChannelClass", "DegenerateBasisError", "InvalidBasisError", "KOutOfRangeError",
    "KPolicy", "MonteCarloReport", "OutcomeReport", "Points", "ProtocolReport",
    "PureInputState", "TwoQubitBasis", "TwoQubitChannel", "UnteleportableChannelError",
    "__version__", "analytic_batch", "analytic_report", "classify", "concurrence", "cpm",
    "generalized_bell", "matched_unitary", "monte_carlo", "points", "simulate_batch",
    "simulate_report", "standard_bell",
]

# The library's modules: they take and return numbers, and the CLI alone holds
# the text grammar, its literal parsers and its number formatter.
LIBRARY_MODULES = ("channel.py", "measurement.py", "protocol.py")
_FRONT_END_MODULES = {"argparse", "cli", "csvtext"}


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


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_the_library_holds_no_text_grammar(name):
    found = []
    for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith(("parse", "format")):
                found.append(f"def {node.name}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                parts = set(module.split(".")) | set(alias.name.split("."))
                if parts & _FRONT_END_MODULES or alias.name.startswith(("parse", "format")):
                    found.append(f"import {module}:{alias.name}")
    assert found == []


def test_a_k_policy_is_built_from_its_mode_and_k_alone():
    # the CLI parses a --k literal; KPolicy takes a mode and a number
    assert not hasattr(telematch.KPolicy, "parse")


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


# What is not a number, by kind. A container holds at least one leaf that is not a
# number, or has a shape no entry point takes, as a list of one number does: the
# points entries get two points, so it is no K per point.
_BOOLS = st.booleans() | st.booleans().map(np.bool_)
_STRS_AND_BYTES = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.text(max_size=4), st.binary(max_size=4)
)
_NOT_A_NUMBER_LEAF = _BOOLS | st.none() | _STRS_AND_BYTES


@st.composite
def _flat_lists(draw):
    numbers = draw(st.lists(st.floats(), max_size=3))
    at = draw(st.integers(0, len(numbers)))
    return numbers[:at] + [draw(_NOT_A_NUMBER_LEAF)] + numbers[at:]


@st.composite
def _nested_lists(draw):
    # an (N, 2, 2) stack, as the points entries take, with one leaf that is no number
    n = draw(st.integers(1, 2))
    leaves = draw(st.lists(st.floats(), min_size=4 * n, max_size=4 * n))
    leaves[draw(st.integers(0, 4 * n - 1))] = draw(_NOT_A_NUMBER_LEAF)
    return [[leaves[4 * i:4 * i + 2], leaves[4 * i + 2:4 * i + 4]] for i in range(n)]


_ONE_NUMBER = st.lists(st.floats(), min_size=1, max_size=1)
_RAGGED_LISTS = st.lists(st.lists(st.floats(), max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(row) for row in rows}) > 1
)

NON_NUMBERS = {
    "bools": _BOOLS,
    "strs-and-bytes": _STRS_AND_BYTES,
    "none-tuples-and-lists": st.one_of(
        st.none(), _flat_lists().map(tuple), _flat_lists(), _nested_lists(), _RAGGED_LISTS,
        _ONE_NUMBER,
    ),
    "dicts-and-sets": st.one_of(
        st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
        st.sets(st.floats(allow_nan=False), max_size=2),
    ),
    "arrays": st.one_of(
        st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
        st.lists(st.booleans(), min_size=4, max_size=4).map(
            lambda v: np.array(v, dtype=bool).reshape(1, 2, 2)),
        st.lists(st.text(max_size=3), min_size=1, max_size=4).map(np.array),
        _flat_lists().map(lambda v: np.array(v, dtype=object)),
        _nested_lists().map(lambda v: np.array(v, dtype=object)),
        _ONE_NUMBER.map(np.array),
    ),
}
# Tried on every run, before hypothesis draws: the plainest value of each kind.
PINNED_NON_NUMBERS = {
    "bools": [True],
    "strs-and-bytes": ["1"],
    "none-tuples-and-lists": [None, [1.0], [1.0, True]],
    "arrays": [np.array([1.0])],
}


@pytest.mark.parametrize("enter", NUMBER_ENTRY_POINTS.values(), ids=NUMBER_ENTRY_POINTS)
@pytest.mark.parametrize("kind", NON_NUMBERS)
def test_every_entry_point_refuses_what_is_not_a_number_with_a_value_error(enter, kind):
    # a bool is no number, a str is not parsed, and nothing reaches a cast that raises TypeError
    @settings(max_examples=10)
    @given(NON_NUMBERS[kind])
    def refuses(value):
        with pytest.raises(ValueError):
            enter(value)

    for value in PINNED_NON_NUMBERS.get(kind, ()):
        refuses = example(value)(refuses)
    refuses()


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
    # argument parser and every basis are built on first use, and no
    # output format loads json.
    code = (
        "import gc, sys, telematch.cli as cli, telematch.measurement as m\n"
        "bases = sum(isinstance(o, m.TwoQubitBasis) for o in gc.get_objects())\n"
        "print('telematch.csvtext' in sys.modules, cli._parser.cache_info().currsize,\n"
        "      bases, 'json' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["False", "0", "0", "False"]


def _run_module_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-m", "telematch.cli", *argv], env=env,
                          capture_output=True, timeout=120)


def test_the_module_cli_prints_what_main_prints_and_exits_with_its_code():
    # the console script's path: `python -m telematch.cli` ends in entry's sys.exit
    done = _run_module_cli("fig1", "--steps", "3")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert telematch.cli.main(["fig1", "--steps", "3"]) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, out.getvalue().encode(), b"")
    done = _run_module_cli("run", "--channel", "diag:1,0")
    assert done.returncode == 2 and done.stdout == b""
    assert re.fullmatch(rb"telematch: error: [^\n]+\n", done.stderr)


def test_the_console_script_names_a_callable_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    config = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert config["project"]["scripts"] == {"telematch": "telematch.cli:entry"}
    module, name = config["project"]["scripts"]["telematch"].split(":")
    assert callable(getattr(importlib.import_module(module), name))


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
