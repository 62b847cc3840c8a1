import contextlib
import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telematch.cli
import telematch.protocol
from telematch.channel import PureInputState, UnteleportableChannelError
from telematch.cli import MAX_STEPS, SEED_ENV, main, parse_basis, parse_channel, parse_k_policy
from telematch.measurement import DegenerateBasisError
from telematch.protocol import KOutOfRangeError, KPolicy, analytic_report, monte_carlo, simulate_report


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def run_capture(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_run_resolves_literals_to_domain_objects(capsys):
    # a fixed K of 1.1 on the generalized basis gbm(0.6, 0.8), not on the Bell basis
    code, out, _ = run_capture(
        capsys,
        ["run", "--channel", "diag:0.8,0.6", "--basis", "gbm:0.6,0.8", "--k", "1.1",
         "--format", "csv"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[2]) for r in rows] == [1.1] * 8
    # the default input (1/sqrt(2), 1/sqrt(2)) sees the pairs (.48, .48) and (.64, .36)
    assert [float(r[3]) for r in rows[:2]] == pytest.approx([0.2304, 0.2696], abs=1e-12)
    # 4(K|a b a' b'|)^2 on the generalized basis; Bell would give 2(K|ab|)^2 = 0.557568
    assert float(rows[0][7]) == pytest.approx(4 * (1.1 * 0.8 * 0.6 * 0.6 * 0.8) ** 2, abs=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["run", "--channel", "diag:0.8"], id="channel"),
        pytest.param(["run", "--channel", "diag:0.8,0.6", "--alpha", "0.6"], id="alpha-without-beta"),
        pytest.param(["montecarlo", "--channel", "diag:0.8,0.6", "--basis", "gbm:0.6"], id="basis"),
    ],
)
def test_bad_literal_fails_before_any_output(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("telematch: error: ")


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 1
    capsys.readouterr()


def test_unknown_option_is_usage_error(capsys):
    assert run_cli(["analyze", "--nope"]) == 1
    capsys.readouterr()


def test_an_argument_argparse_refuses_is_one_error_line(capsys):
    # no usage block: the one line every other refusal prints
    code, out, err = run_capture(capsys, ["montecarlo", "--channel", "diag:0.8,0.6", "--trials", "True"])
    assert (code, out) == (1, "")
    assert err == "telematch: error: argument --trials: invalid int value: 'True'\n"


def test_analyze_text(capsys):
    code, out, _ = run_capture(capsys, ["analyze", "--channel", "diag:0.8,0.6"])
    assert code == 0
    assert "class: Probabilistic" in out
    assert "concurrence: 0.96" in out


def test_analyze_csv(capsys):
    code, out, _ = run_capture(
        capsys, ["analyze", "--channel", "diag:0.8,0.6", "--format", "csv"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["cpm00", "cpm01", "cpm10", "cpm11", "class", "concurrence"]
    assert len(rows) == 1
    row = rows[0]
    assert float(row[0]) == pytest.approx(math.sqrt(2) * 0.8, rel=1e-12)
    assert row[4] == "Probabilistic"
    assert float(row[5]) == pytest.approx(0.96, abs=1e-12)


def test_analyze_perfect_swap_channel(capsys):
    code, out, _ = run_capture(
        capsys,
        ["analyze", "--channel", "0,0.70710678118654752,0.70710678118654752,0"],
    )
    assert code == 0
    assert "class: Perfect" in out


def test_analyze_and_run_agree_on_a_channel_at_the_entanglement_threshold(capsys):
    # concurrence 2 * 4.999999999999991e-10 rounds to just below 1e-9: run
    # refuses the channel, so analyze must not call it Probabilistic
    channel = "diag:1,4.999999999999991e-10"
    code, out, _ = run_capture(capsys, ["analyze", "--channel", channel, "--format", "csv"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][4:] == ["Unteleportable", "9.99999999999998e-10"]
    code, _, err = run_capture(capsys, ["run", "--channel", channel])
    assert code == 2
    assert "no entanglement" in err


def test_analyze_bad_literal_exits_one(capsys):
    code, _, err = run_capture(capsys, ["analyze", "--channel", "diag:0.8"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # inf is a number literal like nan: the state refuses both, not the parser
        (["run", "--channel=diag:inf,0.6"], "amplitude x00 must be finite"),
        (["run", "--channel=diag:nan,0.6"], "amplitude x00 must be finite"),
        (["analyze", "--channel=0.5,0.5,-Infinity,0.5"], "amplitude x10 must be finite"),
        (["run", "--channel=diag:0.8,0.6", "--alpha=0.6", "--beta=1+infi"], "amplitude beta must be finite"),
        (["run", "--channel=diag:0.8,0.6", "--basis=gbm:inf,0.6"],
         "basis coefficients must satisfy a'^2 + b'^2 = 1, got inf"),
    ],
)
def test_non_finite_literals_are_refused_by_what_they_build(capsys, argv, message):
    assert run_capture(capsys, argv) == (1, "", f"telematch: error: {message}\n")


def test_run_csv_golden(capsys):
    code, out, _ = run_capture(
        capsys,
        ["run", "--channel", "diag:0.8,0.6", "--k", "1", "--format", "csv"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "source", "lam", "k_used", "p_alice", "p_bob",
        "p_joint", "fidelity", "total", "max_abs_diff",
    ]
    assert len(rows) == 8
    analytic = [r for r in rows if r[0] == "analytic"]
    simulated = [r for r in rows if r[0] == "simulated"]
    assert [r[1] for r in analytic] == ["1", "2", "3", "4"]
    for r in analytic:
        assert float(r[3]) == pytest.approx(0.25, abs=1e-12)
        assert float(r[5]) == pytest.approx(0.1152, abs=1e-12)
        assert float(r[7]) == pytest.approx(0.4608, abs=1e-12)
    for r in simulated:
        assert float(r[6]) == pytest.approx(1.0, abs=1e-9)
    assert all(float(r[8]) < 1e-12 for r in rows)


def test_run_default_policy_is_max(capsys):
    code, out, _ = run_capture(
        capsys, ["run", "--channel", "diag:0.8,0.6", "--format", "csv"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(1.25, abs=1e-12)
    assert float(rows[0][7]) == pytest.approx(0.72, abs=1e-12)


def test_run_generalized_per_outcome(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "run", "--channel", "diag:0.8,0.6", "--basis", "gbm:0.8,0.6",
            "--k", "per-outcome", "--format", "csv",
        ],
    )
    assert code == 0
    _, rows = parse_csv(out)
    ks = [float(r[2]) for r in rows[:4]]
    assert ks == pytest.approx([1 / 0.64, 1 / 0.48, 1 / 0.48, 1 / 0.64], rel=1e-12)
    assert float(rows[0][7]) == pytest.approx(0.72, abs=1e-12)


def test_run_complex_input_amplitudes(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "run", "--channel", "diag:0.8,0.6", "--alpha", "0.6i",
            "--beta", "-0.8", "--k", "1", "--format", "csv",
        ],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][7]) == pytest.approx(0.4608, abs=1e-12)


def test_run_text_mentions_input_independence(capsys):
    code, out, _ = run_capture(capsys, ["run", "--channel", "diag:0.8,0.6"])
    assert code == 0
    assert "does not depend on the input state" in out


def test_run_alpha_without_beta_exits_one(capsys):
    code, _, err = run_capture(
        capsys, ["run", "--channel", "diag:0.8,0.6", "--alpha", "0.6"]
    )
    assert code == 1
    assert "together" in err


def test_run_unnormalized_input_exits_one(capsys):
    code, _, _ = run_capture(
        capsys,
        ["run", "--channel", "diag:0.8,0.6", "--alpha", "0.9", "--beta", "0.9"],
    )
    assert code == 1


def test_run_unteleportable_exits_two(capsys):
    code, _, err = run_capture(capsys, ["run", "--channel", "diag:1,0"])
    assert code == 2
    assert "entanglement" in err


def test_run_k_out_of_range_exits_two(capsys):
    code, _, err = run_capture(
        capsys, ["run", "--channel", "diag:0.8,0.6", "--k", "1.3"]
    )
    assert code == 2
    assert "exceeds" in err


def test_run_nondiagonal_channel_reports_total_one(capsys):
    # psi+, which analyze calls Perfect, teleports with certainty at --k max
    code, out, err = run_capture(
        capsys,
        ["run", "--channel", "0,0.70710678118654752,0.70710678118654752,0", "--format", "csv"],
    )
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["analytic"] * 4 + ["simulated"] * 4
    for row in rows:
        assert float(row[7]) == pytest.approx(1.0, abs=1e-12)
        assert float(row[6]) == pytest.approx(1.0, abs=1e-12)
    _, out, _ = run_capture(capsys, ["analyze", "--channel", "0,0.70710678118654752,0.70710678118654752,0"])
    assert "class: Perfect" in out


def _literal(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


def test_run_reports_total_one_for_random_maximally_entangled_channels(capsys):
    rng = np.random.default_rng(4242)
    for _ in range(20):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        x = (q * (np.diag(r) / np.abs(np.diag(r)))).ravel() / math.sqrt(2.0)
        channel = ",".join(map(_literal, x))
        code, out, _ = run_capture(capsys, ["analyze", f"--channel={channel}"])
        assert code == 0
        assert "class: Perfect" in out
        code, out, _ = run_capture(capsys, ["run", f"--channel={channel}", "--k", "max", "--format", "csv"])
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[7]) == pytest.approx(1.0, abs=1e-12)


def test_run_degenerate_basis_exits_two(capsys):
    code, _, _ = run_capture(
        capsys, ["run", "--channel", "diag:0.8,0.6", "--basis", "gbm:1,0"]
    )
    assert code == 2


def test_a_degenerate_basis_is_reported_before_an_unentangled_channel(capsys):
    assert run_capture(capsys, ["run", "--channel", "diag:1,0", "--basis", "gbm:1,0"]) == (
        2, "", "telematch: error: basis coefficients too close to zero: "
               "some outcome would never herald success\n"
    )


def test_run_malformed_basis_exits_one(capsys):
    code, _, _ = run_capture(
        capsys, ["run", "--channel", "diag:0.8,0.6", "--basis", "gbm:0.5,0.5"]
    )
    assert code == 1


def test_montecarlo_csv_and_z(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "montecarlo", "--channel", "diag:0.8,0.6", "--k", "1",
            "--trials", "50000", "--seed", "42", "--format", "csv",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["analytic", "empirical", "stderr", "z"]
    analytic, empirical, stderr, z = (float(v) for v in rows[0])
    assert analytic == pytest.approx(0.4608, abs=1e-12)
    assert abs(empirical - analytic) <= 3.0 * stderr
    assert z == pytest.approx((empirical - analytic) / stderr, rel=1e-9)


def test_montecarlo_deterministic_per_seed(capsys):
    argv = [
        "montecarlo", "--channel", "diag:0.8,0.6", "--k", "1",
        "--trials", "20000", "--seed", "9", "--format", "csv",
    ]
    _, out1, _ = run_capture(capsys, argv)
    _, out2, _ = run_capture(capsys, argv)
    assert out1 == out2


def test_montecarlo_seed_env_fallback(capsys, monkeypatch):
    argv = [
        "montecarlo", "--channel", "diag:0.8,0.6", "--k", "1",
        "--trials", "5000", "--format", "csv",
    ]
    monkeypatch.setenv(SEED_ENV, "9")
    _, out_env, _ = run_capture(capsys, argv)
    monkeypatch.delenv(SEED_ENV)
    _, out_default, _ = run_capture(capsys, argv)
    _, out_seed9, _ = run_capture(capsys, argv + ["--seed", "9"])
    _, out_seed0, _ = run_capture(capsys, argv + ["--seed", "0"])
    assert out_env == out_seed9
    assert out_default == out_seed0
    assert out_env != out_default


def test_montecarlo_bad_seed_env_exits_one(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "many")
    code, _, err = run_capture(
        capsys,
        ["montecarlo", "--channel", "diag:0.8,0.6", "--trials", "10", "--format", "csv"],
    )
    assert code == 1
    assert SEED_ENV in err


@pytest.mark.parametrize(
    "extra, env, message",
    [
        (["--seed=-1"], None, "--seed must be a non-negative integer, got -1"),
        ([], "-3", f"{SEED_ENV} must be a non-negative integer, got -3"),
        (["--seed=-2"], "5", "--seed must be a non-negative integer, got -2"),
    ],
)
def test_montecarlo_negative_seed_names_its_source(capsys, monkeypatch, extra, env, message):
    if env is None:
        monkeypatch.delenv(SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV, env)
    assert run_capture(capsys, MONTECARLO + extra) == (1, "", f"telematch: error: {message}\n")


def test_montecarlo_rejects_zero_trials(capsys):
    code, _, _ = run_capture(
        capsys, ["montecarlo", "--channel", "diag:0.8,0.6", "--trials", "0"]
    )
    assert code == 1


def test_montecarlo_text_report(capsys):
    code, out, _ = run_capture(
        capsys,
        ["montecarlo", "--channel", "diag:0.8,0.6", "--k", "1", "--trials", "1000", "--seed", "4"],
    )
    assert code == 0
    assert "outcome counts:" in out
    assert "empirical total:" in out
    assert "sampler: multinomial-binomial" in out.splitlines()


@pytest.mark.parametrize(
    "channel, total, z",
    [
        # the analytic total is 1 + 1ulp: the gap to 1, the clamped total, is 0
        ("diag:0.7071067811865476,0.7071067811865476", 1.0000000000000002, "0"),
        # the total is 1 - 1ulp: the gap 2**-52 over sqrt(p0 (1 - p0) / 1000)
        ("diag:0.7071067811865475,0.7071067811865476", 0.9999999999999998, "4.71216091538724e-07"),
    ],
)
def test_montecarlo_z_is_finite_on_a_perfect_channel(capsys, channel, total, z):
    # every trial succeeds, so the plug-in std err is 0: z weighs the last-bit gap
    # between p_hat = 1 and the total by the std err of the total itself
    argv = ["montecarlo", "--channel", channel, "--trials", "1000", "--seed", "0"]
    inp = PureInputState(2**-0.5, 2**-0.5)
    assert analytic_report(inp, parse_channel(channel), parse_basis("bell"),
                           KPolicy.max_global()).total == total
    if total < 1.0:
        assert float(z) == pytest.approx((1.0 - total) / math.sqrt(total * (1.0 - total) / 1000), rel=1e-14)
    assert run_capture(capsys, argv + ["--format", "csv"]) == (
        0, f"analytic,empirical,stderr,z\n1,1,0,{z}\n", ""
    )
    code, out, err = run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-4:] == ["analytic total: 1", "empirical total: 1", "std err: 0", f"z: {z}"]


def test_montecarlo_trials_above_int64_exits_one_with_one_line(capsys):
    code, out, err = run_capture(
        capsys, ["montecarlo", "--channel", "diag:0.8,0.6", "--trials", str(2**63)]
    )
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"telematch: error: --trials must be between 1 and {2**63 - 1}, got {2**63}"
    ]


def test_sweep_k_grid(capsys):
    code, out, _ = run_capture(
        capsys,
        [
            "sweep", "--param", "k", "--start", "0.5", "--stop", "1.25",
            "--steps", "4", "--channel", "diag:0.8,0.6",
        ],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "analytic_total", "simulated_total"]
    assert len(rows) == 4
    for row in rows:
        k, ana, sim = (float(v) for v in row)
        assert ana == pytest.approx(2 * (k * 0.48) ** 2, abs=1e-12)
        assert abs(ana - sim) < 1e-12
    ks = [float(r[0]) for r in rows]
    assert ks == pytest.approx(list(np.linspace(0.5, 1.25, 4)), abs=1e-15)


def test_sweep_b_grid(capsys):
    code, out, _ = run_capture(
        capsys,
        ["sweep", "--param", "b", "--start", "0.3", "--stop", "0.6", "--steps", "3"],
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["b", "analytic_total", "simulated_total"]
    for row in rows:
        b, ana, _ = (float(v) for v in row)
        assert ana == pytest.approx(2 * b * b, abs=1e-12)


def test_sweep_b_rejects_channel_option(capsys):
    code, _, err = run_capture(
        capsys,
        [
            "sweep", "--param", "b", "--start", "0.3", "--stop", "0.6",
            "--steps", "3", "--channel", "diag:0.8,0.6",
        ],
    )
    assert code == 1
    assert "drop --channel" in err


def test_sweep_k_requires_channel(capsys):
    code, _, err = run_capture(
        capsys, ["sweep", "--param", "k", "--start", "0.5", "--stop", "1", "--steps", "2"]
    )
    assert code == 1
    assert "--channel" in err


def test_sweep_empty_grid_exits_one(capsys):
    code, _, err = run_capture(
        capsys,
        [
            "sweep", "--param", "k", "--start", "0.5", "--stop", "1.0",
            "--steps", "0", "--channel", "diag:0.8,0.6",
        ],
    )
    assert code == 1
    assert "--steps" in err


@pytest.mark.parametrize(
    "param, extra, code",
    [
        pytest.param("b", [], 1, id="b"),
        pytest.param("k", ["--channel", "diag:0.8,0.6"], 2, id="k"),
    ],
)
@pytest.mark.parametrize(
    "bounds, message",
    [
        pytest.param(["--start", "0.3", "--stop", "inf"], "--stop must be finite, got inf", id="stop-inf"),
        pytest.param(["--start", "nan", "--stop", "0.5"], "--start must be finite, got nan", id="start-nan"),
    ],
)
def test_sweep_non_finite_bound_is_one_error_line(capsys, param, extra, code, bounds, message):
    # a non-finite b is a bad input (exit 1), a non-finite K out of range (exit 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warnings would reach stderr
        result = run_capture(capsys, ["sweep", "--param", param, *bounds, "--steps", "3", *extra])
    assert result == (code, "", f"telematch: error: {message}\n")


def test_sweep_k_above_bound_exits_two(capsys):
    code, _, _ = run_capture(
        capsys,
        [
            "sweep", "--param", "k", "--start", "1.0", "--stop", "1.5",
            "--steps", "3", "--channel", "diag:0.8,0.6",
        ],
    )
    assert code == 2


def test_fig1_stdout(capsys):
    code, out, _ = run_capture(capsys, ["fig1", "--steps", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["b", "p_opt", "p_k1", "p_ksqrt2"]
    assert len(rows) == 3
    last = [float(v) for v in rows[-1]]
    assert last[0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert last[1] == pytest.approx(1.0, abs=1e-12)
    assert last[2] == pytest.approx(0.5, abs=1e-12)


def test_fig1_to_file(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    code, out, _ = run_capture(capsys, ["fig1", "--steps", "5", "--out", str(target)])
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "b,p_opt,p_k1,p_ksqrt2"
    assert len(lines) == 6


def test_fig1_unwritable_path_exits_one(tmp_path, capsys):
    target = tmp_path / "missing" / "curves.csv"
    code, _, err = run_capture(capsys, ["fig1", "--out", str(target)])
    assert code == 1
    assert "error" in err


def test_fig1_rejects_single_step(capsys):
    code, _, _ = run_capture(capsys, ["fig1", "--steps", "1"])
    assert code == 1


# stdout of the release before the batched kernels, pinned byte for byte
GOLDEN_SWEEP_B = """\
b,analytic_total,simulated_total
0.05,0.005,0.005
0.18,0.0648,0.0648
0.31,0.1922,0.1922
0.44,0.3872,0.3872
0.57,0.6498,0.6498
0.7,0.98,0.979999999999999
"""

GOLDEN_SWEEP_K = """\
k,analytic_total,simulated_total
0.2,0.0084934656,0.0084934656
0.525,0.0585252864,0.0585252864
0.85,0.1534132224,0.1534132224
1.175,0.2931572736,0.2931572736
1.5,0.47775744,0.47775744
"""

GOLDEN_FIG1 = """\
b,p_opt,p_k1,p_ksqrt2
1e-06,2e-12,1.999999999998e-12,3.999999999996e-12
0.117851963531091,0.0277781706162673,0.0273923572348741,0.0547847144697482
0.235702927062182,0.111111739651361,0.104938830307185,0.20987766061437
0.353553890593274,0.250000707107281,0.218750530330211,0.437501060660422
0.471404854124365,0.444445072984028,0.345679361534139,0.691358723068278
0.589255817655456,0.694444837281601,0.453318021268066,0.906636042536132
0.707106781186547,1,0.5,1
"""


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["sweep", "--param", "b", "--start", "0.05", "--stop", "0.7", "--steps", "6",
          "--k", "max"], GOLDEN_SWEEP_B),
        (["sweep", "--param", "k", "--start", "0.2", "--stop", "1.5", "--steps", "5",
          "--channel", "diag:0.8,0.6i", "--basis", "gbm:0.8,0.6", "--alpha", "0.6i",
          "--beta=-0.8"], GOLDEN_SWEEP_K),
        (["fig1", "--steps", "7"], GOLDEN_FIG1),
    ],
)
def test_grid_output_is_byte_identical_to_golden(capsys, argv, golden):
    code, out, err = run_capture(capsys, argv)
    assert code == 0
    assert err == ""
    assert out == golden


@pytest.mark.parametrize("command", ["run", "montecarlo"])
@pytest.mark.parametrize("k, expected", [("-1", 2), ("0", 2), ("nan", 2), ("inf", 2), ("abc", 1)])
def test_k_literal_exit_codes(capsys, command, k, expected):
    code, out, err = run_capture(
        capsys, [command, "--channel", "diag:0.8,0.6", f"--k={k}", "--format", "csv"]
    )
    assert code == expected
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--param", "b", "--start", "0.1", "--stop", "0.5"],
        ["sweep", "--param", "k", "--start", "0.5", "--stop", "1", "--channel", "diag:0.8,0.6"],
        ["fig1"],
    ],
)
def test_steps_above_cap_refused_before_any_allocation(capsys, argv):
    main(["fig1", "--steps", "2"])  # parser built and modules warm outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(argv + ["--steps", str(MAX_STEPS + 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "--steps" in err
    # a grid of that size would take at least 8 bytes per point
    assert peak < MAX_STEPS


def test_sweep_memory_does_not_grow_with_the_whole_grid(capsys):
    argv = ["sweep", "--param", "b", "--start", "0.05", "--stop", "0.7", "--steps"]
    run_cli(argv + ["400"])  # parser, modules and formatter tables built outside the trace
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(argv + ["20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 20001
    # a quarter of the 59.5 MB that the kernels took over the whole grid at once
    assert peak < 59.5e6 / 4


@pytest.mark.parametrize(
    "argv",
    [
        # the last point, b = 0, carries no entanglement
        ["sweep", "--param", "b", "--start", "0.5", "--stop", "0", "--steps", "6"],
        # the last point, K = 1.5, exceeds the bound 1.25
        ["sweep", "--param", "k", "--start", "0.5", "--stop", "1.5", "--steps", "5",
         "--channel", "diag:0.8,0.6"],
        # the last point, b = 1, carries no entanglement and lies in the second block
        ["sweep", "--param", "b", "--start", "0.5", "--stop", "1", "--steps",
         str(telematch.cli.GRID_BLOCK + 1)],
    ],
)
def test_sweep_grid_with_a_failing_point_exits_two_and_prints_nothing(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_fig1_file_holds_the_bytes_fig1_prints(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    assert run_cli(["fig1", "--steps", "3000", "--out", str(target)]) == 0
    code, out, _ = run_capture(capsys, ["fig1", "--steps", "3000"])
    assert code == 0
    assert target.read_bytes() == out.encode()


# SHA-256 of `fig1 --steps 20000`, the benchmark's own size, as the four-outcome
# `points` route printed it
FIG1_20000_SHA256 = "e3b70ec551c0bda277cf1d59b4ef47794ab60208c767b1055f64d1f18dc3562f"


def test_fig1_reads_its_curves_without_validating_points(capsys, monkeypatch):
    # fig1's grid is normalized and entangled by construction: its route builds no
    # Points, and so calls no BLAS product, whatever OpenBLAS kernel runs
    def refuse(*args, **kwargs):
        raise AssertionError("fig1 built a Points")

    monkeypatch.setattr(telematch.protocol, "points", refuse)
    monkeypatch.setattr(telematch.protocol, "_points", refuse)
    code, out, err = run_capture(capsys, ["fig1", "--steps", "20000"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FIG1_20000_SHA256


# a product state with every amplitude nonzero
OFF_DIAGONAL_PRODUCT = "0.5,0.5,0.5,0.5"
B_SWEEP = ["sweep", "--param", "b", "--start", "0.3", "--stop", "0.6", "--steps", "3"]
K_SWEEP = ["sweep", "--param", "k", "--start", "0.5", "--stop", "1", "--steps", "2",
           "--channel", "diag:0.8,0.6"]
RUN = ["run", "--channel", "diag:0.8,0.6"]
MONTECARLO = ["montecarlo", "--channel", "diag:0.8,0.6", "--trials", "10"]


@pytest.mark.parametrize(
    "argv, env, code",
    [
        # a basis literal that is not a basis is bad input ...
        pytest.param(RUN + ["--basis", "gbm:0.5,0.5"], None, 1, id="run-gbm-unnormalized"),
        pytest.param(MONTECARLO + ["--basis", "gbm:0.5,0.5"], None, 1, id="mc-gbm-unnormalized"),
        pytest.param(B_SWEEP + ["--basis", "gbm:0.5,0.5"], None, 1, id="sweep-gbm-unnormalized"),
        # ... a valid basis that never heralds success is impossible physics
        pytest.param(RUN + ["--basis", "gbm:1,0"], None, 2, id="run-gbm-degenerate"),
        pytest.param(MONTECARLO + ["--basis", "gbm:1,0"], None, 2, id="mc-gbm-degenerate"),
        pytest.param(B_SWEEP + ["--basis", "gbm:1,0"], None, 2, id="sweep-gbm-degenerate"),
        # ... and is refused when it is parsed, before any channel
        pytest.param(["run", "--channel", "diag:1,0", "--basis", "gbm:1,0"], None, 2,
                     id="run-gbm-degenerate-unentangled"),
        pytest.param(["run", "--channel", OFF_DIAGONAL_PRODUCT], None, 2, id="off-diagonal-channel"),
        pytest.param(RUN + ["--k", "1.3"], None, 2, id="k-above-bound"),
        pytest.param(RUN + ["--k", "abc"], None, 1, id="k-not-a-number"),
        pytest.param(MONTECARLO, "many", 1, id="bad-seed-env"),
        pytest.param(MONTECARLO + ["--seed=-1"], None, 1, id="negative-seed"),
        pytest.param(MONTECARLO, "-3", 1, id="negative-seed-env"),
        pytest.param(["fig1", "--out", "{tmp}/missing/curves.csv"], None, 1, id="fig1-unwritable"),
        # K sweeps take K from the grid
        pytest.param(K_SWEEP + ["--k", "99"], None, 1, id="k-sweep-with-k"),
        pytest.param(K_SWEEP + ["--k", "per-outcome"], None, 1, id="k-sweep-with-k-per-outcome"),
        pytest.param(K_SWEEP + ["--k", "abc"], None, 1, id="k-sweep-with-k-not-a-number"),
        # squared moduli beyond the double range
        pytest.param(["run", "--channel", "diag:1e200,0.5"], None, 1, id="channel-overflow"),
        pytest.param(RUN + ["--alpha", "1e200", "--beta", "1"], None, 1, id="input-overflow"),
        pytest.param(["sweep", "--param", "b", "--start", "1e200", "--stop", "2e200", "--steps", "3"],
                     None, 1, id="b-sweep-overflow"),
        # b grids beyond the channel family a|00> + b|11>, |b| <= 1
        pytest.param(["sweep", "--param", "b", "--start", "1.5", "--stop", "2", "--steps", "2"],
                     None, 1, id="b-sweep-above-one"),
        pytest.param(["sweep", "--param", "b", "--start", "0.5", "--stop", "1.5", "--steps", "3"],
                     None, 1, id="b-sweep-stop-above-one"),
    ],
)
def test_exit_code_by_error_kind(capsys, monkeypatch, tmp_path, argv, env, code):
    if env is None:
        monkeypatch.delenv(SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV, env)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warnings would reach stderr
        result, out, err = run_capture(capsys, argv)
    assert result == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("telematch: error: ")


@pytest.mark.parametrize(
    "bounds, message",
    [
        (["--start", "1.5", "--stop", "2"], "--start must lie in [-1, 1] for a b sweep, got 1.5"),
        (["--start", "0.5", "--stop", "1.5"], "--stop must lie in [-1, 1] for a b sweep, got 1.5"),
        (["--start", "-1.25", "--stop", "0.5"], "--start must lie in [-1, 1] for a b sweep, got -1.25"),
    ],
)
def test_b_sweep_beyond_the_channel_family_names_b(capsys, bounds, message):
    assert run_capture(capsys, ["sweep", "--param", "b", *bounds, "--steps", "3"]) == (
        1, "", f"telematch: error: {message}\n"
    )


def test_b_sweep_takes_negative_b(capsys):
    code, out, _ = run_capture(
        capsys, ["sweep", "--param", "b", "--start", "-0.5", "--stop", "-0.4", "--steps", "2"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[0]) for r in rows] == [-0.5, -0.4]
    for b, ana, sim in ((float(v) for v in row) for row in rows):
        assert ana == pytest.approx(2 * b * b, abs=1e-12)
        assert sim == pytest.approx(ana, abs=1e-12)


def test_montecarlo_validates_its_point_once(capsys, monkeypatch):
    # and so does run: each prints two library results that share one memoized point
    calls = []
    original = telematch.protocol._points

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(telematch.protocol, "_points", counting)
    for argv in (MONTECARLO + ["--seed", "3"], RUN):
        for fmt in ("text", "csv"):
            telematch.protocol._report_points.cache_clear()
            calls.clear()
            code, _, _ = run_capture(capsys, argv + ["--format", fmt])
            assert code == 0
            assert len(calls) == 1


REPORT_CASES = pytest.mark.parametrize(
    "channel, basis, k",
    [
        ("diag:0.8,0.6", "bell", "1"),
        ("diag:0.6,0.8i", "bell", "max"),
        ("diag:0.8,0.6", "gbm:0.6,0.8", "per-outcome"),
        ("diag:0.48-0.64i,0.6", "gbm:0.6,0.8", "1.1"),
    ],
)

OUTCOME_FIELDS = ("k_used", "p_alice", "p_bob", "p_joint", "fidelity")


@REPORT_CASES
def test_run_output_equals_the_library_reports(capsys, channel, basis, k):
    args = (PureInputState(0.6, 0.8j), parse_channel(channel), parse_basis(basis), parse_k_policy(k))
    reports = {"analytic": analytic_report(*args), "simulated": simulate_report(*args)}
    ana, sim = reports.values()
    diff = max([abs(ana.total - sim.total)] + [
        abs(getattr(a, name) - getattr(s, name))
        for a, s in zip(ana.outcomes, sim.outcomes) for name in OUTCOME_FIELDS
    ])
    argv = ["run", "--channel", channel, "--basis", basis, f"--k={k}", "--alpha", "0.6",
            "--beta", "0.8i"]
    fmt = "{:.15g}".format
    csv = ["source,lam,k_used,p_alice,p_bob,p_joint,fidelity,total,max_abs_diff"] + [
        ",".join([name, str(o.lam), *(fmt(getattr(o, f)) for f in OUTCOME_FIELDS),
                  fmt(report.total), fmt(diff)])
        for name, report in reports.items() for o in report.outcomes
    ]
    text = []
    for name, report in reports.items():
        text += [f"{name}:", "outcome  " + "  ".join(f"{f:>17}" for f in OUTCOME_FIELDS)]
        text += [f"{o.lam:>7}  " + "  ".join(f"{fmt(getattr(o, f)):>17}" for f in OUTCOME_FIELDS)
                 for o in report.outcomes]
        text.append(f"total success probability: {fmt(report.total)}")
    text += [f"max |analytic - simulated|: {fmt(diff)}",
             "note: total success probability does not depend on the input state"]
    assert run_capture(capsys, argv + ["--format", "csv"]) == (
        0, "".join(line + "\n" for line in csv), ""
    )
    assert run_capture(capsys, argv) == (0, "".join(line + "\n" for line in text), "")


@REPORT_CASES
def test_montecarlo_output_equals_the_library_reports(capsys, channel, basis, k):
    inp = PureInputState(0.6, 0.8j)
    args = (inp, parse_channel(channel), parse_basis(basis), parse_k_policy(k))
    total = analytic_report(*args).total
    mc = monte_carlo(*args, trials=12345, seed=77)
    z = (mc.p_hat - total) / mc.std_err
    argv = ["montecarlo", "--channel", channel, "--basis", basis, f"--k={k}", "--alpha", "0.6",
            "--beta", "0.8i", "--trials", "12345", "--seed", "77"]
    fmt = "{:.15g}".format
    assert run_capture(capsys, argv + ["--format", "csv"]) == (
        0, f"analytic,empirical,stderr,z\n{fmt(total)},{fmt(mc.p_hat)},{fmt(mc.std_err)},{fmt(z)}\n", ""
    )
    assert run_capture(capsys, argv) == (0, "".join(line + "\n" for line in [
        "trials: 12345",
        "seed: 77",
        "sampler: multinomial-binomial",
        "outcome counts: " + " ".join(map(str, mc.outcome_counts)),
        "success counts: " + " ".join(map(str, mc.success_counts)),
        f"analytic total: {fmt(total)}",
        f"empirical total: {fmt(mc.p_hat)}",
        f"std err: {fmt(mc.std_err)}",
        f"z: {fmt(z)}",
    ]), "")


def test_k_sweep_accepts_the_default_k(capsys):
    # `--k max` only restates the default, so a K sweep takes it
    code, out, _ = run_capture(capsys, K_SWEEP)
    assert (code, out) == run_capture(capsys, K_SWEEP + ["--k=max"])[:2]
    assert code == 0


@pytest.mark.parametrize("k", ["MAX", "max-global", " Max "])
def test_k_sweep_accepts_every_spelling_of_the_default_k(capsys, k):
    default = run_capture(capsys, K_SWEEP)
    assert default[0] == 0
    assert run_capture(capsys, K_SWEEP + ["--k", k]) == default


# stdout of the release before the CLI read its arguments directly, pinned byte for byte,
# except the Bell residual line: 2.22e-16 is what a float64 success weight gives
GOLDEN_RUN_BELL_TEXT = """\
analytic:
outcome             k_used            p_alice              p_bob            p_joint           fidelity
      1               1.25               0.25               0.72               0.18                  1
      2               1.25               0.25               0.72               0.18                  1
      3               1.25               0.25               0.72               0.18                  1
      4               1.25               0.25               0.72               0.18                  1
total success probability: 0.72
simulated:
outcome             k_used            p_alice              p_bob            p_joint           fidelity
      1               1.25               0.25               0.72               0.18                  1
      2               1.25               0.25               0.72               0.18                  1
      3               1.25               0.25               0.72               0.18                  1
      4               1.25               0.25               0.72               0.18                  1
total success probability: 0.72
max |analytic - simulated|: 2.22044604925031e-16
note: total success probability does not depend on the input state
"""

GOLDEN_RUN_BELL_CSV = """\
source,lam,k_used,p_alice,p_bob,p_joint,fidelity,total,max_abs_diff
analytic,1,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
analytic,2,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
analytic,3,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
analytic,4,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
simulated,1,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
simulated,2,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
simulated,3,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
simulated,4,1.25,0.25,0.72,0.18,1,0.72,2.22044604925031e-16
"""

GOLDEN_RUN_GBM_TEXT = """\
analytic:
outcome             k_used            p_alice              p_bob            p_joint           fidelity
      1   1.62760416666667         0.25825536  0.179230975109287         0.04628736                  1
      2   1.35567501639415         0.21643264  0.148372445117335         0.03211264                  1
      3   1.35567501639415         0.35979264  0.0892531876138434         0.03211264                  1
      4   1.62760416666667         0.16551936  0.279649220489978         0.04628736                  1
total success probability: 0.1568
simulated:
outcome             k_used            p_alice              p_bob            p_joint           fidelity
      1   1.62760416666667         0.25825536  0.179230975109287         0.04628736                  1
      2   1.35567501639415         0.21643264  0.148372445117335         0.03211264                  1
      3   1.35567501639415         0.35979264  0.0892531876138434         0.03211264                  1
      4   1.62760416666667         0.16551936  0.279649220489978         0.04628736                  1
total success probability: 0.1568
max |analytic - simulated|: 4.44089209850063e-16
note: total success probability does not depend on the input state
"""

GOLDEN_RUN_GBM_CSV = """\
source,lam,k_used,p_alice,p_bob,p_joint,fidelity,total,max_abs_diff
analytic,1,1.62760416666667,0.25825536,0.179230975109287,0.04628736,1,0.1568,4.44089209850063e-16
analytic,2,1.35567501639415,0.21643264,0.148372445117335,0.03211264,1,0.1568,4.44089209850063e-16
analytic,3,1.35567501639415,0.35979264,0.0892531876138434,0.03211264,1,0.1568,4.44089209850063e-16
analytic,4,1.62760416666667,0.16551936,0.279649220489978,0.04628736,1,0.1568,4.44089209850063e-16
simulated,1,1.62760416666667,0.25825536,0.179230975109287,0.04628736,1,0.1568,4.44089209850063e-16
simulated,2,1.35567501639415,0.21643264,0.148372445117335,0.03211264,1,0.1568,4.44089209850063e-16
simulated,3,1.35567501639415,0.35979264,0.0892531876138434,0.03211264,1,0.1568,4.44089209850063e-16
simulated,4,1.62760416666667,0.16551936,0.279649220489978,0.04628736,1,0.1568,4.44089209850063e-16
"""

RUN_BELL = ["run", "--channel", "diag:0.8,0.6", "--k", "max"]
RUN_GBM = ["run", "--channel", "diag:0.6+0.48i,0.64", "--basis", "gbm:0.28,0.96",
           "--alpha", "0.6i", "--beta=-0.8", "--k", "per-outcome"]


@pytest.mark.parametrize(
    "argv, golden",
    [
        pytest.param(RUN_BELL, GOLDEN_RUN_BELL_TEXT, id="bell-text"),
        pytest.param(RUN_BELL + ["--format", "csv"], GOLDEN_RUN_BELL_CSV, id="bell-csv"),
        pytest.param(RUN_GBM, GOLDEN_RUN_GBM_TEXT, id="gbm-text"),
        pytest.param(RUN_GBM + ["--format", "csv"], GOLDEN_RUN_GBM_CSV, id="gbm-csv"),
    ],
)
def test_run_output_is_byte_identical_to_golden(capsys, argv, golden):
    assert run_capture(capsys, argv) == (0, golden, "")


# ------------------------------------------- a standing property over the CLI grammar

# Literals that broke an entry point before: non-finite and out-of-range doubles,
# a complex inf, spellings float() or int() read or refuse (hex, digit groups, a
# non-ASCII digit), a bool's name and the empty string.
ODD_NUMBERS = ["-1", "nan", "-nan", "inf", "-inf", "1e400", "1e-320", "1+infi", "0x1p-3", "1_0",
               "\u0663", "True", "", " 0.8 "]
ODD_COUNTS = ["0", "-1", "1_0", "\u0663", "True", "", str(2**63)]


def _grammar(odd):
    """The strategy of each token of an argv: valid tokens alone, or on an odd argv a
    valid token or an odd one, about half the time each."""
    def field(valid, odd_tokens):
        valid = st.sampled_from(valid)
        return st.one_of(valid, odd_tokens) if odd else valid

    numbers = field(["0.8", "0.6", "0.6i", "-0.28", "0.96", "0.7071067811865476", "1", "0", "0.5"],
                    st.sampled_from(ODD_NUMBERS))
    return {
        "channel": field(["diag:0.8,0.6", "diag:0.6,0.8", "0.5+0.1i,0.3,-0.2i,0.7810249675906654",
                          "0,0.7071067811865476,0.7071067811865476,0", "diag:1,0"],
                         st.one_of(st.builds("diag:{},{}".format, numbers, numbers),
                                   st.lists(numbers, min_size=1, max_size=5).map(",".join))),
        "basis": field(["bell", "gbm:0.6,0.8", "gbm:-0.28,0.96", "gbm:1,0"],
                       st.one_of(st.sampled_from(["gbm:0.6", ""]),
                                 st.builds("gbm:{},{}".format, numbers, numbers))),
        "k": field(["max", "per-outcome", "0.5", "2"], numbers),
        # the values of --alpha and --beta, which must come together
        "input": field([["0.6", "0.8"], ["0.6i", "-0.8"], ["1", "0"]],
                       st.lists(numbers, min_size=1, max_size=2)),
        "trials": field(["1", "5", "1000", str(2**63 - 1)], st.sampled_from(ODD_COUNTS)),
        "seed": field(["0", "7", str(2**64)], st.sampled_from(ODD_COUNTS)),
        # grids of a few points: a sweep of the largest grid takes seconds
        "steps": field(["2", "5"], st.sampled_from(["0", "1", "100001", *ODD_COUNTS])),
        "format": field(["text", "csv"], st.sampled_from(["json", ""])),
        # the ends of a b or k grid
        "end": field(["0.1", "0.5", "0.9", "-0.5", "1", "-1", "1.2"], numbers),
    }


GRAMMARS = (_grammar(odd=False), _grammar(odd=True))


@st.composite
def cli_argvs(draw):
    """An argv of any subcommand but help, without --out."""
    grammar = draw(st.sampled_from(GRAMMARS))

    def options(*names):
        argv = []
        for name in draw(st.lists(st.sampled_from(names), unique=True)):
            if name == "input":
                argv += [arg for pair in zip(("--alpha", "--beta"), draw(grammar[name])) for arg in pair]
            else:
                argv += [f"--{name}", draw(grammar[name])]
        return argv

    command = draw(st.sampled_from(["analyze", "run", "montecarlo", "sweep", "fig1"]))
    if command == "analyze":
        return [command, "--channel", draw(grammar["channel"]), *options("format")]
    if command == "run":
        return [command, "--channel", draw(grammar["channel"]), *options("basis", "k", "input", "format")]
    if command == "montecarlo":
        return [command, "--channel", draw(grammar["channel"]),
                *options("basis", "k", "input", "format", "trials", "seed")]
    if command == "fig1":
        return [command, *options("steps")]
    return [command, "--param", draw(st.sampled_from(["b", "k"])), "--start", draw(grammar["end"]),
            "--stop", draw(grammar["end"]), "--steps", draw(grammar["steps"]),
            *options("channel", "basis", "k", "input")]


def _outcome(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _error_class(argv):
    """The class of what parsing and running argv raises, without main's mapping to exit
    codes: None for success."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = telematch.cli.build_parser().parse_args(argv)
            args.func(args)
        except (ValueError, OSError) as exc:
            return type(exc)
    return None


DOMAIN_ERRORS = (KOutOfRangeError, UnteleportableChannelError, DegenerateBasisError)


@settings(max_examples=500)
@given(cli_argvs())
def test_every_argv_exits_by_its_error_class_with_one_error_line(argv):
    code, out, err = _outcome(argv)
    assert (code, out, err) == _outcome(argv)  # the same bytes on a second run
    if code == 0:
        assert err == ""
        assert not re.search(r"(?i)(?<![a-z])(nan|inf)", out), out
        return
    error = _error_class(argv)
    assert error is not None  # main failed where the command, called alone, ran
    assert code == (2 if issubclass(error, DOMAIN_ERRORS) else 1), error
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("telematch: error: "), err
