import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qudisc import cli, harness, optics, povm
from qudisc.cli import _render_json, main
from shared import PeakMemory, never
from test_harness import scale_pi1

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_table(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "2")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["s3"] == 8
    assert record["results"]["i0"] == 2


def test_dims_n3_i0(capsys):
    code, out, _ = run_cli(capsys, "dims", "--n", "3")
    assert code == 0
    assert json.loads(out)["results"]["i0"] == 8


def test_dims_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "dims", "--n", "1")
    assert code == 2
    assert "error" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 0
    assert "overall: pass" in out


def test_verify_exits_1_with_a_fail_report_under_a_scaled_pi1(capsys, monkeypatch):
    scale_pi1(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--n-max", "2")
    assert (code, err) == (1, "")
    assert "status: FAIL" in out and out.endswith("overall: FAIL\n")


def test_verify_prints_no_negative_zero(capsys):
    # At n = 8 the lowest eigenvalue of the averaged inputs is +0.0, and
    # max(0, -lowest) is -0.0 before the report takes it.
    code, out, _ = run_cli(capsys, "verify", "--n-max", "8", "--json")
    assert code == 0
    tokens = re.findall(r'"worst_deviation": ([^,\n]*)', out)
    assert len(tokens) == len(json.loads(out)["results"]["checks"])
    assert not [token for token in tokens if token.startswith("-")]
    report = harness.VerificationReport()
    report.add("zero", "global", -0.0, 0.0, "a deviation of -0.0 is reported as +0.0")
    assert np.copysign(1.0, report.results[0].deviation) == 1.0


def test_verify_rejects_bad_nmax(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("n_max", ["49", str(10**9)])
def test_verify_refuses_oversized_nmax(capsys, monkeypatch, n_max):
    monkeypatch.setattr(harness, "_kind_results", never("verify started work"))
    monkeypatch.setattr(harness, "_checks_for_n", never("verify started work"))
    monkeypatch.setattr(harness, "_global_checks", never("verify started work"))
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "over the limit" in err


def _raising(exc):
    def command(args):
        raise exc

    return command


def test_memory_error_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_dims", _raising(MemoryError()))
    code, out, err = run_cli(capsys, "dims", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unexpected_exception_exits_3_with_traceback(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_dims", _raising(RuntimeError("boom")))
    code, out, err = run_cli(capsys, "dims", "--n", "2")
    assert (code, out) == (3, "")
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert err.rstrip().endswith("error: internal error")


def test_verify_json_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--json")
    assert code == 0
    record = json.loads(out, parse_constant=_reject_constant)
    assert record["results"]["passed"] is True
    assert len(record["results"]["checks"]) > 20
    assert record["params"] == {"n_max": 2}


def test_verify_ignores_qudisc_tol(capsys, monkeypatch):
    monkeypatch.setenv("QUDISC_TOL", "1e-30")  # each check's bound is a constant of harness
    code, _, _ = run_cli(capsys, "verify", "--n-max", "2")
    assert code == 0


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    # --tol is retired: argparse refuses it whatever its value, before verify runs.
    code, out, err = run_cli(capsys, "verify", "--n-max", "2", "--json", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_render_json_writes_non_finite_numbers_as_null():
    text = _render_json({"x": float("nan"), "y": [float("inf"), -float("inf"), 1.5]})
    assert json.loads(text, parse_constant=_reject_constant) == {"x": None, "y": [None, None, 1.5]}


def test_numpy_integers_are_written_as_integers():
    # np.int64(2**62) through float() would be written 4.61168601842739e+18.
    assert [cli._format_number(v) for v in (np.int64(7), np.int64(2**62), np.uint8(3))] == [
        "7", str(2**62), "3"]


def test_scan_row_at_x2(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "2", "--eta1", "0.5", "--steps", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    by_x = {row.split(",")[1]: row.split(",") for row in rows}
    assert abs(float(by_x["2"][2]) - 1 / 6) < 1e-12


def test_scan_degenerate_grid(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "2", "--eta1", "0.5", "--steps", "1")
    assert code == 0
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert [row.split(",")[1] for row in rows] == ["1", "4"]


@pytest.mark.parametrize("steps", [cli.MAX_SCAN_STEPS + 1, 10**9])
def test_scan_refuses_too_many_steps(capsys, monkeypatch, steps):
    monkeypatch.setattr(np, "linspace", never("a grid was built"))
    code, out, err = run_cli(capsys, "scan", "--n", "2", "--eta1", "0.5", "--steps", str(steps))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must not exceed" in err


def test_scan_rejects_degenerate_priors(capsys):
    code, _, err = run_cli(capsys, "scan", "--n", "2", "--eta1", "1.0")
    assert code == 2
    assert "error" in err


def test_optimal_middle(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--n", "2", "--eta1", "0.5")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["regime"] == "middle"
    assert abs(record["results"]["p_avg_opt"] - 1 / 6) < 1e-12


def test_optimal_low_regime(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--n", "2", "--eta1", "0.1")
    record = json.loads(out)
    assert code == 0
    assert record["results"]["regime"] == "low"
    assert abs(record["results"]["p_avg_opt"] - 0.225) < 1e-12


def test_optimal_with_overlap(capsys):
    code, out, _ = run_cli(capsys, "optimal", "--eta1", "0.5", "--overlap-sq", "0")
    record = json.loads(out)
    assert code == 0
    assert abs(record["results"]["p_pure_opt"] - 1 / 3) < 1e-12


def test_simulate_single_shot(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--eta1", "0.5", "--x", "2", "--shots", "1", "--seed", "0"
    )
    assert code == 0
    record = json.loads(out)
    assert sum(record["results"]["counts"].values()) == 1


def test_simulate_seed_repeatable(capsys):
    argv = ["simulate", "--eta1", "0.3", "--x", "2.5", "--shots", "200", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2



def test_simulate_seeds_above_2_63_keep_their_own_streams(capsys):
    argv = ["simulate", "--eta1", "0.3", "--x", "2.5", "--shots", "200", "--seed"]
    code1, out1, _ = run_cli(capsys, *argv, str(2**63))
    code2, out2, _ = run_cli(capsys, *argv, str(2**63 + 1))
    code3, _, _ = run_cli(capsys, *argv, str(2**64 - 1))
    assert code1 == code2 == code3 == 0
    assert json.loads(out1)["results"] != json.loads(out2)["results"]


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_simulate_rejects_seeds_outside_64_bits(capsys, seed):
    code, out, err = run_cli(capsys, "simulate", "--eta1", "0.5", "--x", "2",
                             "--shots", "10", "--seed", seed)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err

def test_simulate_refuses_too_many_shots(capsys, monkeypatch):
    monkeypatch.setattr(optics, "seeded_stream", never("a stream was built"))
    code, out, err = run_cli(capsys, "simulate", "--eta1", "0.5", "--x", "2",
                             "--shots", str(optics.MAX_SHOTS + 1))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must not exceed" in err


def test_simulate_at_the_shot_limit_exits_0_in_little_memory(capsys):
    argv = ["simulate", "--eta1", "0.3", "--x", "2.5", "--seed", "7", "--shots"]
    assert run_cli(capsys, *argv, "1")[0] == 0  # first-call costs
    with PeakMemory() as peak:
        code, out, err = run_cli(capsys, *argv, "1000000000")
    assert (code, err) == (0, "")
    assert peak.bytes < 2**18
    results = json.loads(out)["results"]
    assert sum(results["counts"].values()) == sum(results["input_counts"].values()) == 10**9
    assert abs(results["input_counts"]["g"] - 0.3 * 10**9) < 5 * np.sqrt(0.21 * 10**9)


def test_simulate_omega1_and_x_exclusive(capsys):
    assert main(["simulate", "--eta1", "0.5", "--x", "2", "--omega1", "0.3",
                 "--shots", "10"]) == 2
    assert capsys.readouterr().out == ""


def test_simulate_needs_omega1_or_x(capsys):
    assert main(["simulate", "--eta1", "0.5", "--shots", "10"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code, out", [
    (["--help"], 0, "usage: qudisc"), (["verify", "--help"], 0, "usage: qudisc verify"),
    (["--version"], 0, "qudisc 0.1.0"), ([], 2, ""), (["dims", "--n", "two"], 2, "")])
def test_argparse_exits_are_returned_codes(capsys, argv, code, out):
    assert main(argv) == code
    printed = capsys.readouterr().out
    assert printed.startswith(out) if out else printed == ""


@pytest.mark.parametrize("argv, prog, message", [
    (["verify", "--n-max", "2", "--tol", "1e-9"], "qudisc", "unrecognized arguments: --tol"),
    (["simulate", "--x", "2", "--shots", "10"], "qudisc simulate",
     "the following arguments are required: --eta1")])
def test_a_usage_error_prints_the_usage_then_one_error_line(capsys, argv, prog, message):
    # argparse's refusals, unlike the program's own "error: ..." line, open with the usage.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: {prog} ")
    assert lines[-1].startswith(f"{prog}: error: {message}")
    assert sum("error:" in line for line in lines) == 1


def test_prepare_writes_network(tmp_path, capsys):
    source = tmp_path / "amps.txt"
    source.write_text("0.6\n0, 0.8\n")
    out_file = tmp_path / "net.txt"
    code, out, _ = run_cli(capsys, "prepare", str(source), "--out", str(out_file))
    assert code == 0
    record = json.loads(out)
    assert record["results"]["column_error"] < 1e-10
    assert out_file.read_text().startswith("MODES 2\nBS 1 2 ")


def test_prepare_measures_its_error_on_the_network_its_text_reads_back_as(
        tmp_path, capsys, monkeypatch):
    source, out_file = tmp_path / "amps.txt", tmp_path / "net.txt"
    source.write_text("0.6\n0, 0.8\n")
    read, parse = [], optics.Interferometer.from_text

    def misread(text):  # the text's network, with a phase of 0.1 on the photon's mode
        read.append(text)
        net = parse(text)
        return optics.Interferometer(2, net.modes, net.angles, net.phases + [0.1, 0.0])

    monkeypatch.setattr(optics.Interferometer, "from_text", misread)
    code, out, _ = run_cli(capsys, "prepare", str(source), "--out", str(out_file))
    assert code == 0
    assert read == [out_file.read_text()]
    assert json.loads(out)["results"]["column_error"] > 0.05


def test_prepare_basis_vector(tmp_path, capsys):
    source = tmp_path / "amps.txt"
    source.write_text("1\n0\n0\n")
    code, out, _ = run_cli(capsys, "prepare", str(source))
    assert code == 0
    assert json.loads(out.split("MODES 3\n", 1)[1])["results"]["layers"] == 0


def test_prepare_rejects_unnormalized(tmp_path, capsys):
    source = tmp_path / "amps.txt"
    source.write_text("1\n1\n")
    code, _, err = run_cli(capsys, "prepare", str(source))
    assert code == 2
    assert "error" in err
    source.write_text("nan\n0.5\n")
    out_file = tmp_path / "net.txt"
    code, out, err = run_cli(capsys, "prepare", str(source), "--out", str(out_file))
    assert code == 2
    assert "error" in err and out == ""
    assert not out_file.exists()


def test_prepare_refuses_huge_amplitudes_with_one_error_line(tmp_path):
    # Run as a user runs it, where a numpy overflow warning would reach stderr.
    source = tmp_path / "amps.txt"
    source.write_text("1e200\n0\n")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "qudisc.cli", "prepare", str(source)],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: amplitudes must have unit norm\n"


def test_prepare_refuses_more_modes_than_the_limit(tmp_path, capsys):
    modes = optics.MAX_MODES + 1
    source = tmp_path / "amps.txt"
    source.write_text(f"{modes ** -0.5!r}\n" * modes)
    code, out, err = run_cli(capsys, "prepare", str(source))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must not exceed" in err


def test_prepare_stops_reading_at_the_first_amplitude_past_the_limit(tmp_path, capsys):
    modes = optics.MAX_MODES + 1
    source = tmp_path / "amps.txt"
    source.write_text("# header\n" + f"{modes ** -0.5!r}\n" * modes)
    with PeakMemory() as peak:
        code, out, err = run_cli(capsys, "prepare", str(source))
    assert (code, out) == (2, "")
    # Refused on the line of amplitude MAX_MODES + 1, before any network is built.
    assert err.startswith("error:") and f"line {modes + 1} " in err and "must not exceed" in err
    assert peak.bytes < 2**20


def test_prepare_propagates_one_photon_without_the_unitary(tmp_path, capsys):
    rng = optics.seeded_stream(4096)
    amps = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    amps /= np.linalg.norm(amps)
    source = tmp_path / "amps.txt"
    source.write_text("".join(f"{a.real!r} {a.imag!r}\n" for a in amps.tolist()))
    with PeakMemory() as peak:
        code, out, _ = run_cli(capsys, "prepare", str(source), "--out", str(tmp_path / "net.txt"))
    assert code == 0
    assert json.loads(out)["results"]["column_error"] < 1e-10
    assert peak.bytes < 16 * 2**20  # the 4096 x 4096 unitary alone would take 256 MiB


@pytest.mark.parametrize("body,line", [("0.6 0 5\n0.8\n", 1), ("0.6\n# note\n0.8 x\n", 3)])
def test_prepare_rejects_malformed_amplitude_lines(tmp_path, capsys, body, line):
    source = tmp_path / "amps.txt"
    source.write_text(body)
    code, out, err = run_cli(capsys, "prepare", str(source))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and f"line {line} " in err

@pytest.mark.parametrize(
    "name,argv",
    [
        ("dims_n3.txt", ["dims", "--n", "3"]),
        ("scan_n2_eta05_steps4.txt", ["scan", "--n", "2", "--eta1", "0.5", "--steps", "4"]),
        (
            "optimal_n2_eta05_overlap0.txt",
            ["optimal", "--n", "2", "--eta1", "0.5", "--overlap-sq", "0"],
        ),
        (
            "simulate_n2_eta03_x25_shots200000_seed7.txt",
            ["simulate", "--n", "2", "--eta1", "0.3", "--x", "2.5", "--shots", "200000",
             "--seed", "7"],
        ),
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 51, 10**5 + 1])
def test_scan_grid_is_linspace_bit_for_bit(steps):
    points = max(steps, 2)
    streamed = np.fromiter(cli._scan_grid(points), dtype=float, count=points)
    assert streamed.tobytes() == np.linspace(1.0, 4.0, points).tobytes()


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "1", "--eta1", "0.3", "--steps", "3"],
    ["simulate", "--n", "1", "--eta1", "0.3", "--x", "2", "--shots", "20000000"],
])
def test_the_dimension_is_checked_before_any_output_or_draw(monkeypatch, capsys, argv):
    monkeypatch.setattr(optics, "seeded_stream", never("a stream was built"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "qudit dimension" in err


def test_a_400_digit_dimension_averages_to_two_thirds(capsys):
    n = 10**400
    assert povm._average_scale(n) == 2 / 3
    for m in (2, 3, 7, 10**6 + 3, 2**51 - 1):  # the int quotient keeps the float formula's bits
        assert povm._average_scale(m) == 2.0 * (m - 1) / (3.0 * m)
    priors = povm.Priors.from_eta1(0.3)
    assert povm.average_success(n, 0.7, priors) == (2 / 3) * povm.success_curve_x(
        povm.x_from_omega1(0.7), priors)
    assert povm.optimal_average(n, priors).value == (2 / 3) * povm.optimal_subspace(priors).value
    code, out, _ = run_cli(capsys, "optimal", "--n", str(n), "--eta1", "0.3")
    assert code == 0
    record = json.loads(out)
    assert record["params"]["n"] == n
    assert abs(record["results"]["p_avg_opt"] - povm.optimal_average(n, priors).value) < 1e-14


def _contract_cases():
    """argv lists for every subcommand with out-of-domain and limit values."""
    cases = []
    for n in ("1", "0", "-1", str(10**400)):
        cases += [["dims", "--n", n], ["verify", "--n-max", n],
                  ["scan", "--n", n, "--eta1", "0.3", "--steps", "3"],
                  ["optimal", "--n", n, "--eta1", "0.3"],
                  ["simulate", "--n", n, "--eta1", "0.3", "--x", "2", "--shots", "100"]]
    for eta1 in ("nan", "inf", "1.5"):
        cases += [["scan", "--n", "2", "--eta1", eta1, "--steps", "3"],
                  ["optimal", "--n", "2", "--eta1", eta1],
                  ["simulate", "--n", "2", "--eta1", eta1, "--x", "2", "--shots", "100"]]
    for steps in (0, cli.MAX_SCAN_STEPS + 1):
        cases.append(["scan", "--n", "2", "--eta1", "0.3", "--steps", str(steps)])
    for shots in (0, optics.MAX_SHOTS + 1):
        cases.append(["simulate", "--n", "2", "--eta1", "0.3", "--x", "2", "--shots", str(shots)])
    return cases


@pytest.mark.parametrize("argv", _contract_cases(), ids=lambda argv: " ".join(argv)[:60])
def test_exit_codes_are_zero_or_two_and_a_refusal_prints_nothing(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("error:")
