"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import math
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaass import cli
from qmaass.cli import (
    RunConfig,
    UsageError,
    build_parser,
    parse_matrix,
    parse_rational,
    parse_rational_pair,
    parse_tau,
    run,
)
from qmaass.cyclotomic import MAX_ROOT_ORDER
from qmaass.families import negative_part_series
from qmaass.maass import _cohen_residuals
from qmaass.series import QSeriesError
from qmaass.theta import family_params


def _run(capsys, *argv):
    """Run the CLI in-process; return (exit_code, stdout lines, stderr)."""
    code = run(list(argv))
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line]
    return code, lines, captured.err


def _json_lines(lines):
    return [json.loads(line) for line in lines]


def _has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(map(_has_float, value.values()))
    if isinstance(value, list):
        return any(map(_has_float, value))
    return False


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# The behaviour lock: sha256 digests of stdout lines, recorded before the
# exact kernel moved to packed word digits, one-factor Pochhammer passes
# and clean-map sums.  A change that moves one must fix a verdict and say
# so in CHANGES.md.
LOCKED_VERIFY_ALL_EXACT = "9d26a7257a089c65b8e031b46333c587e2520c4cccb6b275d59ae0e9102a0992"
LOCKED_EXPAND_TABLES = {
    "f --j 1 --k 2 --l 1 --order 400":
        "eb286b1757d041a09d267aafda6a80cb26ccf63e2229a4c09dbde693eb7e9b2b",
    # Recorded before the families moved onto one packed Horner sum.
    "f --j 2 --k 2 --l 1 --order 400":
        "8e9c445f4c8b50181bcae6c4ed35f5587587716841a2a4b716fd619f48d4dd7f",
    "f --j 3 --k 3 --l 2 --order 200":
        "5f10a680ed135e31b36d23b59bdfdd35a2252dc6d089189aa2d87e9671974933",
    "f --j 4 --k 1 --l 1 --order 300":
        "9d0d13592f7dc1d72603ca0d3da3385a7b7500ff90e724040391114ccdc747b6",
    "hpoly --k 3": "1b3b59cddf307d385c0fb61128197e9d239e09a88603c5699f7d4d449d1d340a",
    # Recorded when the table became the cone series alone.
    "negative-part --M 3 --l 1 --order 20":
        "64b9a2007d1858ae9a40c41ed864002412a1295ff799aa3ff7f6e1163774fce5",
    "sigma": "6dce9010b74d4e9e516d223559364caf4152cb2d5cd6940c8a9516af8627fc5a",
    "sigma-star": "89377028d87d6df11a80c9856690c8f99e568e067efeee2f73b75b2d225bbe32",
    "s-theta --j 2 --k 2 --l 1 --order 60":
        "2e84e0a3fcc2f3bff77b8ccf272608cd83318d289ede620b68eeef12f106e846",
    "s-theta --M 3 --a 1/5,1/7 --b 1/3,1/11 --order 40":
        "3e493b027d036f2a4c595fa47d21acc3407282cc728bfa3e088462d6a1bba997",
}


# ------------------------------------------------------------ exact parsing


class TestParsing:
    def test_rational_is_exact(self):
        value = parse_rational("1/10")
        assert value == Fraction(1, 10)
        assert value.denominator == 10

    def test_rational_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_rational("one half")
        with pytest.raises(UsageError):
            parse_rational("1/0")

    def test_rational_pair(self):
        assert parse_rational_pair("1/3,-2/5") == (Fraction(1, 3), Fraction(-2, 5))
        with pytest.raises(UsageError):
            parse_rational_pair("1/3")

    def test_tau_forms(self):
        assert parse_tau("i") == 1j
        assert parse_tau("0.5,2.0") == complex(0.5, 2.0)
        with pytest.raises(UsageError):
            parse_tau("0.5,-1.0")
        with pytest.raises(UsageError):
            parse_tau("nonsense")
        for text in ("0,inf", "nan,1", "inf,1", "0,-inf"):
            with pytest.raises(UsageError, match="finite"):
                parse_tau(text)

    def test_matrix(self):
        assert parse_matrix("0,-1,2,0") == (0, -1, 2, 0)
        with pytest.raises(UsageError):
            parse_matrix("1,2,3")

    def test_runconfig_keeps_fractions(self):
        ns = build_parser().parse_args(
            ["eval", "quantum", "--j", "1", "--k", "1", "--l", "1", "--x", "1/7"]
        )
        cfg = RunConfig.from_args(ns)
        assert cfg.x == Fraction(1, 7)
        assert isinstance(cfg.x, Fraction)

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_runconfig_holds_every_option_once(self, command):
        target = cli.COMMANDS[command].targets[0]
        cfg = RunConfig.from_args(build_parser().parse_args([command, target]))
        names = list(vars(cfg))
        assert names == ["command", "target", *cli.OPTIONS]
        # fmt is the command's default row format even where --format is
        # not an option (verify writes only JSON lines).
        taken = {*cli.COMMANDS[command].fields, "fmt"}
        assert all(getattr(cfg, name) is None for name in cli.OPTIONS if name not in taken)
        assert cfg.fmt == cli.COMMANDS[command].fmt

    def test_thread_env_is_ignored(self, capsys, monkeypatch):
        monkeypatch.delenv("QMAASS_THREADS", raising=False)
        unset = _run(capsys, "verify", "sigma", "--order", "10")
        monkeypatch.setenv("QMAASS_THREADS", "zero")
        code, lines, err = _run(capsys, "verify", "sigma", "--order", "10")
        assert code == 0
        assert err == ""
        assert (code, lines, err) == unset


# ------------------------------------------------------------ verify


class TestVerify:
    def test_sigma_suite(self, capsys):
        code, lines, _ = _run(capsys, "verify", "sigma", "--order", "60")
        assert code == 0
        objs = _json_lines(lines)
        assert len(objs) == 4
        assert all(o["status"] == "pass" for o in objs)
        kinds = {(o["params"]["series"], o["params"]["rhs"]) for o in objs}
        assert ("sigma", "indefinite") in kinds
        assert ("sigma-star", "alternating") in kinds

    def test_params_suite_count(self, capsys):
        code, lines, _ = _run(capsys, "verify", "params", "--kmax", "4")
        assert code == 0
        # Four families, one check per (k, ell) with ell <= k <= 4.
        assert len(lines) == 4 * (1 + 2 + 3 + 4)
        assert all(o["status"] == "pass" for o in _json_lines(lines))

    def test_ag_suite(self, capsys):
        code, lines, _ = _run(capsys, "verify", "ag", "--kmax", "2", "--nmax", "4")
        assert code == 0
        objs = _json_lines(lines)
        # k = 2 only, ell in {1, 2}; n in 0..4 for b=0 and 1..4 for b=1.
        assert len(objs) == 2 * (5 + 4)
        assert all(o["status"] == "pass" for o in objs)

    def test_bailey_suite(self, capsys):
        code, lines, _ = _run(
            capsys, "verify", "bailey", "--kmax", "2", "--nmax", "6", "--order", "30"
        )
        assert code == 0
        assert all(o["status"] == "pass" for o in _json_lines(lines))

    def test_lattice_and_embedding_suites(self, capsys):
        for suite in ("prop32", "thm1"):
            code, lines, _ = _run(
                capsys, "verify", suite, "--kmax", "2", "--order", "40"
            )
            assert code == 0, suite
            assert len(lines) == 4 * 3
            assert all(o["status"] == "pass" for o in _json_lines(lines))

    def test_completion_suite(self, capsys):
        code, lines, _ = _run(capsys, "verify", "completion")
        assert code == 0
        objs = _json_lines(lines)
        assert len(objs) == 3
        assert objs[-1]["check"] == "completion_defect_control"
        assert objs[-1]["defect"] > 1e-3

    def test_completion_control_must_fail_exact_validation(self, capsys, monkeypatch):
        # A control that validated as a family lattice would prove nothing,
        # whatever its defect.
        passing = cli.validate_params(family_params(1, 1, 1).params)
        monkeypatch.setattr(cli, "validate_params", lambda params: passing)
        code, lines, _ = _run(capsys, "verify", "completion")
        control = _json_lines(lines)[-1]
        assert control["check"] == "completion_defect_control"
        assert control["status"] == "fail" and control["defect"] > 1e-3
        assert code != 0

    def test_completion_cut_too_short_is_precision_failure(self, capsys):
        # At cut 1 the outer shell of (1,1,1) still adds terms: its defect
        # there is truncation, not a failed verdict.
        code, lines, err = _run(capsys, "verify", "completion", "--lattice-cut", "1")
        assert code == 3
        assert lines == []
        assert err.startswith("qmaass: numeric precision failure")

    def test_completion_float_sign_defect_still_fails(self, capsys):
        # At tau = 0.2i the guard accepts cut 16, and the (1,1,1) defect
        # left by the float ray signs fails the tolerance, as it should.
        code, lines, _ = _run(
            capsys, "verify", "completion", "--tau", "0,0.2", "--lattice-cut", "16"
        )
        assert code == 1
        assert _json_lines(lines)[0]["status"] == "fail"

    def test_cohen_suite(self, capsys):
        code, lines, _ = _run(capsys, "verify", "cohen", "--ncut", "600")
        assert code == 0
        objs = _json_lines(lines)
        assert len(objs) == 5
        assert objs[0]["check"] == "cohen_waveform_real_on_axis"
        assert abs(objs[0]["value_im"]) < 1e-8

    # The inversion residual is a verdict only once it clears the 1e-6
    # tolerance by the tail bounds: 1.4e-5 within 0.016 at ncut 50,
    # 2.9e-8 within 2.1e-5 at ncut 100, and a pass at ncut 200.
    @pytest.mark.parametrize("ncut, expected", [(50, 3), (100, 3), (200, 0)])
    def test_cohen_inversion_verdict_reads_the_tail_bound(self, capsys, ncut, expected):
        code, _, err = _run(capsys, "verify", "cohen", "--ncut", str(ncut))
        assert code == expected
        if expected == 3:
            assert "tail bound" in err and "--ncut" in err

    def test_duality_suite(self, capsys):
        code, lines, _ = _run(
            capsys, "verify", "duality", "--kmax", "2", "--nmax", "8"
        )
        assert code == 0
        assert len(lines) == 3 * 8
        assert all(o["status"] == "pass" for o in _json_lines(lines))

    def test_duality_suite_reaches_k6_at_order_24(self, capsys):
        start = time.perf_counter()
        code, lines, _ = _run(capsys, "verify", "duality", "--kmax", "6", "--nmax", "24")
        assert time.perf_counter() - start < 60  # about 6 s on 2 CPUs
        assert code == 0
        assert len(lines) == 21 * 24  # every (k, ell) with ell <= k <= 6, each N

    def test_all_runs_every_suite(self, capsys):
        code, lines, _ = _run(
            capsys,
            "verify", "all", "--kmax", "2", "--nmax", "4", "--order", "30",
            "--ncut", "600",
        )
        assert code == 0
        # Every suite contributes at least one distinct check name.
        checks = {o["check"] for o in _json_lines(lines)}
        assert len(checks) >= 8
        # Behaviour lock: the exact rows are byte-identical to the recorded
        # ones (rows with a float anywhere depend on the platform's libm).
        exact = [line for line in lines if not _has_float(json.loads(line))]
        assert len(exact) == 88
        assert _sha256(exact) == LOCKED_VERIFY_ALL_EXACT

    # One check reports both residuals of a tau from one computation, and a
    # leftover QMAASS_THREADS setting changes nothing about that.
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cohen_suite_computes_each_residual_once(self, capsys, monkeypatch, threads):
        calls = []

        def counted(tau, ncut):
            calls.append(tau)
            return _cohen_residuals(tau, ncut)

        monkeypatch.setenv("QMAASS_THREADS", threads)
        monkeypatch.setattr(cli, "_cohen_residuals", counted)
        code, lines, _ = _run(capsys, "verify", "cohen", "--ncut", "600")
        assert code == 0
        assert len(lines) == 5
        assert sorted(calls, key=lambda tau: tau.real) == [1j, complex(1 / 3, 0.5)]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("verify", "ag", "--kmax", "0"), "--kmax"),
            (("verify", "bailey", "--kmax", "-1"), "--kmax"),
            (("verify", "duality", "--nmax", "0"), "--nmax"),
            (("verify", "all", "--nmax", "0"), "--nmax"),
            (("verify", "cohen", "--ncut", "0"), "--ncut"),
            (("eval", "waveform", "--cohen", "--ncut", "0"), "--ncut"),
            (
                ("eval", "cocycle", "--cohen", "--gamma", "1,0,0,1", "--xs", "1/5",
                 "--ncut", "-3"),
                "--ncut",
            ),
            (("verify", "thm1", "--order", "0"), "--order"),
            (("verify", "prop32", "--order", "-3"), "--order"),
            (("verify", "sigma", "--order", "0"), "--order"),
            (("verify", "bailey", "--order", "0"), "--order"),
            (("verify", "all", "--order=-1/2"), "--order"),
            (("expand", "s-theta", "--j", "1", "--k", "1", "--l", "1", "--order", "0"),
             "--order"),
            (("expand", "hpoly", "--k", "2", "--nmax", "-1"), "--nmax"),
        ],
    )
    def test_nonpositive_sizes_are_usage_errors(self, capsys, argv, flag):
        code, lines, err = _run(capsys, *argv)
        assert code == 2
        assert lines == []
        if flag == "--order":  # a rational truncation, not a count
            assert "--order must be positive" in err
        elif argv[0] == "expand":  # expand hpoly --nmax 0 is a one-row table
            assert f"{flag} must be a nonnegative integer" in err
        else:
            assert f"{flag} must be a positive integer" in err

    def test_suite_without_checks_is_usage_error(self, capsys):
        code, lines, err = _run(capsys, "verify", "ag", "--kmax", "1")
        assert code == 2
        assert lines == []
        assert "no checks" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("eval", "radial", "--j", "5", "--k", "1", "--l", "1", "--x", "1/3"),
             "family index must be in 1..4"),
            (("eval", "radial", "--j", "0", "--k", "1", "--l", "1", "--x", "1/3"),
             "family index must be in 1..4"),
            (("eval", "radial", "--j", "-1", "--k", "1", "--l", "1", "--x", "1/3"),
             "family index must be in 1..4"),
            (("eval", "waveform", "--cohen", "--tau", "0,inf"), "tau must be finite"),
            (("eval", "waveform", "--cohen", "--tau", "nan,1"), "tau must be finite"),
            (("verify", "completion", "--tau", "inf,1"), "tau must be finite"),
            (("verify", "completion", "--tol", "nan"), "--tol must be positive"),
            (("verify", "completion", "--tol", "0"), "--tol must be positive"),
            (("eval", "radial", "--j", "1", "--k", "1", "--l", "1", "--x", "1/3",
              "--tol", "-1"), "--tol must be positive"),
            (("eval", "radial", "--j", "1", "--k", "1", "--l", "1", "--x", "1/3",
              "--tol", "inf"), "--tol must be positive"),
            (("eval", "quantum", "--j", "1", "--k", "1", "--l", "1", "--x", "1/100000"),
             f"order bound {MAX_ROOT_ORDER}"),
            (("verify", "duality", "--nmax", str(MAX_ROOT_ORDER + 1)),
             f"order bound {MAX_ROOT_ORDER}"),
        ],
    )
    def test_invalid_values_are_usage_errors(self, capsys, argv, message):
        code, lines, err = _run(capsys, *argv)
        assert code == 2
        assert lines == []
        assert message in err
        assert "Traceback" not in err

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["verify", "nosuchsuite"])
        assert info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_takes_no_format(self, capsys, fmt):
        # A check report is JSON lines only: csv would take the first
        # check's keys as the header of every check.
        with pytest.raises(SystemExit) as info:
            run(["verify", "cohen", "--format", fmt])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


# ------------------------------------------------------------ expand


class TestExpand:
    @pytest.mark.parametrize("argv", sorted(LOCKED_EXPAND_TABLES))
    def test_tables_are_locked(self, capsys, argv):
        code, lines, _ = _run(capsys, "expand", *argv.split())
        assert code == 0
        assert _sha256(lines) == LOCKED_EXPAND_TABLES[argv]

    def test_family_table_has_order_rows(self, capsys):
        code, lines, _ = _run(
            capsys, "expand", "f", "--j", "1", "--k", "2", "--l", "1",
            "--order", "50",
        )
        assert code == 0
        assert lines[0] == "n,coefficient"
        assert len(lines) == 51
        assert lines[1] == "0,1"

    def test_hpoly_shortest_chain_is_all_ones(self, capsys):
        code, lines, _ = _run(capsys, "expand", "hpoly", "--k", "1")
        assert code == 0
        assert lines[0] == "n,coefficients"
        assert len(lines) == 10
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    @pytest.mark.parametrize("argv", [
        "negative-part --M 2 --l 1 --order 1",
        "s-theta --M 2 --a 1/3,1/5 --b 0,1/2 --order 1/10",
    ])
    def test_empty_table_is_its_header(self, capsys, argv):
        code, lines, _ = _run(capsys, "expand", *argv.split())
        assert (code, lines) == (0, ["exponent,coefficient"])
        code, lines, _ = _run(capsys, "expand", *argv.split(), "--format", "json")
        assert (code, lines) == (0, [])

    def test_hpoly_nmax_zero_is_one_row(self, capsys):
        code, lines, _ = _run(capsys, "expand", "hpoly", "--k", "2", "--nmax", "0")
        assert code == 0
        assert lines == ["n,coefficients", "0,1"]

    def test_hpoly_longer_chain(self, capsys):
        code, lines, _ = _run(
            capsys, "expand", "hpoly", "--k", "2", "--l", "1", "--nmax", "3"
        )
        assert code == 0
        rows = [line.split(",", 1) for line in lines[1:]]
        assert rows[0] == ["0", "1"]
        # Row n has a nonconstant polynomial from n = 1 on.
        assert " " in rows[2][1]

    def test_classical_tables(self, capsys):
        code, lines, _ = _run(capsys, "expand", "sigma", "--order", "12")
        assert code == 0
        assert len(lines) == 13
        assert lines[1] == "0,1"
        code, lines, _ = _run(capsys, "expand", "sigma-star", "--order", "4")
        assert code == 0
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "-2", "-2", "-2"]

    def test_theta_matches_family_after_shift(self, capsys):
        data = family_params(1, 1, 1)
        code, f_lines, _ = _run(
            capsys, "expand", "f", "--j", "1", "--k", "1", "--l", "1",
            "--order", "30", "--format", "json",
        )
        assert code == 0
        fam = {
            int(o["n"]): Fraction(o["coefficient"]) for o in _json_lines(f_lines)
        }
        code, t_lines, _ = _run(
            capsys, "expand", "s-theta", "--j", "1", "--k", "1", "--l", "1",
            "--order", "30", "--format", "json",
        )
        assert code == 0
        for obj in _json_lines(t_lines):
            exponent = Fraction(obj["exponent"])
            coeff = Fraction(obj["coefficient"])
            inner = (exponent - data.alpha) / data.power
            assert inner.denominator == 1
            assert coeff == data.scale * fam[int(inner)]

    def test_theta_with_explicit_parameters(self, capsys):
        code, lines, _ = _run(
            capsys, "expand", "s-theta", "--M", "3", "--a", "1/3,1/8",
            "--b", "1/5,1/7", "--order", "5",
        )
        assert code == 0
        assert lines[0] == "exponent,coefficient"
        assert len(lines) > 1

    def test_negative_part_table(self, capsys):
        code, lines, _ = _run(
            capsys, "expand", "negative-part", "--M", "3", "--l", "1",
            "--order", "20",
        )
        assert code == 0
        assert lines[0] == "exponent,coefficient"
        series, _ = negative_part_series(3, 1, 20)
        assert lines[1:] == [f"{e},{c}" for e, c in series.terms()]
        assert lines[1] == "7/8,-2"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, lines, _ = _run(
            capsys, "expand", "sigma", "--order", "6", "--out", str(path)
        )
        assert code == 0
        assert lines == []
        content = path.read_text().splitlines()
        assert content[0] == "n,coefficient"
        assert len(content) == 7

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "expand", "f", "--j", "1", "--k", "2",
                            "--order", "10")
        assert code == 2
        assert "--l" in err


# ------------------------------------------------------------ eval


class TestEval:
    def test_quantum_exact_integer(self, capsys):
        code, lines, _ = _run(
            capsys, "eval", "quantum", "--j", "4", "--k", "1", "--l", "1",
            "--x", "0/1",
        )
        assert code == 0
        obj = json.loads(lines[0])
        assert obj["value"] == "-2"
        assert obj["order"] == 1

    def test_quantum_periodicity(self, capsys):
        _, lines_a, _ = _run(
            capsys, "eval", "quantum", "--j", "1", "--k", "1", "--l", "1",
            "--x", "1/3",
        )
        _, lines_b, _ = _run(
            capsys, "eval", "quantum", "--j", "1", "--k", "1", "--l", "1",
            "--x", "4/3",
        )
        a, b = json.loads(lines_a[0]), json.loads(lines_b[0])
        assert a["value_re"] == pytest.approx(b["value_re"], abs=1e-15)
        assert a["value_im"] == pytest.approx(b["value_im"], abs=1e-15)

    def test_waveform_cohen_real_on_axis(self, capsys):
        code, lines, _ = _run(
            capsys, "eval", "waveform", "--cohen", "--tau", "i",
            "--ncut", "800",
        )
        assert code == 0
        obj = json.loads(lines[0])
        assert obj["model"] == "cohen"
        assert obj["value_im"] == 0.0
        assert obj["value_re"] != 0.0

    def test_waveform_family_route(self, capsys):
        code, lines, _ = _run(
            capsys, "eval", "waveform", "--j", "1", "--k", "1", "--l", "1",
            "--tau", "i", "--lattice-cut", "8",
        )
        assert code == 0
        obj = json.loads(lines[0])
        assert obj["model"] == "theta"
        assert abs(obj["value_re"]) + abs(obj["value_im"]) > 0.0
        assert obj["tail_bound"] < 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ("--cohen", "--tau", "0,1e100"),
            ("--j", "1", "--k", "1", "--l", "1", "--tau", "0,1e300"),
        ],
        ids=["cohen", "theta"],
    )
    def test_waveform_far_up_the_axis_is_finite(self, capsys, argv):
        # K0 underflows to 0.0 there; it must not print NaN.
        code, lines, _ = _run(capsys, "eval", "waveform", *argv)
        assert code == 0
        obj = json.loads(lines[0])
        assert all(math.isfinite(obj[key]) for key in ("value_re", "value_im", "tail_bound"))

    @pytest.mark.parametrize("cut", ["0", "-2"])
    def test_waveform_rejects_nonpositive_lattice_cut(self, capsys, cut):
        code, lines, err = _run(
            capsys, "eval", "waveform", "--j", "1", "--k", "1", "--l", "1",
            "--lattice-cut", cut,
        )
        assert code == 2
        assert lines == []
        assert "--lattice-cut must be a positive integer" in err

    @pytest.mark.parametrize("cut", ["0", "-1"])
    def test_completion_rejects_nonpositive_lattice_cut(self, capsys, cut):
        code, lines, err = _run(capsys, "verify", "completion", "--lattice-cut", cut)
        assert code == 2
        assert lines == []
        assert "--lattice-cut must be a positive integer" in err

    def test_radial_pass_and_fail_codes(self, capsys):
        code, lines, _ = _run(
            capsys, "eval", "radial", "--j", "1", "--k", "1", "--l", "1",
            "--x", "0/1",
        )
        assert code == 0
        assert json.loads(lines[0])["status"] == "pass"
        code, lines, _ = _run(
            capsys, "eval", "radial", "--j", "1", "--k", "1", "--l", "1",
            "--x", "0/1", "--tol", "1e-20",
        )
        assert code == 1
        assert json.loads(lines[0])["status"] == "fail"

    def test_cocycle_three_samples(self, capsys):
        code, lines, _ = _run(
            capsys, "eval", "cocycle", "--cohen", "--gamma", "0,-1,2,0",
            "--xs", "1/5,1/4,1/3",
        )
        assert code == 0
        objs = _json_lines(lines)
        assert [o["x"] for o in objs] == ["1/5", "1/4", "1/3"]
        assert all("value_re" in o and "value_im" in o for o in objs)

    @pytest.mark.parametrize(
        "head, options",
        [
            (("eval", "waveform", "--cohen", "--ncut", "800"), {"--tau": "-0.2,0.9"}),
            (
                ("eval", "waveform", "--M", "4", "--tau", "i"),
                {"--a": "-1/5,1/7", "--b": "-1/3,1/11"},
            ),
            (("eval", "quantum", "--j", "1", "--k", "1", "--l", "1"), {"--x": "-1/3"}),
            (("eval", "cocycle", "--cohen"), {"--gamma": "-1,0,0,-1", "--xs": "-1/5,1/4"}),
        ],
    )
    def test_values_starting_with_a_dash(self, capsys, head, options):
        spaced = [*head, *(token for pair in options.items() for token in pair)]
        joined = [*head, *(f"{flag}={value}" for flag, value in options.items())]
        code, lines, err = _run(capsys, *spaced)
        assert code == 0, err
        assert (code, lines) == _run(capsys, *joined)[:2]

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "waveform", "--cohen", "--tau", "0,1e-9", "--ncut", "50"),
            ("eval", "waveform", "--M", "4", "--a", "1/5,1/7", "--b", "1/3,1/11",
             "--tau", "0,1e-4", "--lattice-cut", "2"),
        ],
    )
    def test_tail_bound_above_the_value_is_precision_failure(self, capsys, argv):
        code, lines, err = _run(capsys, *argv)
        assert code == 3
        assert lines == []
        assert "tail bound" in err

    def test_waveform_tail_bound_covers_the_lattice_truncation(self, capsys):
        # Near the real axis the lattice sum converges slowly.  At cut 12
        # the omitted points may outweigh the value, and the tool refuses;
        # at cuts 40 and 80 the printed bound covers the distance to the
        # cut-120 value.
        head = ("eval", "waveform", "--M", "4", "--a", "1/3,1/5", "--b", "0,0", "--tau", "0,0.001")
        code, lines, err = _run(capsys, *head, "--lattice-cut", "12")
        assert (code, lines) == (3, []) and "tail bound" in err

        def value(cut):
            code, lines, err = _run(capsys, *head, "--lattice-cut", str(cut))
            assert code == 0, err
            obj = json.loads(lines[0])
            return complex(obj["value_re"], obj["value_im"]), obj["tail_bound"]

        limit, limit_tail = value(120)
        assert limit_tail < 1e-9
        for cut in (40, 80):
            near, tail = value(cut)
            assert abs(near - limit) <= tail, cut

    def test_cocycle_insufficient_extent_is_precision_failure(self, capsys):
        code, _, err = _run(
            capsys, "eval", "cocycle", "--cohen", "--gamma", "0,-1,2,0",
            "--xs", "1/5", "--ncut", "100",
        )
        assert code == 3
        assert "precision" in err

    def test_exit_code_does_not_depend_on_message_text(self, capsys, monkeypatch):
        # Only a PrecisionError exits 3; any other QSeriesError is a usage
        # error, whatever its message says.
        def refuse(n_max):
            raise QSeriesError("insufficient stabilization of the input")

        monkeypatch.setattr(cli, "sigma_coefficients", refuse)
        code, lines, err = _run(capsys, "expand", "sigma", "--order", "5")
        assert code == 2
        assert lines == []
        assert "precision" not in err

    def test_cocycle_requires_cohen(self, capsys):
        code, _, err = _run(
            capsys, "eval", "cocycle", "--gamma", "0,-1,2,0", "--xs", "1/5"
        )
        assert code == 2
        assert "--cohen" in err


# ------------------------------------------------------------ argument space

_FAMILY_COMMANDS = {
    "radial": ("eval", "radial", "--x", "1/3"),
    "quantum": ("eval", "quantum", "--x", "2/5"),
    "f": ("expand", "f", "--order", "8"),
}


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(sorted(_FAMILY_COMMANDS)),
    j=st.integers(-2, 6),
    k=st.integers(-2, 6),
    ell=st.integers(-2, 6),
)
def test_family_arguments_exit_2_exactly_when_invalid(command, j, k, ell):
    argv = [*_FAMILY_COMMANDS[command], f"--j={j}", f"--k={k}", f"--l={ell}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # must return an exit code, never raise
    valid = 1 <= j <= 4 and 1 <= ell <= k
    assert (code == 2) == (not valid), (argv, code, err.getvalue())
    if not valid:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("qmaass: ")


# ------------------------------------------------------------ option text
#
# Option values drawn from a small grammar: valid rationals, the invalid
# tokens below, an optional leading "-", and extra or missing commas.  The
# reference parsers say which texts are valid: an optional "-", digits, and
# an optional "/digits" with a nonzero denominator.

_BAD_TOKENS = ("1/0", "", "x", "nan", "inf")
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")
_INTEGER = re.compile(r"-?\d+")


def _ref_rational(text):
    match = _RATIONAL.fullmatch(text)
    if match is None or match.group(2) is not None and int(match.group(2)) == 0:
        return None
    return Fraction(int(match.group(1)), int(match.group(2) or 1))


def _ref_rational_list(text):
    values = [_ref_rational(part) for part in text.split(",") if part]
    return values if values and None not in values else None


def _ref_rational_pair(text):
    values = [_ref_rational(part) for part in text.split(",")]
    return values if len(values) == 2 and None not in values else None


def _ref_matrix(text):
    parts = text.split(",")
    if len(parts) != 4 or not all(_INTEGER.fullmatch(p) for p in parts):
        return None
    return [int(p) for p in parts]


def _signed(token):
    return st.tuples(st.sampled_from(("", "", "", "-")), token).map("".join)


def _fraction_text(min_den, max_den):
    return _signed(
        st.tuples(st.integers(0, 30), st.integers(min_den, max_den)).map(
            lambda pq: f"{pq[0]}/{pq[1]}"
        )
    )


def _rational_text(max_den):
    token = st.one_of(st.integers(0, 30).map(str), st.sampled_from(_BAD_TOKENS))
    return st.one_of(_fraction_text(1, max_den), _signed(token))


def _joined(token, size):
    """``size`` tokens joined by commas; or, as often, any number of tokens
    joined by one, two or no commas, with stray commas at the ends."""
    separator = st.sampled_from((",", ",", ",,", ""))
    noisy = st.tuples(
        st.sampled_from(("", "", ",")),
        st.lists(st.tuples(token, separator), max_size=size),
        token,
        st.sampled_from(("", "", ",")),
    ).map(lambda t: t[0] + "".join(a + b for a, b in t[1]) + t[2] + t[3])
    return st.one_of(st.lists(token, min_size=size, max_size=size).map(",".join), noisy)


_FAMILY_111 = ("--j", "1", "--k", "1", "--l", "1")


def _order_case(text):
    value = _ref_rational(text)
    positive = value is not None and value > 0
    return st.sampled_from(
        [
            (("expand", "s-theta", *_FAMILY_111, f"--order={text}"), positive),
            (("verify", "sigma", f"--order={text}"), positive),
            (
                ("expand", "f", *_FAMILY_111, f"--order={text}"),
                positive and value.denominator == 1,
            ),
        ]
    )


def _x_case(text):
    value = _ref_rational(text)
    valid = value is not None and value.denominator <= MAX_ROOT_ORDER
    return (("eval", "quantum", *_FAMILY_111, f"--x={text}"), valid)


def _cocycle_case(args):
    gamma_text, xs_text = args
    gamma, xs = _ref_matrix(gamma_text), _ref_rational_list(xs_text)
    valid = (
        gamma is not None
        and xs is not None
        and gamma[0] * gamma[3] - gamma[1] * gamma[2] > 0
        and all(gamma[2] * x + gamma[3] != 0 for x in xs)
    )
    argv = ("eval", "cocycle", "--cohen", f"--gamma={gamma_text}", f"--xs={xs_text}")
    return (argv, valid)


def _lattice_case(args):
    m, a_text, b_text = args
    a, b = _ref_rational_pair(a_text), _ref_rational_pair(b_text)
    valid = (
        m >= 2
        and b is not None
        and a is not None
        and (a[0] + a[1]).denominator != 1
        and (a[0] - a[1]).denominator != 1
    )
    argv = ("expand", "s-theta", f"--M={m}", f"--a={a_text}", f"--b={b_text}",
            "--order=10")
    return (argv, valid)


_MATRICES = ("1,0,0,1", "0,-1,1,0", "1,1,0,1", "2,1,1,1", "0,-1,2,0", "1,0,0,-1")
_MATRIX_ENTRY = _signed(st.one_of(st.integers(0, 3).map(str),
                                  st.sampled_from((*_BAD_TOKENS, "1/2"))))

_PAIR_TEXT = st.one_of(_joined(_fraction_text(2, 12), 2), _joined(_rational_text(12), 2))

_OPTION_TEXT_CASES = st.one_of(
    _rational_text(200).flatmap(_order_case),
    _rational_text(200).map(_x_case),
    st.tuples(
        st.one_of(st.sampled_from(_MATRICES), _joined(_MATRIX_ENTRY, 4)),
        st.one_of(_joined(_fraction_text(2, 200), 2), _joined(_rational_text(200), 2)),
    ).map(_cocycle_case),
    st.tuples(
        st.integers(-1, 6), _PAIR_TEXT, _PAIR_TEXT
    ).map(_lattice_case),
)


@settings(max_examples=300, deadline=None)
@given(case=_OPTION_TEXT_CASES)
def test_option_text_exits_2_exactly_when_invalid(case):
    argv, valid = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))  # must return an exit code, never raise
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == (not valid), (argv, code, err.getvalue())
    if not valid:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("qmaass: ")


@pytest.mark.parametrize("argv, flag", [
    (("eval", "cocycle", "--cohen", "--gamma=1,0,0,1", "--xs=--"), "--xs"),
    (("expand", "s-theta", "--M=0", "--a=0/2,0/2", "--b=--", "--order=10"), "--b"),
    (("verify", "sigma", "--order=--"), "--order"),
    (("verify", "sigma", "--out=--", "--order=5"), "--out"),
])
def test_a_double_dash_value_exits_2(argv, flag):
    # argparse reads "--flag=--" as an empty list, which no option parser
    # takes: the value is refused with exit 2, not raised as a traceback.
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(list(argv)) == 2
    assert err.getvalue() == f"qmaass: {flag} needs a value, got '--'\n"


# The usage errors, locked: sha256 of the exit code and the whole of stderr,
# argparse's own messages included (at an 80-column terminal width).
LOCKED_USAGE_ERRORS = {
    "":
        "e543759c980031e8d464a9f9a80b3a2e5d2610852660563a6abb6a2b533c1f87",
    "verify":
        "c72345eff1832790fd800b86a606e90861328b4db1adf88db88581bc7f8b17c0",
    "verify nosuchsuite":
        "24f607f8e1efe93a6357f3ab70638a5fa4468ce45263ec59fcde4de46208af5f",
    "expand nosuch":
        "3fc3bfd7b53d0104346a957881b139fcda0a7958d1cc51c18e345e97a69c9772",
    "eval nosuch":
        "ccf11e27969c66084d33114810266e977c46293c4f3294dfb3d7c13e60b0d925",
    "verify all --bogus":
        "17d9cb084f2b539602e6ca3f66e3b1acccc75f9b6b8ab7746e49ec47ab42896f",
    "verify ag --kmax x":
        "bee0bcb55ce1a1b498fc50d68a063c9e060005a57edaf1cdb692b03d5ff1f0c2",
    "expand hpoly --k 2 --boundary 2":
        "04e6a7668b32578da492582e55b950ab31ecdf8d3695ac44f195ffbaf5020567",
    "expand sigma --format xml":
        "53349370fc562c193296c6b3eaf0770467267cef795205ae21de1d3cf12d7348",
    "eval radial --j one":
        "fdacc7a205d23320670b751a6a069c2ad3227bce70c18411549ae695b5e840d1",
    "eval waveform --tol abc":
        "46d04e7347c83373fc46b7573f95b863471e650d5ffd6d713904194643b4c8f1",
    "expand s-theta --M x --a 1/5,1/7 --b 0,0":
        "741d2b2f58c142e8b754f356149f3a48929aa76089628a7fd99c5dd4747df413",
    "verify ag --x 1/3":
        "a11910b62bb591559bef06a4088bf28aea9021054ec90bb17cd51a183b9f00cf",
    "verify ag --kmax 0":
        "0a82be6bc37b965f0691184822b9b1593b0575e26674599fa9fa5f252dfa55d7",
    "verify ag --kmax 1":
        "b05659404acf44976d0df40d45d703799f01b4d6b65338d3753ed54cdcb15535",
    "verify thm1 --order 0":
        "3bb7f51a62f5b574134767ae78f5dba93985def1aa875a3c7cb21c54a325f942",
    "verify all --order=-1/2":
        "89ae2d91e49bccabc3c67b28b2fcdc523d3fa906234d6e99dbc2bb561ad1e26f",
    "verify completion --tau inf,1":
        "78d9bc8854f01ebbb850f6201d485123d73f5c7046b33099d451ee1561967f9e",
    "verify completion --tau 1":
        "07c6c636af6175834f2493d2908f60962eedea552f6a4b10b52275cad8e7d422",
    "verify completion --tau 0,-1":
        "b6b3403a1bb5f142b44a7a8435bd706f3c5f86ad654fb9c2079f26e2416bda74",
    "verify completion --tol 0":
        "cf6d38d80481827d8eaeb051fccc9cfff3cfffaa80a3c240a7caa18c68da4aab",
    "verify duality --nmax 129":
        "121ec433d88d01e2998183796f209f304feadb739ca3e8355fe1c4dee84803bc",
    "expand hpoly":
        "e7ad0f503b9cb70f77f276c45ca86f858bc6b72908320acde8b5bb282eb2eff6",
    "expand hpoly --k 2 --nmax -1":
        "dc1c2c551feb819ad01f1f20fc2b02d4344e2e3a112503c54f27ccfdfbed3a8a",
    "expand f --j 1 --k 2 --order 10":
        "67b24514e6c75893ecb1108196e86917ffaa733c32ac91ebe9bcebffcf69abd6",
    "expand f --j 1 --k 1 --l 1 --order 1/2":
        "d8eb48693a6e1b6a8614cd733e335523ff9b06e05eac90f49aa2de3d6af940e0",
    "expand s-theta --order 5":
        "1d70d190bb5b5cf712e5a7c6c2982b57568f22727070caae541a5854be417628",
    "expand s-theta --M 1 --a 1/5,1/7 --b 0,0":
        "627ea058e42230f66f65384135bce39e54acfee655e8ace26f039d267c56fc4f",
    "expand s-theta --M 3 --a 1/2,1/2 --b 0,0":
        "ff428c32388aaf291f2c1f97e0b9ca76a3fc4c345e5669beb7b25bc0ddc68e69",
    "expand negative-part --M 4":
        "64f9113c082a5fa07d137077250c6521befefa726169ef1d85dc569a314f6361",
    "expand sigma --order x":
        "eca7b06f1ae693aff5c41b0155eb87a981521aeb88e3f26da93ce107ad126862",
    "eval quantum --j 1 --k 1 --l 1":
        "919532268a91a8177bd4f6f1b6bd658fe03e4679f2540de9cc87a8330b39c113",
    "eval quantum --j 5 --k 1 --l 1 --x 1/3":
        "95f2b80d4b89b5acba10974284a4775b7c3a9076ac39f477b58886335f4d0f19",
    "eval quantum --j 1 --k 1 --l 2 --x 1/3":
        "8411333d7d1d801ce9516bbd361e7f06da49624698716bf01a455f95a6ebd196",
    "eval quantum --j 1 --k 1 --l 1 --x 1/129":
        "121ec433d88d01e2998183796f209f304feadb739ca3e8355fe1c4dee84803bc",
    "eval cocycle --gamma 0,-1,2,0 --xs 1/5":
        "46d990ec175a72d94f1b36225ab579a53e8fdc6167653a7b516e22658c6bf117",
    "eval cocycle --cohen --xs 1/5":
        "e628df0d037dce7ddd8d00131d93a1bf8acedb46cb910cb1b181ba4d06b13482",
    "eval cocycle --cohen --gamma 1,2,3 --xs 1/5":
        "2f5f9a0c627393207a2d249d05bbf084117d0692e9f48792bf3173bad84f37ae",
    "eval cocycle --cohen --gamma 0,-1,1,0 --xs 0":
        "a888c4c6eda0e1718aa2cee06a95b0ecc4eb14552ecd9e6503cd0814047c5965",
    "eval cocycle --cohen --gamma 1,0,0,-1 --xs 1/5":
        "3a59e387d47c80317bcea7e67287cfef7eebc207094e1f6f5410affbeb04ade0",
    "eval cocycle --cohen --gamma 1,0,0,1 --xs ,":
        "66385b135afb4686766074dba0cb43928fd0a94504dba0245ebe44ad37dbd32a",
    "eval waveform --cohen --ncut 0":
        "97d1704e728fc47bdefede30ac276f1821692eada316ade7dbbab8022e3acd38",
    "eval waveform --lattice-cut 0 --j 1 --k 1 --l 1":
        "80f1d981866ce5383cc8be089a4b369c29057b708f2cf1c2c86e3462ba166728",
    "eval waveform":
        "07d28c05ce55d6bb5439b84d836fd2db9ceb310a81d0d7cbf2f0bb77873d6b12",
    "eval radial --j 1 --k 1 --l 1 --x 1/3 --tol inf":
        "43283020075bc7b4f1335825b216c641a26360f84bab79197ccb5e38e880a543",
    "eval waveform --M 4 --a 1/5 --b 0,0":
        "54553dedcdefe1f1f8c13be2ad4a3da6fc2d73db47ef08e8d897a27f7b211b49",
    "expand sigma --order 3 --out /nonexistent/dir/x":
        "a1510f27645d3983adfce6cd59afe0781b24926fa90d246b2886256b06eb6ef7",
}


def _usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("argv", sorted(LOCKED_USAGE_ERRORS))
def test_usage_errors_are_locked(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, err = _usage_error(argv.split(" ") if argv else [])
    assert code == 2
    assert _sha256([str(code), err]) == LOCKED_USAGE_ERRORS[argv]


# ------------------------------------------------------- behaviour lock

# The stdout md5 of `qmaass verify all` and of the default `expand` tables
# (f and s-theta for every family at (k, l) = (1, 1) and (2, 2), sigma,
# sigma-star, hpoly --k 3).  A changed md5 is a changed verdict or table:
# update it only with the reason in CHANGES.md.
LOCKED_STDOUT = {
    "verify all": "af394a93de74a2ab5ea899785e1eb99d",
    "expand f --j 1 --k 1 --l 1": "517b428a99eca831ac4f321fc9e06d73",
    "expand f --j 1 --k 2 --l 2": "833943e5a11b3af6babfb71a875e1274",
    "expand f --j 2 --k 1 --l 1": "ab343715af7f443d8af6b8f9d71dd337",
    "expand f --j 2 --k 2 --l 2": "1632842962be3c48eec151d036bb59b6",
    "expand f --j 3 --k 1 --l 1": "feb49d70d140ef62944420dc2fdce356",
    "expand f --j 3 --k 2 --l 2": "538172a4c4220da2687a124f79e340f2",
    "expand f --j 4 --k 1 --l 1": "13045c18b73d380f695188c950d2a7c8",
    "expand f --j 4 --k 2 --l 2": "a4bace1bfecce07b8ea18923314afa80",
    "expand hpoly --k 3": "9b8a27b7f55c998c1d2c53e058903cd5",
    "expand s-theta --j 1 --k 1 --l 1": "5e47fd08e95cc8f5f0fb27831fedba7f",
    "expand s-theta --j 1 --k 2 --l 2": "9c8f2777b076de46dbe00e17ca2a2397",
    "expand s-theta --j 2 --k 1 --l 1": "0bb15e363aa3a0448e1e1f65b770a29d",
    "expand s-theta --j 2 --k 2 --l 2": "7ce038e019ff74082db004550e7a7144",
    "expand s-theta --j 3 --k 1 --l 1": "fab4535a16c693b940d03c295f0dc70b",
    "expand s-theta --j 3 --k 2 --l 2": "d9d7e6f409b6198abf7817ccb6017a59",
    "expand s-theta --j 4 --k 1 --l 1": "3b4f539ca788e2c502b26ae94f0fe7a3",
    "expand s-theta --j 4 --k 2 --l 2": "3f6eb42d5b700696d0b81ab586da2b53",
    "expand sigma": "c3ebee515b8ee08948ef7a084117357c",
    "expand sigma-star": "9d286f986bfca7119aa9f589537da9a7",
}


@pytest.mark.parametrize("argv", sorted(LOCKED_STDOUT))
def test_behaviour_lock_stdout(capsys, argv):
    assert run(argv.split(" ")) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == LOCKED_STDOUT[argv]


# ------------------------------------------------------------ entry point


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "qmaass.cli", "verify", "sigma", "--order", "30"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 4


def test_completion_suite_does_not_import_scipy():
    script = (
        "import sys\n"
        "from qmaass.cli import run\n"
        "code = run(['verify', 'completion'])\n"
        "print('scipy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 3
    assert result.stderr == "False\n"


def test_exact_commands_do_not_import_numpy():
    # numpy loads on the first numeric call, not with the package.
    script = (
        "import sys\n"
        "import qmaass\n"
        "from qmaass.cli import run\n"
        "code = run(['verify', 'params', '--kmax', '1'])\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 4
    assert result.stderr == "False\n"


def test_numeric_commands_do_not_import_numpy():
    # numpy is a test oracle only: the numeric commands and entry points
    # run on the standard library too.
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from qmaass.cli import run\n"
        "from qmaass.maass import cocycle_samples, cohen_table, radial_limit_check\n"
        "from qmaass.theta import completion_defect, family_params\n"
        "codes = [\n"
        "    run(['verify', 'all']),\n"
        "    run(['eval', 'waveform', '--cohen']),\n"
        "    run(['eval', 'radial', '--j', '1', '--k', '1', '--l', '1', '--x', '1/5']),\n"
        "    run(['eval', 'cocycle', '--cohen', '--gamma', '0,-1,2,0', '--xs', '1/5']),\n"
        "]\n"
        "assert radial_limit_check(1, 1, 1, Fraction(1, 2)).ok\n"
        "cocycle_samples(cohen_table(30000), (0, -1, 2, 0), [Fraction(1, 3)])\n"
        "completion_defect(family_params(2, 1, 1).params, 1j)\n"
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert result.stderr == "[0, 0, 0, 0] False\n"


def test_package_source_does_not_import_numpy():
    source = Path(cli.__file__).parent
    files = sorted(source.glob("*.py"))
    assert len(files) > 5
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert "import numpy" not in text and "from numpy" not in text, path.name


def test_library_and_numeric_suites_do_not_import_mpmath():
    script = (
        "import sys\n"
        "import qmaass\n"
        "from qmaass.cli import run\n"
        "codes = [run(['verify', 'completion']), run(['verify', 'cohen'])]\n"
        "print('mpmath' in sys.modules, file=sys.stderr)\n"
        "sys.exit(max(codes))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 8  # 3 completion + 5 cohen lines
    assert result.stderr == "False\n"


def test_cli_import_loads_no_dataclasses_typing_or_random():
    # Every CLI call pays for what ``import qmaass.cli`` loads.  The records
    # are plain classes, so dataclasses (and the inspect, ast, dis and
    # tokenize it pulls in) never loads; annotations come from
    # collections.abc, not typing; random loads with the synthetic-pair
    # suite only.  -S keeps site hooks from loading any of them first.
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "bare = set(sys.modules)\n"
        "import qmaass.cli\n"
        "print(*sorted(set(sys.modules) - bare))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "qmaass.cli" in added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize", "random", "typing"}
    assert added.isdisjoint(banned), sorted(added & banned)


def test_closed_stdout_ends_quietly():
    # The table is larger than a pipe buffer, so the writer is still busy
    # when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmaass.cli", "expand", "sigma", "--order", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc.stdout, proc.stderr:
        assert proc.stdout.readline() == b"n,coefficient\n"
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert err == b""
    assert code == -signal.SIGPIPE
