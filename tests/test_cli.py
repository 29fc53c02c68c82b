"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import signal
import subprocess
import sys
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
from qmaass.maass import cohen_transform_residual
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
    "hpoly --k 3": "1b3b59cddf307d385c0fb61128197e9d239e09a88603c5699f7d4d449d1d340a",
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

    def test_cohen_suite(self, capsys):
        code, lines, _ = _run(capsys, "verify", "cohen", "--ncut", "600")
        assert code == 0
        objs = _json_lines(lines)
        assert len(objs) == 5
        assert objs[0]["check"] == "cohen_waveform_real_on_axis"
        assert abs(objs[0]["value_im"]) < 1e-8

    def test_duality_suite(self, capsys):
        code, lines, _ = _run(
            capsys, "verify", "duality", "--kmax", "2", "--nmax", "8"
        )
        assert code == 0
        assert len(lines) == 3 * 8
        assert all(o["status"] == "pass" for o in _json_lines(lines))

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

    # A leftover QMAASS_THREADS setting is ignored: the suite stays serial and
    # still computes each residual exactly once.
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_cohen_suite_computes_each_residual_once(self, capsys, monkeypatch, threads):
        calls = []

        def counted(tau, ncut):
            calls.append(tau)
            return cohen_transform_residual(tau, ncut)

        monkeypatch.setenv("QMAASS_THREADS", threads)
        monkeypatch.setattr(cli, "cohen_transform_residual", counted)
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
        assert lines[0] == "exponent,coefficient,region,anomalous_terms"
        assert len(lines) > 1
        assert all(line.split(",")[2] == "printed" for line in lines[1:])

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
        "completion_defect(family_params(2, 1, 1), 1j)\n"
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
