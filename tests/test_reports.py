"""Report plumbing: comparison details and JSON shape, and the frozen
value records every module builds on :class:`qmaass.reports.Record`."""

from fractions import Fraction

import pytest

from qmaass import cli, cocycle_samples, cohen_table, cohen_transform_residual, eval_waveform, family_params
from qmaass import family_series, gaussian_binomial, pochhammer, waveform_numeric
from qmaass import quantum_value, radial_limit_check
from qmaass.agpolys import PartitionConstraint
from qmaass.bailey import RELATIVES, BaileyPair
from qmaass.cyclotomic import CycNumber
from qmaass.families import Family
from qmaass.maass import MaassCoeffTable, QuantumSample
from qmaass.reports import CheckReport, report_from_comparison, report_from_condition
from qmaass.series import QSeries, QSeriesError
from qmaass.theta import FamilyThetaData, QuadForm, ThetaParams


def test_pass_report_shape():
    lhs = QSeries.from_terms([(0, 1), (2, -1)], trunc=10)
    rhs = QSeries.from_terms([(0, 1), (2, -1)], trunc=10)
    report = report_from_comparison("demo", {"k": 2}, lhs, rhs)
    assert report.ok
    assert report.to_json_dict() == {"check": "demo", "params": {"k": 2}, "status": "pass"}


def test_fail_report_pinpoints_first_mismatch():
    lhs = QSeries.from_terms([(0, 1), (3, 5)], trunc=10)
    rhs = QSeries.from_terms([(0, 1), (3, 7), (5, 1)], trunc=10)
    report = report_from_comparison("demo", {}, lhs, rhs)
    assert not report.ok
    data = report.to_json_dict()
    assert data["status"] == "fail"
    assert data["first_mismatch_exponent"] == "3"
    assert data["lhs_coeff"] == "5"
    assert data["rhs_coeff"] == "7"


def test_fractional_values_render_as_rational_strings():
    lhs = QSeries.monomial(Fraction(1, 3), Fraction(1, 2), trunc=4)
    rhs = QSeries.zero(4)
    data = report_from_comparison("demo", {"x": Fraction(2, 7)}, lhs, rhs).to_json_dict()
    assert data["params"] == {"x": "2/7"}
    assert data["first_mismatch_exponent"] == "1/2"
    assert data["lhs_coeff"] == "1/3"
    assert data["rhs_coeff"] == "0"


def test_condition_report():
    good = report_from_condition("cond", {"m": 1}, True, {"note": "fine"})
    bad = report_from_condition("cond", {"m": 2}, False)
    assert good.ok and good.to_json_dict()["note"] == "fine"
    assert not bad.ok


def test_status_validation():
    with pytest.raises(ValueError):
        CheckReport("x", {}, "maybe")


# ------------------------------------------------------------ value records

F = Fraction
_THETA = ThetaParams(2, (F(1, 3), F(1, 5)), (0, F(1, 2)))

# (type, field names, positional values, repr): each repr is the one the
# frozen dataclasses these records replaced printed, byte for byte; reports
# print it for a value with no to_json_dict.
RECORDS = [
    (
        CheckReport, ["check", "params", "status", "details"], ("c", {"n": 1}, "pass", {"why": 2}),
        "CheckReport(check='c', params={'n': 1}, status='pass', details={'why': 2})",
    ),
    (
        PartitionConstraint,
        ["pair_sum_max", "first_freq_bound", "last_freq_bound", "part_bound"], (1, 2, 3, 4),
        "PartitionConstraint(pair_sum_max=1, first_freq_bound=2, last_freq_bound=3, part_bound=4)",
    ),
    (
        BaileyPair, ["relative", "alpha", "betas", "label", "settle"], ("q", abs, len, "x", 2),
        "BaileyPair(relative='q', alpha=<built-in function abs>, betas=<built-in function len>,"
        " label='x', settle=2)",
    ),
    (
        Family,
        ["identity", "sum_scale", "theta_scale", "M", "a1", "b", "shell_parts", "shell_denom"],
        (("q", "gauss"), 1, 1, (2, 2), (2, 1), ((4, 6), (4, 2)), (((1, 0), 1), ((-1, -1), -1)), 1),
        "Family(identity=('q', 'gauss'), sum_scale=1, theta_scale=1, M=(2, 2), a1=(2, 1),"
        " b=((4, 6), (4, 2)), shell_parts=(((1, 0), 1), ((-1, -1), -1)), shell_denom=1)",
    ),
    (
        ThetaParams, ["M", "a", "b"], (2, (F(1, 3), F(1, 5)), (0, F(1, 2))),
        "ThetaParams(M=2, a=(Fraction(1, 3), Fraction(1, 5)), b=(Fraction(0, 1), Fraction(1, 2)))",
    ),
    (
        FamilyThetaData, ["j", "k", "ell", "params", "alpha", "scale", "power"],
        (1, 2, 1, _THETA, F(7, 60), F(1), 1),
        "FamilyThetaData(j=1, k=2, ell=1, params=ThetaParams(M=2, a=(Fraction(1, 3),"
        " Fraction(1, 5)), b=(Fraction(0, 1), Fraction(1, 2))), alpha=Fraction(7, 60),"
        " scale=Fraction(1, 1), power=1)",
    ),
    (
        MaassCoeffTable, ["scale", "coeffs"], (24, {1: F(1, 2), -5: 3}),
        "MaassCoeffTable(scale=24, coeffs={1: Fraction(1, 2), -5: 3})",
    ),
    (
        QuantumSample, ["x", "value"], (F(1, 7), CycNumber.zeta(7, 1)),
        "QuantumSample(x=Fraction(1, 7), value=CycNumber(order=7, vec=(0, 1, 0, 0, 0, 0)))",
    ),
    (
        cli.Command, ["help", "targets", "fmt", "fields", "metavar"],
        ("help", ("a",), "json", ("order",), "suite"),
        "Command(help='help', targets=('a',), fmt='json', fields=('order',), metavar='suite')",
    ),
    (
        cli.RunConfig,
        ["command", "target", "kmax", "nmax", "ncut", "lattice_cut", "order", "tol", "shift_a",
         "twist_b", "tau", "x", "xs", "gamma", "j", "k", "ell", "boundary", "lattice_m", "cohen",
         "conjugate_image", "out", "fmt"],
        ("verify", "all", *[None] * 21),
        "RunConfig(command='verify', target='all', kmax=None, nmax=None, ncut=None,"
        " lattice_cut=None, order=None, tol=None, shift_a=None, twist_b=None, tau=None, x=None,"
        " xs=None, gamma=None, j=None, k=None, ell=None, boundary=None, lattice_m=None,"
        " cohen=None, conjugate_image=None, out=None, fmt=None)",
    ),
]

# One field of each record set to another valid value.
_CHANGED = {
    CheckReport: ("status", "fail"),
    PartitionConstraint: ("part_bound", 5),
    BaileyPair: ("label", ""),
    Family: ("shell_denom", 2),
    ThetaParams: ("M", 3),
    FamilyThetaData: ("power", 2),
    MaassCoeffTable: ("coeffs", {1: 1}),
    QuantumSample: ("x", F(1, 5)),
    cli.Command: ("metavar", None),
    cli.RunConfig: ("fmt", "csv"),
}


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_frozen_values(cls, names, values, text):
    record = cls(*values)
    assert list(vars(record)) == names
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == str(record) == text
    # equality and hash go by value, as the dataclass's did
    twin = cls(*values)
    assert twin == record and twin is not record and not twin != record
    assert record != values and record != object()
    name, value = _CHANGED[cls]
    assert cls(**{**vars(record), name: value}) != record
    fields = tuple(getattr(record, name) for name in names)
    try:
        expected = hash(fields)
    except TypeError:  # a dict or CycNumber field: unhashable, as before
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, 0)
    for name in (names[0], names[-1]):
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == fields


def test_record_defaults():
    first, second = CheckReport("c", {}, "pass"), CheckReport("c", {}, "pass")
    assert first.details == second.details == {} and first.details is not second.details
    table = MaassCoeffTable(1)
    assert table.coeffs == {} and table.coeffs is not MaassCoeffTable(1).coeffs
    assert BaileyPair("q", abs, len).label == "" and BaileyPair("q", abs, len).settle == 0
    assert cli.Command("h", (), "csv", ()).metavar is None
    assert ThetaParams(2, (1, F(1, 2)), (0, 1)).a == (F(1), F(1, 2))
    assert all(type(c) is Fraction for c in ThetaParams(2, (1, F(1, 2)), (0, 1)).b)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CheckReport("x", {}, "maybe"), QSeriesError,
         "status must be one of ('pass', 'fail'), got 'maybe'"),
        (lambda: ThetaParams(1, (F(1, 3), F(1, 5)), (0, 0)), QSeriesError,
         "M must be an integer >= 2, got 1"),
        (lambda: ThetaParams(2.0, (F(1, 3), F(1, 5)), (0, 0)), QSeriesError,
         "M must be an integer >= 2, got 2.0"),
        (lambda: ThetaParams(2, (F(1, 2), F(1, 2)), (0, 0)), QSeriesError,
         "the shift components must have non-integral sum and difference"),
        (lambda: BaileyPair("z", abs, len), QSeriesError,
         f"relative must be one of {RELATIVES}, got 'z'"),
        (lambda: BaileyPair("q", abs, len, "", -1), QSeriesError,
         "settle must be a nonnegative integer, got -1"),
        (lambda: MaassCoeffTable(0), QSeriesError, "the table scale must be a positive integer, got 0"),
        (lambda: MaassCoeffTable(1, {0: 1}), QSeriesError,
         "coefficient tables are indexed by nonzero integers"),
        (lambda: PartitionConstraint(1, 0, 0, 1), QSeriesError,
         "first_freq_bound must be a positive integer, got 0"),
        (lambda: PartitionConstraint(1, 1, 1, "2"), QSeriesError,
         "part_bound must be a positive integer, got '2'"),
        (lambda: cli.RunConfig("verify", "all"), TypeError,
         "RunConfig takes a command, a target and the 21 OPTIONS"),
        # One rule per argument kind: an int argument is an int, not a bool,
        # a float or a string, in its range; a named choice is one of its
        # names; a truncation order is finite and no bool.
        (lambda: MaassCoeffTable(True), QSeriesError, "the table scale must be a positive integer, got True"),
        (lambda: MaassCoeffTable(2.5), QSeriesError, "the table scale must be a positive integer, got 2.5"),
        (lambda: cohen_table(True), QSeriesError, "the table extent must be a positive integer, got True"),
        (lambda: PartitionConstraint(True, True, True, 2), QSeriesError,
         "pair_sum_max must be a positive integer, got True"),
        (lambda: ThetaParams(True, (F(1, 3), F(1, 5)), (0, 0)), QSeriesError,
         "M must be an integer >= 2, got True"),
        (lambda: ThetaParams("3", (F(1, 3), F(1, 5)), (0, 0)), QSeriesError,
         "M must be an integer >= 2, got '3'"),
        (lambda: BaileyPair("q", abs, len, "", True), QSeriesError,
         "settle must be a nonnegative integer, got True"),
        (lambda: BaileyPair("q", abs, len, "", 2.5), QSeriesError,
         "settle must be a nonnegative integer, got 2.5"),
        (lambda: CheckReport("x", {}, True), QSeriesError, "status must be one of ('pass', 'fail'), got True"),
        (lambda: gaussian_binomial(True, True), QSeriesError, "n must be an integer, got True"),
        (lambda: gaussian_binomial(5.0, 2), QSeriesError, "n must be an integer, got 5.0"),
        (lambda: pochhammer("q", True, 10), QSeriesError, "n must be a nonnegative integer, got True"),
        (lambda: pochhammer("q", 2.5, 10), QSeriesError, "n must be a nonnegative integer, got 2.5"),
        (lambda: pochhammer("q", 3, True), QSeriesError,
         "this operation needs a finite truncation order, got True"),
        (lambda: pochhammer("q;q", 3, 10), QSeriesError,
         "kind must be one of ('q', 'q2', '-q', '-1', 'q;q2', 'q2;q'), got 'q;q'"),
        (lambda: waveform_numeric(family_params(1, 1, 1).params, 1j, True), QSeriesError,
         "lattice_cut must be a positive integer, got True"),
        (lambda: waveform_numeric(family_params(1, 1, 1).params, 1j, 2.5), QSeriesError,
         "lattice_cut must be a positive integer, got 2.5"),
        (lambda: eval_waveform(cohen_table(100), 1j, 10.5), QSeriesError,
         "n_cut must be a nonnegative integer, got 10.5"),
        (lambda: eval_waveform(cohen_table(100), -1j, 10), QSeriesError,
         "tau must lie in the upper half plane"),
        (lambda: cohen_transform_residual(1j, 0), QSeriesError,
         "n_cut must be a positive integer, got 0"),
        (lambda: family_series(1, 1, 1, True), QSeriesError,
         "this operation needs a finite truncation order, got True"),
        (lambda: family_series(5, 1, 1, 10), QSeriesError, "family index must be in 1..4, got 5"),
        (lambda: cocycle_samples(cohen_table(100), (0, -1, 2.0, 0), [F(1, 5)]), QSeriesError,
         "a gamma entry must be an integer, got 2.0"),
        (lambda: family_series(1, 2, 3, 10), QSeriesError, "ell must be in 1..2, got 3"),
        # A rational argument is an int or a Fraction, never a bool, a
        # float, a string or None; a cyclotomic order is a positive int.
        (lambda: quantum_value(1, 1, 1, True), QSeriesError,
         "x must be a rational (an int or a Fraction), got True"),
        (lambda: quantum_value(1, 1, 1, None), QSeriesError,
         "x must be a rational (an int or a Fraction), got None"),
        (lambda: radial_limit_check(1, 1, 1, None), QSeriesError,
         "x must be a rational (an int or a Fraction), got None"),
        (lambda: QSeries.monomial(1, True, 5), QSeriesError,
         "exponent must be a rational (an int or a Fraction), got True"),
        (lambda: ThetaParams(4, (True, F(1, 7)), (F(1, 3), F(1, 11))), QSeriesError,
         "a1 must be a rational (an int or a Fraction), got True"),
        (lambda: CycNumber.from_rational(True, 1), QSeriesError, "order must be a positive integer, got True"),
        (lambda: CycNumber.from_powers(0, {1: 1}), QSeriesError, "order must be a positive integer, got 0"),
        # A pair is two rationals; an exact field element has rational coefficients.
        (lambda: ThetaParams(4, (F(1, 5), F(1, 7), 1), (0, 0)), QSeriesError,
         "a must be a pair of rationals, got (Fraction(1, 5), Fraction(1, 7), 1)"),
        (lambda: ThetaParams(4, F(1, 5), (0, 0)), QSeriesError, "a must be a pair of rationals, got Fraction(1, 5)"),
        (lambda: ThetaParams(4, (F(1, 5), F(1, 7)), 0), QSeriesError, "b must be a pair of rationals, got 0"),
        (lambda: QuadForm(4).value((1, 2, 3)), QSeriesError, "r must be a pair of rationals, got (1, 2, 3)"),
        *((build, QSeriesError, f"coefficient must be a rational (an int or a Fraction), got {c!r}")
          for c in (0.5, True, "1")
          for build in (lambda c=c: CycNumber.from_rational(5, c), lambda c=c: CycNumber.from_powers(5, {1: c}))),
    ],
)
def test_record_validation_messages(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
