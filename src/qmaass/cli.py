"""Command-line interface: check suites, table expansion, evaluation.

The ``qmaass`` command has three subcommands.

``qmaass verify SUITE``
    Run a named batch of checks and stream one JSON object per check.
    The process exits 0 only if every emitted check passes.

``qmaass expand TARGET``
    Write a coefficient table (csv rows or JSON lines) for one of the
    series built by the package.

``qmaass eval TARGET``
    Evaluate the Bessel-weighted waveform, an exact root-of-unity
    limit, a radial limit check, or modular-difference samples.

Exact parameters (orders, phases, lattice shifts) are parsed from
"p/q" strings straight into :class:`fractions.Fraction`; they never
pass through floating point.  Floats appear only in the upper-half
plane point ``tau`` and in tolerances.

Suites run their checks one after another, in the fixed order the
suite defines, and stream each report as soon as it is ready.

Exit codes: 0 every check passed, 1 at least one check failed,
2 usage error, 3 numeric-precision failure (a
:class:`~qmaass.series.PrecisionError`: an internal guard refused to
certify a value).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import signal
import sys
from fractions import Fraction
from functools import partial

from .agpolys import ag_polynomials, verify_ag_relation
from .bailey import (
    CHAIN_PAIRS,
    IDENTITY_KINDS,
    RELATIVES,
    synthetic_pair,
    unit_pair,
    verify_limiting_identity,
    verify_pair,
)
from .cyclotomic import check_root_order
from .families import (
    FAMILIES,
    SIGMA_REPS,
    SIGMA_STAR_REPS,
    family_series,
    negative_part_series,
    sigma_coefficients,
    sigma_series,
    sigma_star_coefficients,
    sigma_star_series,
    verify_kz_duality,
)
from .maass import (
    _cohen_residuals,
    cocycle_samples,
    cohen_table,
    eval_waveform,
    quantum_value,
    radial_limit_check,
)
from .reports import CheckReport, Record, _exact_str, report_from_comparison, report_from_condition
from .series import PrecisionError, QSeriesError, int_arg
from .theta import (
    ThetaParams,
    completion_defect,
    family_params,
    indefinite_theta_series,
    validate_family_params,
    validate_params,
    verify_family_lattice,
    verify_theta_embedding,
    waveform_numeric,
)

__all__ = ["RunConfig", "main", "run"]

class UsageError(Exception):
    """A structurally invalid invocation (maps to exit code 2)."""


# --------------------------------------------------------------------------
# exact argument parsing


def parse_rational(text: str) -> Fraction:
    """An exact rational from a "p/q" (or integer) string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a rational like '3/4', got {text!r}") from exc


def parse_rational_pair(text: str) -> tuple[Fraction, Fraction]:
    """An exact pair from a "p/q,p/q" string."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated rationals, got {text!r}")
    return (parse_rational(parts[0]), parse_rational(parts[1]))


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("expected at least one rational value")
    return tuple(parse_rational(p) for p in parts)


def parse_tau(text: str) -> complex:
    """An upper-half-plane point from "re,im"; the bare letter "i" is 0,1."""
    cleaned = text.strip()
    if cleaned == "i":
        return 1j
    parts = cleaned.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected tau as 're,im' (or 'i'), got {text!r}")
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"expected tau as 're,im', got {text!r}") from exc
    if not cmath.isfinite(value):
        raise UsageError(f"tau must be finite, got {text!r}")
    if value.imag <= 0:
        raise UsageError("tau must lie in the upper half plane")
    return value


def parse_matrix(text: str) -> tuple[int, int, int, int]:
    """Four comma-separated integers "a,b,c,d"."""
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"expected a matrix as 'a,b,c,d', got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"expected integer matrix entries, got {text!r}") from exc


def _count(value: int, flag: str, command: str) -> None:
    # expand hpoly --nmax 0 is a valid one-row table.
    int_arg(value, flag, 0 if command == "expand" else 1)


def _positive(value: Fraction, flag: str, command: str) -> None:
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {value}")


def _finite_positive(value: float, flag: str, command: str) -> None:
    if not 0 < value < math.inf:
        raise UsageError(f"{flag} must be positive and finite, got {value}")


class Option:
    """One command-line option: its flag, the parser that turns its text
    into an exact value, the check that value must pass, and its argparse
    keywords.  The :class:`RunConfig` field it fills is its argparse dest."""

    def __init__(self, flag: str, parse=None, check=None, **kwargs):
        self.flag = flag
        self.parse = parse
        self.check = check
        self.kwargs = kwargs


# Parsed and checked in this order: the first invalid option names the error.
OPTIONS = {
    "kmax": Option("--kmax", check=_count, type=int, help="largest chain length"),
    "nmax": Option("--nmax", check=_count, type=int, help="largest index in sweeps and hpoly"),
    "ncut": Option("--ncut", check=_count, type=int, help="coefficient cutoff for waveforms"),
    "lattice_cut": Option("--lattice-cut", check=_count, type=int, help="lattice shell cutoff"),
    "order": Option("--order", parse_rational, _positive, metavar="p/q", help="truncation order"),
    "tol": Option("--tol", check=_finite_positive, type=float, help="numeric tolerance"),
    "shift_a": Option("--a", parse_rational_pair, metavar="p/q,p/q", help="lattice shift pair"),
    "twist_b": Option("--b", parse_rational_pair, metavar="p/q,p/q", help="lattice twist pair"),
    "tau": Option("--tau", parse_tau, metavar="re,im", help="upper-half-plane point"),
    "x": Option("--x", parse_rational, metavar="p/q", help="exact rational point"),
    "xs": Option("--xs", parse_rational_list, metavar="p/q,...", help="rational points"),
    "gamma": Option("--gamma", parse_matrix, metavar="a,b,c,d", help="integer matrix entries"),
    "j": Option("--j", type=int, help="family index 1..4"),
    "k": Option("--k", type=int, help="chain length"),
    "ell": Option("--l", type=int, metavar="L", help="chain marker, 1..k"),
    "boundary": Option("--boundary", type=int, choices=(0, 1), default=0, help="boundary bit"),
    "lattice_m": Option("--M", type=int, metavar="M", help="lattice form parameter"),
    "cohen": Option("--cohen", action="store_true", help="use the level-2 table, not a lattice"),
    "conjugate_image": Option(
        "--conjugate-image", action="store_true",
        help="conjugate the transformed term in cocycle samples",
    ),
    "out": Option("--out", metavar="PATH", help="write output here instead of stdout"),
    "fmt": Option(
        "--format", choices=("json", "csv"),
        help="row format (tables default to csv, eval to json)",
    ),
}


class RunConfig(Record):
    """Validated options for one invocation: its command and target, and
    one attribute per ``OPTIONS`` key, None for an option the subcommand
    does not take.

    Exact quantities keep their :class:`Fraction` type from the parser
    on; nothing here round-trips a rational through a float.
    """

    def __init__(self, command: str, target: str, *values, **options) -> None:
        given = dict(zip(OPTIONS, values), **options)
        if len(values) + len(options) != len(OPTIONS) or given.keys() != OPTIONS.keys():
            raise TypeError(f"RunConfig takes a command, a target and the {len(OPTIONS)} OPTIONS")
        self.__dict__.update(command=command, target=target)
        self.__dict__.update((name, given[name]) for name in OPTIONS)

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        values = {}
        for name, option in OPTIONS.items():
            value = getattr(ns, name, None)  # absent: not an option of this subcommand
            if value == []:  # argparse reads "--flag=--" as an empty list
                raise UsageError(f"{option.flag} needs a value, got '--'")
            if value is not None and option.parse:
                value = option.parse(value)
            if value is not None and option.check:
                option.check(value, option.flag, ns.command)
            values[name] = value
        return cls(ns.command, ns.target, **values)

    def family(self) -> tuple[int, int, int]:
        """(j, k, ell), each of them required."""
        return self.require("j"), self.require("k"), self.require("ell")

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise UsageError(f"{self.command} {self.target} requires {OPTIONS[name].flag}")
        return value


# --------------------------------------------------------------------------
# output


class LineWriter:
    """Stream rows to a file or stdout; JSON lines or csv."""

    def __init__(self, stream, fmt: str):
        self.stream, self.fmt, self._wrote_header = stream, fmt, False

    def header(self, keys) -> None:
        """Write the csv header once, so a table with no rows still has it."""
        if self.fmt == "csv" and not self._wrote_header:
            self.stream.write(",".join(keys) + "\n")
            self._wrote_header = True

    def emit(self, obj: dict) -> None:
        if self.fmt == "json":
            self.stream.write(json.dumps(obj) + "\n")
            return
        self.header(obj)
        self.stream.write(",".join(_csv_cell(v) for v in obj.values()) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# --------------------------------------------------------------------------
# verify suites
#
# Each builder returns a suite's checks in output order.  A check is a
# partial of a module-level report function over plain arguments and
# returns one report or an iterable of reports.  Bailey pairs are built
# when their check runs, so a finished check keeps nothing alive.


def _checks_chain_relation(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 8
    # The partition comparison is defined only from two chain levels up.
    # The partition identity needs at least one part when the extra
    # boundary factor is switched on (b = 1).
    return [
        partial(verify_ag_relation, k, ell, b, n)
        for k in range(2, kmax + 1)
        for ell in range(1, k + 1)
        for b in (0, 1)
        for n in range(b, nmax + 1)
    ]


def _compare_reps(kind, series_of, base, rep, order):
    return report_from_comparison(
        "classical_series_representation",
        {"series": kind, "lhs": base, "rhs": rep, "order": order},
        series_of(base, order),
        series_of(rep, order),
    )


def _checks_classical_reps(cfg: RunConfig):
    order = cfg.order if cfg.order is not None else Fraction(200)
    return [
        partial(_compare_reps, kind, series_of, reps[0], rep, order)
        for kind, series_of, reps in (
            ("sigma", sigma_series, SIGMA_REPS),
            ("sigma-star", sigma_star_series, SIGMA_STAR_REPS),
        )
        for rep in reps[1:]
    ]


def _check_unit_pair(relative, nmax, order):
    return verify_pair(unit_pair(relative), nmax, order)


def _check_chain_pair(relative, k, ell, nmax, order):
    return verify_pair(CHAIN_PAIRS[relative](k, ell), nmax, order)


def _check_limit(relative, kind, order):
    return verify_limiting_identity(CHAIN_PAIRS[relative](1, 1), relative, kind, order)


def _check_synthetic_pairs(order):
    """Six seeded random pairs: each one's relation, then its limit identities."""
    import random  # only this suite draws random pairs; the other commands never load it

    rng = random.Random(7)
    for relative in RELATIVES:
        for _ in range(3):
            pair = synthetic_pair(relative, rng)
            yield verify_pair(pair, 6, order)
            for kind in IDENTITY_KINDS:
                yield verify_limiting_identity(pair, relative, kind, order)


def _checks_pair_relation(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 8
    order = cfg.order if cfg.order is not None else Fraction(40)
    checks = []
    for relative in RELATIVES:
        checks.append(partial(_check_unit_pair, relative, nmax, order))
        checks.extend(
            partial(_check_chain_pair, relative, k, ell, nmax, order)
            for k in range(1, kmax + 1)
            for ell in range(1, k + 1)
        )
    # The limit identities ignore 0-index entries on one side, so they
    # are checked only on pairs whose 0-index entries vanish: the chain
    # pairs and the synthetic pairs, never the unit pairs.
    checks.extend(
        partial(_check_limit, relative, kind, order)
        for relative in RELATIVES
        for kind in IDENTITY_KINDS
    )
    checks.append(partial(_check_synthetic_pairs, order))
    return checks


def _family_grid(check, kmax: int, order, cfg: RunConfig):
    """One check per family and chain parameters 1 <= ell <= k <= kmax;
    a check that reads a series takes its truncation order last."""
    args = () if order is None else (cfg.order or order,)
    return [
        partial(check, j, k, ell, *args)
        for j in FAMILIES
        for k in range(1, (cfg.kmax or kmax) + 1)
        for ell in range(1, k + 1)
    ]


def _check_completion(tau, cut, tol, j=None, k=None, ell=None):
    """The completion defect of family j at (k, ell) vanishes; with no
    family, the control is invalid and its defect does not.  A cut whose
    outer shell still adds terms is a precision failure, not a verdict."""
    if j is None:
        # Deliberately off-family shifts: the boundary corrections must NOT
        # cancel, or the vanishing checks prove nothing.
        params = ThetaParams(
            4, (Fraction(1, 5), Fraction(1, 7)), (Fraction(1, 3), Fraction(1, 11))
        )
    else:
        params = family_params(j, k, ell).params
    defect = abs(completion_defect(params, tau, cut))
    if j is not None:
        return report_from_condition(
            "completion_defect_vanishes",
            {"j": j, "k": k, "ell": ell, "tau": str(tau), "lattice_cut": cut},
            defect < tol,
            {"defect": defect, "tolerance": tol},
        )
    return report_from_condition(
        "completion_defect_control",
        {"M": 4, "tau": str(tau), "lattice_cut": cut},
        defect > 1e-3 and not validate_params(params).ok,
        {"defect": defect, "floor": 1e-3},
    )


def _checks_completion(cfg: RunConfig):
    tau = cfg.tau if cfg.tau is not None else 1j
    cut = cfg.lattice_cut if cfg.lattice_cut is not None else 10
    tol = cfg.tol if cfg.tol is not None else 1e-8
    return [
        partial(_check_completion, tau, cut, tol, 1, 1, 1),
        partial(_check_completion, tau, cut, tol, 4, 1, 1),
        partial(_check_completion, tau, cut, tol),
    ]


def _check_cohen_reality(ncut):
    table = cohen_table(ncut)
    tau = complex(0.0, 1.0 / math.sqrt(2.0))
    value, tail = eval_waveform(table, tau, table.extent())
    return report_from_condition(
        "cohen_waveform_real_on_axis",
        {"tau": str(tau), "ncut": ncut},
        abs(value.imag) < 1e-8,
        {"value_re": value.real, "value_im": value.imag, "tail_bound": tail},
    )


def _check_cohen_residuals(tau, label, ncut):
    """Both transformation residuals at tau, from one computation.  The
    inversion residual is a verdict only when it clears the tolerance by
    the tail bounds; the shift residual cancels termwise."""
    inversion, shift, tail = _cohen_residuals(tau, ncut)
    if abs(inversion) + tail >= 1e-6 > abs(inversion) - tail:
        raise PrecisionError(
            f"the inversion residual {abs(inversion):.3g} at tau = {label} is within its "
            f"tail bound {tail:.3g} of the tolerance 1e-06; raise --ncut"
        )
    return [
        report_from_condition(
            "cohen_inversion_residual",
            {"tau": label, "ncut": ncut},
            abs(inversion) < 1e-6,
            {"residual": abs(inversion), "tolerance": 1e-6},
        ),
        report_from_condition(
            "cohen_shift_residual",
            {"tau": label, "ncut": ncut},
            abs(shift) < 1e-12,
            {"residual": abs(shift), "tolerance": 1e-12},
        ),
    ]


def _checks_cohen_waveform(cfg: RunConfig):
    ncut = cfg.ncut or 5000
    return [
        partial(_check_cohen_reality, ncut),
        partial(_check_cohen_residuals, 1j, "i", ncut),
        partial(_check_cohen_residuals, complex(1.0 / 3.0, 0.5), "1/3+i/2", ncut),
    ]


def _checks_root_duality(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 12
    check_root_order(nmax)
    return [
        partial(verify_kz_duality, k, ell, big_n)
        for k in range(1, kmax + 1)
        for ell in range(1, k + 1)
        for big_n in range(1, nmax + 1)
    ]


# In the order of ``verify all``.
SUITES = {
    "ag": _checks_chain_relation,
    "sigma": _checks_classical_reps,
    "bailey": _checks_pair_relation,
    "prop32": partial(_family_grid, verify_family_lattice, 3, Fraction(60)),
    "params": partial(_family_grid, validate_family_params, 10, None),
    "thm1": partial(_family_grid, verify_theta_embedding, 3, Fraction(60)),
    "completion": _checks_completion,
    "cohen": _checks_cohen_waveform,
    "duality": _checks_root_duality,
}


def _run_verify(cfg: RunConfig, writer: LineWriter) -> int:
    suites = SUITES.values() if cfg.target == "all" else [SUITES[cfg.target]]
    checks = [check for suite in suites for check in suite(cfg)]
    if not checks:
        raise UsageError(f"verify {cfg.target}: these parameters give no checks")
    failed = False
    for check in checks:
        result = check()
        for report in [result] if isinstance(result, CheckReport) else result:
            writer.emit(report.to_json_dict())
            failed |= not report.ok
    return 1 if failed else 0


# --------------------------------------------------------------------------
# expand


def _int_order(cfg: RunConfig, default: int) -> int:
    if cfg.order is None:
        return default
    if cfg.order.denominator != 1:
        raise UsageError("--order must be a positive integer for this table")
    return int(cfg.order)


def _expand_hpoly(cfg: RunConfig, writer: LineWriter) -> None:
    k = cfg.require("k")
    ell = cfg.ell if cfg.ell is not None else 1
    nmax = cfg.nmax if cfg.nmax is not None else 8
    for n, poly in enumerate(ag_polynomials(k, ell, cfg.boundary, nmax)):
        degree = poly.degree()
        size = 1 if degree is None else int(degree) + 1
        writer.emit({"n": n, "coefficients": " ".join(str(poly.coeff(e)) for e in range(size))})


def _expand_family(cfg: RunConfig, writer: LineWriter) -> None:
    order = _int_order(cfg, 50)
    series = family_series(*cfg.family(), order)
    for n in range(order):
        writer.emit({"n": n, "coefficient": _exact_str(series.coeff(n))})


def _expand_classical(cfg: RunConfig, writer: LineWriter, starred: bool) -> None:
    order = _int_order(cfg, 200)
    values = (sigma_star_coefficients if starred else sigma_coefficients)(order - 1)
    for n, value in enumerate(values):
        writer.emit({"n": n, "coefficient": str(value)})


def _theta_params_from(cfg: RunConfig) -> ThetaParams:
    if cfg.j is not None:
        return family_params(*cfg.family()).params
    if cfg.lattice_m is None or cfg.shift_a is None or cfg.twist_b is None:
        raise UsageError(f"{cfg.target} needs either --j/--k/--l or all of --M/--a/--b")
    return ThetaParams(cfg.lattice_m, cfg.shift_a, cfg.twist_b)


def _write_terms(writer: LineWriter, series) -> None:
    writer.header(("exponent", "coefficient"))
    for exponent, coeff in series.terms():
        writer.emit({"exponent": _exact_str(exponent), "coefficient": _exact_str(coeff)})


def _expand_theta(cfg: RunConfig, writer: LineWriter) -> None:
    params = _theta_params_from(cfg)
    order = cfg.order if cfg.order is not None else Fraction(50)
    _write_terms(writer, indefinite_theta_series(params, order))


def _expand_negative_part(cfg: RunConfig, writer: LineWriter) -> None:
    lattice_m, ell = cfg.require("lattice_m"), cfg.require("ell")
    _write_terms(writer, negative_part_series(lattice_m, ell, _int_order(cfg, 50))[0])


EXPANDERS = {
    "hpoly": _expand_hpoly,
    "f": _expand_family,
    "sigma": partial(_expand_classical, starred=False),
    "sigma-star": partial(_expand_classical, starred=True),
    "s-theta": _expand_theta,
    "negative-part": _expand_negative_part,
}


# --------------------------------------------------------------------------
# eval


def _eval_waveform(cfg: RunConfig, writer: LineWriter) -> int:
    tau = cfg.tau if cfg.tau is not None else 1j
    if cfg.cohen:
        size = ("ncut", cfg.ncut or 5000)
        table = cohen_table(size[1])
        value, tail = eval_waveform(table, tau, table.extent())
    else:
        params = _theta_params_from(cfg)
        size = ("lattice_cut", cfg.lattice_cut if cfg.lattice_cut is not None else 12)
        value, tail = waveform_numeric(params, tau, size[1])
    writer.emit(
        {
            "target": "waveform",
            "model": "cohen" if cfg.cohen else "theta",
            "tau_re": tau.real,
            "tau_im": tau.imag,
            size[0]: size[1],
            "value_re": value.real,
            "value_im": value.imag,
            "tail_bound": tail,
        }
    )
    return 0


def _eval_quantum(cfg: RunConfig, writer: LineWriter) -> int:
    sample = quantum_value(*cfg.family(), cfg.require("x"))
    payload = {"target": "quantum"} | sample.to_json_dict()
    if sample.value.is_rational():
        payload["value"] = _exact_str(sample.value.rational_value())
    writer.emit(payload)
    return 0


def _eval_radial(cfg: RunConfig, writer: LineWriter) -> int:
    report = radial_limit_check(*cfg.family(), cfg.require("x"), tol=cfg.tol or 1e-4)
    writer.emit(report.to_json_dict())
    return 0 if report.ok else 1


def _eval_cocycle(cfg: RunConfig, writer: LineWriter) -> int:
    if not cfg.cohen:
        raise UsageError("eval cocycle currently supports only --cohen")
    gamma = cfg.require("gamma")
    xs = cfg.require("xs")
    # The slowest-decaying sample in the default radial grid needs
    # Fourier indices well past the default 5000-coefficient window.
    ncut = cfg.ncut or 30000
    table = cohen_table(ncut)
    samples = cocycle_samples(
        table, gamma, list(xs), conjugate_image=cfg.conjugate_image
    )
    for x, value in zip(xs, samples):
        writer.emit(
            {
                "target": "cocycle",
                "x": _exact_str(x),
                "gamma": ",".join(str(g) for g in gamma),
                "conjugate_image": cfg.conjugate_image,
                "value_re": value.real,
                "value_im": value.imag,
            }
        )
    return 0


EVALUATORS = {
    "waveform": _eval_waveform,
    "quantum": _eval_quantum,
    "radial": _eval_radial,
    "cocycle": _eval_cocycle,
}


# --------------------------------------------------------------------------
# wiring


class Command(Record):
    """One subcommand: its help line, its targets (argparse choices), its
    default row format and the RunConfig fields it takes, in --help order."""

    def __init__(self, help: str, targets: tuple, fmt: str, fields: tuple,
                 metavar: str | None = None) -> None:
        self.__dict__.update(help=help, targets=targets, fmt=fmt, fields=fields, metavar=metavar)


COMMANDS = {
    "verify": Command(
        "run a named suite of checks", (*SUITES, "all"), "json",
        ("order", "kmax", "nmax", "ncut", "lattice_cut", "tau", "tol", "out"), "suite",
    ),
    "expand": Command(
        "write a coefficient table", tuple(EXPANDERS), "csv",
        ("order", "j", "k", "ell", "boundary", "nmax", "lattice_m", "shift_a", "twist_b",
         "out", "fmt"),
    ),
    "eval": Command(
        "evaluate waveforms, limits, samples", tuple(EVALUATORS), "json",
        ("j", "k", "ell", "lattice_m", "shift_a", "twist_b", "x", "xs", "tau", "ncut",
         "lattice_cut", "gamma", "cohen", "conjugate_image", "tol", "out", "fmt"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaass",
        description="Exact q-series checks, coefficient tables, and waveform evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("target", metavar=command.metavar, choices=command.targets)
        for field in command.fields:
            option = OPTIONS[field]
            p.add_argument(option.flag, dest=field, **option.kwargs)
        p.set_defaults(fmt=command.fmt)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """``--tau -0.2,0.9`` as ``--tau=-0.2,0.9``: argparse takes a value
    that starts with "-" for an option unless it is a plain number."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = RunConfig.from_args(ns)
        try:
            stream = open(cfg.out, "w", encoding="utf-8") if cfg.out else sys.stdout
        except OSError as exc:
            raise UsageError(f"cannot write --out {cfg.out}: {exc.strerror}") from exc
        try:
            writer = LineWriter(stream, cfg.fmt)
            if cfg.command == "verify":
                code = _run_verify(cfg, writer)
            elif cfg.command == "expand":
                code = EXPANDERS[cfg.target](cfg, writer) or 0  # a table always exits 0
            else:
                code = EVALUATORS[cfg.target](cfg, writer)
            stream.flush()
            return code
        finally:
            if cfg.out:
                stream.close()
    except PrecisionError as exc:
        print(f"qmaass: numeric precision failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, QSeriesError) as exc:
        print(f"qmaass: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # A closed stdout (``qmaass verify all | head``) ends the process
    # quietly, like any Unix filter, instead of raising BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
