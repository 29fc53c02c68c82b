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
import random
import re
import signal
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .agpolys import ag_polynomial, verify_ag_relation
from .bailey import (
    IDENTITY_KINDS,
    RELATIVES,
    pair_relative_one,
    pair_relative_q,
    synthetic_pair,
    unit_pair,
    verify_limiting_identity,
    verify_pair,
)
from .cyclotomic import check_root_order
from .families import (
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
    cocycle_samples,
    cohen_table,
    cohen_transform_residual,
    eval_waveform,
    quantum_value,
    radial_limit_check,
)
from .reports import _exact_str, report_from_comparison, report_from_condition
from .series import PrecisionError, QSeriesError, dense_int_coeffs
from .theta import (
    ThetaParams,
    completion_defect,
    family_params,
    indefinite_theta_series,
    validate_family_params,
    verify_family_lattice,
    verify_theta_embedding,
    waveform_numeric,
)

__all__ = ["RunConfig", "main", "run"]

VERIFY_SUITES = (
    "ag",
    "sigma",
    "bailey",
    "prop32",
    "params",
    "thm1",
    "completion",
    "cohen",
    "duality",
    "all",
)
EXPAND_TARGETS = ("hpoly", "f", "sigma", "sigma-star", "s-theta", "negative-part")
EVAL_TARGETS = ("waveform", "quantum", "radial", "cocycle")

FAMILY_RANGE = (1, 2, 3, 4)


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


@dataclass(frozen=True)
class RunConfig:
    """Validated options for one invocation.

    Exact quantities keep their :class:`Fraction` type from the parser
    on; nothing here round-trips a rational through a float.
    """

    command: str
    target: str
    order: Fraction | None = None
    j: int | None = None
    k: int | None = None
    ell: int | None = None
    boundary: int = 0
    kmax: int | None = None
    nmax: int | None = None
    lattice_m: int | None = None
    shift_a: tuple[Fraction, Fraction] | None = None
    twist_b: tuple[Fraction, Fraction] | None = None
    ncut: int | None = None
    lattice_cut: int | None = None
    tau: complex | None = None
    x: Fraction | None = None
    xs: tuple[Fraction, ...] | None = None
    gamma: tuple[int, int, int, int] | None = None
    cohen: bool = False
    conjugate_image: bool = False
    tol: float | None = None
    out: str | None = None
    fmt: str = "csv"

    @classmethod
    def from_args(cls, ns: argparse.Namespace) -> "RunConfig":
        def opt(name, mapper=None):
            value = getattr(ns, name, None)
            if value is None:
                return None
            return mapper(value) if mapper else value

        # expand hpoly --nmax 0 is a valid one-row table.
        least, kind = (0, "nonnegative") if ns.command == "expand" else (1, "positive")
        for name in ("kmax", "nmax", "ncut", "lattice_cut"):
            value = getattr(ns, name, None)
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise UsageError(f"{flag} must be a {kind} integer, got {value}")
        order = opt("order", parse_rational)
        if order is not None and order <= 0:
            raise UsageError(f"--order must be positive, got {order}")
        tol = opt("tol")
        if tol is not None and not 0 < tol < math.inf:
            raise UsageError(f"--tol must be positive and finite, got {tol}")
        return cls(
            command=ns.command,
            target=ns.target,
            order=order,
            j=opt("j"),
            k=opt("k"),
            ell=opt("l"),
            boundary=getattr(ns, "boundary", 0) or 0,
            kmax=opt("kmax"),
            nmax=opt("nmax"),
            lattice_m=opt("M"),
            shift_a=opt("a", parse_rational_pair),
            twist_b=opt("b", parse_rational_pair),
            ncut=opt("ncut"),
            lattice_cut=opt("lattice_cut"),
            tau=opt("tau", parse_tau),
            x=opt("x", parse_rational),
            xs=opt("xs", parse_rational_list),
            gamma=opt("gamma", parse_matrix),
            cohen=bool(getattr(ns, "cohen", False)),
            conjugate_image=bool(getattr(ns, "conjugate_image", False)),
            tol=tol,
            out=opt("out"),
            fmt=getattr(ns, "format", None)
            or ("csv" if ns.command == "expand" else "json"),
        )

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            flag = {"ell": "--l", "lattice_m": "--M"}.get(name, "--" + name)
            raise UsageError(f"{self.command} {self.target} requires {flag}")
        return value


# --------------------------------------------------------------------------
# output


class LineWriter:
    """Stream rows to a file or stdout; JSON lines or csv."""

    def __init__(self, stream, fmt: str):
        self.stream = stream
        self.fmt = fmt
        self._wrote_header = False

    def emit(self, obj: dict) -> None:
        if self.fmt == "json":
            self.stream.write(json.dumps(obj) + "\n")
            return
        if not self._wrote_header:
            self.stream.write(",".join(obj.keys()) + "\n")
            self._wrote_header = True
        self.stream.write(",".join(_csv_cell(v) for v in obj.values()) + "\n")

    def flush(self) -> None:
        self.stream.flush()


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
# Each builder returns an ordered list of zero-argument callables, one
# per check.  The order of the list is the output order.


def _checks_chain_relation(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 8
    checks = []
    # The partition comparison is defined only from two chain levels up.
    for k in range(2, kmax + 1):
        for ell in range(1, k + 1):
            for b in (0, 1):
                for n in range(0, nmax + 1):
                    if b == 1 and n == 0:
                        # The partition identity needs at least one part
                        # when the extra boundary factor is switched on.
                        continue
                    checks.append(
                        lambda k=k, ell=ell, b=b, n=n: verify_ag_relation(k, ell, b, n)
                    )
    return checks


def _checks_classical_reps(cfg: RunConfig):
    order = cfg.order if cfg.order is not None else Fraction(200)

    def compare(kind, series_of, base, rep):
        return report_from_comparison(
            "classical_series_representation",
            {"series": kind, "lhs": base, "rhs": rep, "order": order},
            series_of(base, order),
            series_of(rep, order),
        )

    checks = []
    for rep in SIGMA_REPS[1:]:
        checks.append(
            lambda rep=rep: compare("sigma", sigma_series, SIGMA_REPS[0], rep)
        )
    for rep in SIGMA_STAR_REPS[1:]:
        checks.append(
            lambda rep=rep: compare(
                "sigma-star", sigma_star_series, SIGMA_STAR_REPS[0], rep
            )
        )
    return checks


def _checks_pair_relation(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 8
    order = cfg.order if cfg.order is not None else Fraction(40)
    makers = {"one": pair_relative_one, "q": pair_relative_q}
    checks = []
    for relative in RELATIVES:
        checks.append(
            lambda relative=relative: verify_pair(unit_pair(relative), nmax, order)
        )
        for k in range(1, kmax + 1):
            for ell in range(1, k + 1):
                checks.append(
                    lambda relative=relative, k=k, ell=ell: verify_pair(
                        makers[relative](k, ell), nmax, order
                    )
                )
    # The limit identities ignore 0-index entries on one side, so they
    # are checked only on pairs whose 0-index entries vanish: the chain
    # pairs and the synthetic pairs, never the unit pairs.
    for relative in RELATIVES:
        for kind in IDENTITY_KINDS:
            checks.append(
                lambda relative=relative, kind=kind: verify_limiting_identity(
                    makers[relative](1, 1), relative, kind, order
                )
            )
    rng = random.Random(7)
    for relative in RELATIVES:
        for _ in range(3):
            pair = synthetic_pair(relative, rng)
            checks.append(lambda pair=pair: verify_pair(pair, 6, order))
            for kind in IDENTITY_KINDS:
                checks.append(
                    lambda pair=pair, relative=relative, kind=kind: (
                        verify_limiting_identity(pair, relative, kind, order)
                    )
                )
    return checks


def _family_grid(check, kmax: int, *args):
    """One check per family and chain parameters 1 <= ell <= k <= kmax."""
    return [
        partial(check, j, k, ell, *args)
        for j in FAMILY_RANGE
        for k in range(1, kmax + 1)
        for ell in range(1, k + 1)
    ]


def _checks_lattice_identity(cfg: RunConfig):
    order = cfg.order if cfg.order is not None else Fraction(60)
    return _family_grid(verify_family_lattice, cfg.kmax or 3, order)


def _checks_family_params(cfg: RunConfig):
    return _family_grid(validate_family_params, cfg.kmax or 10)


def _checks_theta_embedding(cfg: RunConfig):
    order = cfg.order if cfg.order is not None else Fraction(60)
    return _family_grid(verify_theta_embedding, cfg.kmax or 3, order)


def _checks_completion(cfg: RunConfig):
    tau = cfg.tau if cfg.tau is not None else 1j
    cut = cfg.lattice_cut if cfg.lattice_cut is not None else 10
    tol = cfg.tol if cfg.tol is not None else 1e-8

    def family_defect(j, k, ell):
        defect = abs(completion_defect(family_params(j, k, ell).params, tau, cut))
        return report_from_condition(
            "completion_defect_vanishes",
            {"j": j, "k": k, "ell": ell, "tau": str(tau), "lattice_cut": cut},
            defect < tol,
            {"defect": defect, "tolerance": tol},
        )

    def control_defect():
        # Deliberately off-family shifts: the boundary corrections must
        # NOT cancel, or the vanishing checks above prove nothing.
        params = ThetaParams(
            4,
            (Fraction(1, 5), Fraction(1, 7)),
            (Fraction(1, 3), Fraction(1, 11)),
        )
        defect = abs(completion_defect(params, tau, cut))
        return report_from_condition(
            "completion_defect_control",
            {"M": 4, "tau": str(tau), "lattice_cut": cut},
            defect > 1e-3,
            {"defect": defect, "floor": 1e-3},
        )

    return [
        lambda: family_defect(1, 1, 1),
        lambda: family_defect(4, 1, 1),
        control_defect,
    ]


def _checks_cohen_waveform(cfg: RunConfig):
    ncut = cfg.ncut or 5000

    def reality():
        table = cohen_table(ncut)
        tau = complex(0.0, 1.0 / math.sqrt(2.0))
        value, tail = eval_waveform(table, tau, table.extent())
        return report_from_condition(
            "cohen_waveform_real_on_axis",
            {"tau": str(tau), "ncut": ncut},
            abs(value.imag) < 1e-8,
            {"value_re": value.real, "value_im": value.imag, "tail_bound": tail},
        )

    memo: dict[complex, tuple[complex, complex]] = {}

    def residuals(tau, label):
        if tau not in memo:  # both reports of one tau share one computation
            memo[tau] = cohen_transform_residual(tau, ncut)
        inversion, shift = memo[tau]
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

    def at(tau, label, index):
        return lambda: residuals(tau, label)[index]

    return [
        reality,
        at(1j, "i", 0),
        at(1j, "i", 1),
        at(complex(1.0 / 3.0, 0.5), "1/3+i/2", 0),
        at(complex(1.0 / 3.0, 0.5), "1/3+i/2", 1),
    ]


def _checks_root_duality(cfg: RunConfig):
    kmax = cfg.kmax or 3
    nmax = cfg.nmax or 12
    check_root_order(nmax)
    return [
        lambda k=k, ell=ell, big_n=big_n: verify_kz_duality(k, ell, big_n)
        for k in range(1, kmax + 1)
        for ell in range(1, k + 1)
        for big_n in range(1, nmax + 1)
    ]


_SUITE_BUILDERS = {
    "ag": _checks_chain_relation,
    "sigma": _checks_classical_reps,
    "bailey": _checks_pair_relation,
    "prop32": _checks_lattice_identity,
    "params": _checks_family_params,
    "thm1": _checks_theta_embedding,
    "completion": _checks_completion,
    "cohen": _checks_cohen_waveform,
    "duality": _checks_root_duality,
}


def _run_verify(cfg: RunConfig, writer: LineWriter) -> int:
    if cfg.target == "all":
        checks = []
        for name in VERIFY_SUITES[:-1]:
            checks.extend(_SUITE_BUILDERS[name](cfg))
    else:
        checks = _SUITE_BUILDERS[cfg.target](cfg)
    if not checks:
        raise UsageError(f"verify {cfg.target}: these parameters give no checks")
    failed = False
    for check in checks:
        report = check()
        writer.emit(report.to_json_dict())
        failed |= not report.ok
    writer.flush()
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
    for n in range(0, nmax + 1):
        poly = ag_polynomial(k, ell, cfg.boundary, n)
        degree = poly.degree()
        size = 1 if degree is None else int(degree) + 1
        coeffs = dense_int_coeffs(poly, size)
        writer.emit(
            {
                "n": n,
                "coefficients": " ".join(str(c) for c in coeffs),
            }
        )


def _expand_family(cfg: RunConfig, writer: LineWriter) -> None:
    j = cfg.require("j")
    k = cfg.require("k")
    ell = cfg.require("ell")
    order = _int_order(cfg, 50)
    series = family_series(j, k, ell, order)
    for n in range(order):
        writer.emit({"n": n, "coefficient": _exact_str(series.coeff(n))})


def _expand_classical(cfg: RunConfig, writer: LineWriter, starred: bool) -> None:
    order = _int_order(cfg, 200)
    values = (sigma_star_coefficients if starred else sigma_coefficients)(order - 1)
    for n, value in enumerate(values):
        writer.emit({"n": n, "coefficient": str(value)})


def _theta_params_from(cfg: RunConfig) -> ThetaParams:
    if cfg.j is not None:
        k = cfg.require("k")
        ell = cfg.require("ell")
        return family_params(cfg.j, k, ell).params
    if cfg.lattice_m is None or cfg.shift_a is None or cfg.twist_b is None:
        raise UsageError(
            "s-theta needs either --j/--k/--l or all of --M/--a/--b"
        )
    return ThetaParams(cfg.lattice_m, cfg.shift_a, cfg.twist_b)


def _expand_theta(cfg: RunConfig, writer: LineWriter) -> None:
    params = _theta_params_from(cfg)
    order = cfg.order if cfg.order is not None else Fraction(50)
    series = indefinite_theta_series(params, order)
    for exponent, coeff in series.terms():
        writer.emit({"exponent": _exact_str(exponent), "coefficient": _exact_str(coeff)})


def _expand_negative_part(cfg: RunConfig, writer: LineWriter) -> None:
    lattice_m = cfg.require("lattice_m")
    ell = cfg.require("ell")
    order = _int_order(cfg, 50)
    series, diagnostics = negative_part_series(lattice_m, ell, order)
    anomalous = len(diagnostics.get("anomalous_terms", ()))
    for exponent, coeff in series.terms():
        writer.emit(
            {
                "exponent": _exact_str(exponent),
                "coefficient": _exact_str(coeff),
                "region": diagnostics["region"],
                "anomalous_terms": anomalous,
            }
        )


def _run_expand(cfg: RunConfig, writer: LineWriter) -> int:
    handlers = {
        "hpoly": _expand_hpoly,
        "f": _expand_family,
        "sigma": lambda c, w: _expand_classical(c, w, starred=False),
        "sigma-star": lambda c, w: _expand_classical(c, w, starred=True),
        "s-theta": _expand_theta,
        "negative-part": _expand_negative_part,
    }
    handlers[cfg.target](cfg, writer)
    writer.flush()
    return 0


# --------------------------------------------------------------------------
# eval


def _eval_waveform(cfg: RunConfig, writer: LineWriter) -> int:
    tau = cfg.tau if cfg.tau is not None else 1j
    if cfg.cohen:
        ncut = cfg.ncut or 5000
        table = cohen_table(ncut)
        value, tail = eval_waveform(table, tau, table.extent())
        writer.emit(
            {
                "target": "waveform",
                "model": "cohen",
                "tau_re": tau.real,
                "tau_im": tau.imag,
                "ncut": ncut,
                "value_re": value.real,
                "value_im": value.imag,
                "tail_bound": tail,
            }
        )
        return 0
    params = _theta_params_from(cfg)
    cut = cfg.lattice_cut if cfg.lattice_cut is not None else 12
    value, tail = waveform_numeric(params, tau, cut)
    writer.emit(
        {
            "target": "waveform",
            "model": "theta",
            "tau_re": tau.real,
            "tau_im": tau.imag,
            "lattice_cut": cut,
            "value_re": value.real,
            "value_im": value.imag,
            "tail_bound": tail,
        }
    )
    return 0


def _eval_quantum(cfg: RunConfig, writer: LineWriter) -> int:
    sample = quantum_value(
        cfg.require("j"), cfg.require("k"), cfg.require("ell"), cfg.require("x")
    )
    payload = {"target": "quantum"} | sample.to_json_dict()
    if sample.value.is_rational():
        payload["value"] = _exact_str(sample.value.rational_value())
    writer.emit(payload)
    return 0


def _eval_radial(cfg: RunConfig, writer: LineWriter) -> int:
    report = radial_limit_check(
        cfg.require("j"),
        cfg.require("k"),
        cfg.require("ell"),
        cfg.require("x"),
        tol=cfg.tol if cfg.tol is not None else 1e-4,
    )
    writer.emit(report.to_json_dict())
    writer.flush()
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


def _run_eval(cfg: RunConfig, writer: LineWriter) -> int:
    handlers = {
        "waveform": _eval_waveform,
        "quantum": _eval_quantum,
        "radial": _eval_radial,
        "cocycle": _eval_cocycle,
    }
    code = handlers[cfg.target](cfg, writer)
    writer.flush()
    return code


# --------------------------------------------------------------------------
# wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        help="row format (tables default to csv, checks and eval to json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaass",
        description="Exact q-series checks, coefficient tables, and waveform evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named suite of checks")
    p_verify.add_argument("target", metavar="suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--order", metavar="p/q", help="series truncation order")
    p_verify.add_argument("--kmax", type=int, help="largest chain length")
    p_verify.add_argument("--nmax", type=int, help="largest index in sweeps")
    p_verify.add_argument("--ncut", type=int, help="coefficient cutoff for waveforms")
    p_verify.add_argument("--lattice-cut", type=int, help="lattice shell cutoff")
    p_verify.add_argument("--tau", metavar="re,im", help="upper-half-plane point")
    p_verify.add_argument("--tol", type=float, help="numeric tolerance override")
    _add_common(p_verify)

    p_expand = sub.add_parser("expand", help="write a coefficient table")
    p_expand.add_argument("target", choices=EXPAND_TARGETS)
    p_expand.add_argument("--order", metavar="p/q", help="number of rows / truncation")
    p_expand.add_argument("--j", type=int, help="family index 1..4")
    p_expand.add_argument("--k", type=int, help="chain length")
    p_expand.add_argument("--l", type=int, help="chain marker, 1..k")
    p_expand.add_argument(
        "--boundary", type=int, choices=(0, 1), default=0,
        help="chain boundary bit for hpoly",
    )
    p_expand.add_argument("--nmax", type=int, help="largest chain index for hpoly")
    p_expand.add_argument("--M", type=int, help="lattice form parameter")
    p_expand.add_argument("--a", metavar="p/q,p/q", help="lattice shift pair")
    p_expand.add_argument("--b", metavar="p/q,p/q", help="lattice twist pair")
    _add_common(p_expand)

    p_eval = sub.add_parser("eval", help="evaluate waveforms, limits, samples")
    p_eval.add_argument("target", choices=EVAL_TARGETS)
    p_eval.add_argument("--j", type=int, help="family index 1..4")
    p_eval.add_argument("--k", type=int, help="chain length")
    p_eval.add_argument("--l", type=int, help="chain marker, 1..k")
    p_eval.add_argument("--M", type=int, help="lattice form parameter")
    p_eval.add_argument("--a", metavar="p/q,p/q", help="lattice shift pair")
    p_eval.add_argument("--b", metavar="p/q,p/q", help="lattice twist pair")
    p_eval.add_argument("--x", metavar="p/q", help="exact rational point")
    p_eval.add_argument("--xs", metavar="p/q,...", help="comma-separated rational points")
    p_eval.add_argument("--tau", metavar="re,im", help="upper-half-plane point")
    p_eval.add_argument("--ncut", type=int, help="coefficient cutoff")
    p_eval.add_argument("--lattice-cut", type=int, help="lattice shell cutoff")
    p_eval.add_argument("--gamma", metavar="a,b,c,d", help="integer matrix entries")
    p_eval.add_argument(
        "--cohen", action="store_true",
        help="use the level-2 coefficient table instead of a family lattice",
    )
    p_eval.add_argument(
        "--conjugate-image", action="store_true",
        help="conjugate the transformed term in cocycle samples",
    )
    p_eval.add_argument("--tol", type=float, help="numeric tolerance")
    _add_common(p_eval)

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
        stream = open(cfg.out, "w", encoding="utf-8") if cfg.out else sys.stdout
        try:
            writer = LineWriter(stream, cfg.fmt)
            if cfg.command == "verify":
                return _run_verify(cfg, writer)
            if cfg.command == "expand":
                return _run_expand(cfg, writer)
            return _run_eval(cfg, writer)
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
