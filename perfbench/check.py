"""Compare operation outcomes with their references.

References live in ``references.json``, keyed by ``workloads.key(op)``
and recorded by ``record.py`` at the commit that defined the benchmark.

* Exact results (series coefficients, cyclotomic vectors, exact reports,
  the stdout of exact command-line tables) must match their digest.
* Numeric results must lie within the operation's own reported tail
  bound of the reference, or within the tolerance stated in
  ``TOLERANCE``.  K0 on fresh arguments is compared with mpmath.
* An operation fails when it raises or exits with an error, returns a
  verdict other than ``pass``, or disagrees with its reference.

Numbers are compared for every operation, failing ones included.  A
failure is *known* only when the operation returns the same failing
verdict as its reference (the radial limits and completion defects that
fail at the reference commit) with numbers that agree; known failures
are counted, never filtered out.  Any other failure makes the run
incorrect.
"""

from __future__ import annotations

import json
import os

# Absolute tolerances per check, scaled by (1 + |reference|) where noted.
TOLERANCE = {
    "waveform": 1e-9,      # plus both reported tail bounds, relative
    "cli-waveform": 1e-9,  # same
    "residual": 1e-9,      # absolute, on both residuals
    "cocycle": 1e-8,       # the default tol of cocycle_samples, relative
    "defect": 1e-9,        # relative, on |defect|
    "cli-cocycle": 1e-8,
    "cli-checks": 1e-9,    # relative, plus the tolerance or tail bound the line reports
    "radial": 1e-12,       # exact target value, rendered to float
    "cli-radial": 1e-12,
    "k0": 1e-12,           # relative; the accuracy bessel.py documents
}

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def k0_reference(x: float) -> float:
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.besselk(0, x))


def nums_agree(check: str, got: dict, ref: dict) -> bool:
    a, b = got["nums"], ref["nums"]
    if len(a) != len(b):
        return False
    tol = TOLERANCE[check]
    if check in ("waveform", "cli-waveform"):
        scale = 1 + max(abs(v) for v in b)
        return all(abs(x - y) <= got["bound"] + ref["bound"] + tol * scale for x, y in zip(a, b))
    if check == "k0":
        return all(abs(x - y) <= tol * abs(y) for x, y in zip(a, b))
    if check == "cli-checks":
        return all(abs(x - y) <= t + tol * (1 + abs(y)) for x, y, t in zip(a, b, got["slack"]))
    if check in ("cocycle", "cli-cocycle", "defect"):
        return all(abs(x - y) <= tol * (1 + abs(y)) for x, y in zip(a, b))
    return all(abs(x - y) <= tol for x, y in zip(a, b))


def judge(op: dict, got: dict, ref: dict | None) -> tuple[str, str]:
    """Classify one outcome as ``pass``, ``known`` (the failing verdict the
    reference records), ``new`` (any other failure, numbers outside their
    tolerance included) or ``wrong`` (an exact result that differs from
    its reference), with a reason for failures."""
    if "error" in got:
        return ("known" if ref and "error" in ref else "new"), got["error"]
    if ref is None:
        return "new", "no reference recorded for this input"
    if "digest" in ref and got.get("digest") != ref["digest"]:
        return "wrong", "exact result differs from the reference"
    if "nums" in ref and not nums_agree(op["check"], got, ref):
        return "new", f"numeric result {got['nums']} outside tolerance of reference {ref['nums']}"
    if got.get("status") != "pass":
        return ("known" if got.get("status") == ref.get("status") else "new"), f"verdict {got.get('status')}"
    return "pass", ""


def reference_for(op: dict, key: str, refs: dict) -> dict | None:
    if op["check"] == "k0":
        return {"nums": [k0_reference(op["args"]["x"])], "status": "pass"}
    return refs.get(key)
