"""Run one repetition of a workload plan in a fresh interpreter.

Reads ``{"ops": [...], "traced": bool}`` as JSON on stdin and writes one
JSON object on stdout: the wall time from issuing the first operation to
the return of the last (less the speed probes run between operations),
the same time rescaled to the reference speed (see ``speed_probe``), the
import time of ``qmaass``, peak RSS, the K0 cache counters, one canonical
outcome per operation and, when traced, one ``[start, end]`` span per
operation.

Inputs are built before the clock starts, and results are reduced to
their canonical form (digests, floats) after it stops, so the timed loop
holds only the calls themselves.  A call that raises is recorded as an
error and the loop goes on.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial

Q = None  # the qmaass package, imported only by workloads that call it in-process


# ------------------------------------------------------------------ inputs


def partition_numbers(size: int) -> list:
    """p(0..size-1) by the pentagonal recurrence (benchmark's own code)."""
    p = [1] + [0] * (size - 1)
    for n in range(1, size):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def euler_coeffs(size: int) -> list:
    """Dense coefficients of (q; q)_infinity below q^size."""
    out = [0] * size
    k = 0
    while True:
        hit = False
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < size:
                out[g] = -1 if k % 2 else 1
                hit = True
        if not hit:
            return out
        k += 1


def int_operands(size: int, variant: int):
    """Two dense integer series whose coefficients are partition-sized."""
    rng = random.Random(f"mul_int:{size}:{variant}")
    bounds = partition_numbers(size)
    return tuple(
        Q.QSeries.from_dense([rng.randint(-b, b) for b in bounds], Fraction(size)) for _ in range(2)
    )


def sparse_operands(kind: str, variant: int):
    """Two 60-term series with rational exponents (denominators 7 and 11),
    with rational or cyclotomic (order 15) coefficients."""
    rng = random.Random(f"mul_sparse:{kind}:{variant}")

    def coeff():
        c = rng.choice([i for i in range(-9, 10) if i])
        if kind == "rational":
            return Fraction(c, rng.randint(1, 6))
        return Q.CycNumber.from_powers(15, {rng.randrange(15): c})

    return tuple(
        Q.QSeries.from_terms(
            [(Fraction(rng.randint(1, 20 * den), den), coeff()) for _ in range(60)], Fraction(20)
        )
        for den in (7, 11)
    )


def cyc_operands(order: int, label: str, count: int) -> list:
    """Nonzero elements of Q(zeta_order) with small integer coordinates."""
    rng = random.Random(f"{label}:{order}")
    degree = len(Q.CycNumber.from_rational(order, 1).vec)
    out = []
    while len(out) < count:
        vec = [rng.randint(-9, 9) for _ in range(degree)]
        if any(vec):
            out.append(Q.CycNumber(order, vec))
    return out


def bailey_pair(spec, cache):
    spec = tuple(spec)
    if spec not in cache:
        if spec[0] == "unit":
            cache[spec] = Q.unit_pair(spec[1])
        elif spec[0] == "synthetic":
            cache[spec] = Q.synthetic_pair(spec[1], random.Random(spec[2]))
        else:
            maker = Q.pair_relative_one if spec[0] == "one" else Q.pair_relative_q
            cache[spec] = maker(spec[1], spec[2])
    return cache[spec]


def theta_params(a):
    return Q.ThetaParams(a["M"], tuple(Fraction(v) for v in a["a"]), tuple(Fraction(v) for v in a["b"]))


class Earlier(str):
    """An argument that is the named result of an earlier operation."""


def cli_call(a):
    """The command as a user runs it, in a fresh interpreter (PYTHONPATH is inherited)."""
    env = dict(os.environ, QMAASS_THREADS=str(a["threads"]))
    return partial(subprocess.run, [sys.executable, "-m", "qmaass.cli", *a["argv"]],
                   env=env, capture_output=True, text=True)


def family(a):
    return Q.family_params(a["j"], a["k"], a["ell"]).params


# Each handler maps (args, cache) to a ``partial`` of the ``qmaass``
# function or method the operation calls, building its inputs first.
# ``cache`` holds inputs shared between the operations of one repetition;
# an ``Earlier`` argument is looked up among the named results when the
# call runs.
HANDLERS = {
    "pochhammer": lambda a, c: partial(Q.pochhammer, a["kind"], a["n"], Fraction(a["trunc"])),
    "gaussian_binomial": lambda a, c: partial(Q.gaussian_binomial, a["n"], a["k"]),
    "mul_int": lambda a, c: partial(Q.QSeries.__mul__, *int_operands(a["size"], a["variant"])),
    "inverse_int": lambda a, c: partial(
        Q.QSeries.inverse, Q.QSeries.from_dense(euler_coeffs(a["size"]), Fraction(a["size"]))
    ),
    "mul_sparse": lambda a, c: partial(Q.QSeries.__mul__, *sparse_operands(a["kind"], a["variant"])),
    "verify_pair": lambda a, c: partial(Q.verify_pair, bailey_pair(a["pair"], c), a["n_max"], Fraction(a["trunc"])),
    "limit_identity": lambda a, c: partial(
        Q.verify_limiting_identity, bailey_pair(a["pair"], c), a["relative"], a["kind"], Fraction(a["trunc"])
    ),
    "family_series": lambda a, c: partial(Q.family_series, a["j"], a["k"], a["ell"], Fraction(a["trunc"])),
    "sigma_series": lambda a, c: partial(Q.sigma_series, a["rep"], Fraction(a["trunc"])),
    "verify_ag_relation": lambda a, c: partial(Q.verify_ag_relation, a["k"], a["ell"], a["b"], a["n"]),
    "theta_series": lambda a, c: partial(Q.indefinite_theta_series, theta_params(a), Fraction(a["trunc"])),
    "theta_embedding": lambda a, c: partial(Q.verify_theta_embedding, a["j"], a["k"], a["ell"], Fraction(a["trunc"])),
    "negative_part": lambda a, c: partial(
        Q.negative_part_series, a["M"], a["ell"], Fraction(a["trunc"]), region="cone"
    ),
    "validate_params": lambda a, c: partial(Q.validate_family_params, a["j"], a["k"], a["ell"]),
    "kz_duality": lambda a, c: partial(Q.verify_kz_duality, a["k"], a["ell"], a["N"]),
    "quantum_value": lambda a, c: partial(Q.quantum_value, a["j"], a["k"], a["ell"], Fraction(a["x"])),
    "cyc_mul": lambda a, c: partial(Q.CycNumber.__mul__, *cyc_operands(a["order"], f"cyc_mul:{a['variant']}", 2)),
    "cyc_inverse": lambda a, c: partial(
        Q.CycNumber.inverse, *cyc_operands(a["order"], f"cyc_inverse:{a['variant']}", 1)
    ),
    "k0": lambda a, c: partial(Q.k0_bessel, a["x"]),
    "cohen_table": lambda a, c: partial(Q.cohen_table, a["n_max"]),
    "eval_waveform": lambda a, c: partial(Q.eval_waveform, Earlier(a["table"]), complex(*a["tau"]), a["n_cut"]),
    "cohen_residual": lambda a, c: partial(Q.cohen_transform_residual, complex(*a["tau"]), a["n_cut"]),
    "cocycle": lambda a, c: partial(
        Q.cocycle_samples, Earlier(a["table"]), tuple(a["gamma"]), [Fraction(a["x"])]
    ),
    "waveform_numeric": lambda a, c: partial(Q.waveform_numeric, family(a), complex(*a["tau"]), a["lattice_cut"]),
    "completion_defect": lambda a, c: partial(Q.completion_defect, family(a), complex(*a["tau"]), a["lattice_cut"]),
    "radial": lambda a, c: partial(Q.radial_limit_check, a["j"], a["k"], a["ell"], Fraction(a["x"])),
    "cli": lambda a, c: cli_call(a),
}


# ------------------------------------------------------------- canonical form


def strip_floats(x):
    """JSON data with float leaves blanked: exact reports carry floats only
    as conveniences derived from exact values."""
    if isinstance(x, float):
        return None
    if isinstance(x, dict):
        return {str(k): strip_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [strip_floats(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return x


def canon(x) -> str:
    """Canonical text of an exact result."""
    if isinstance(x, Q.QSeries):
        return f"S{x.trunc}|" + ",".join(f"{e}:{canon(c)}" for e, c in x.terms())
    if isinstance(x, Q.CycNumber):
        return f"C{x.order}[" + ",".join(str(c) for c in x.vec) + "]"
    if isinstance(x, Q.CheckReport):
        return json.dumps(strip_floats(x.to_json_dict()), sort_keys=True)
    if isinstance(x, Q.QuantumSample):
        return f"Q{x.x}:{canon(x.value)}"
    if isinstance(x, Q.MaassCoeffTable):
        return f"T{x.scale}|" + ",".join(f"{n}:{c}" for n, c in sorted(x.coeffs.items()))
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, dict):
        return json.dumps(strip_floats(x), sort_keys=True, default=str)
    return repr(x)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def cplx(z) -> list:
    return [z.real, z.imag]


def json_lines(proc) -> list:
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def outcome(check: str, r) -> dict:
    """Reduce a result to what ``check.py`` compares."""
    if check == "exact":
        out = {"digest": digest(canon(r)), "status": getattr(r, "status", "pass")}
        if isinstance(r, Q.QSeries):
            out["terms"] = r.num_terms()
        return out
    if check == "waveform":
        value, tail = r
        return {"nums": cplx(value), "bound": tail, "status": "pass"}
    if check == "residual":
        inv, shift = r
        # the gates of the cohen suite of `qmaass verify`
        ok = abs(inv) < 1e-6 and abs(shift) < 1e-12
        return {"nums": cplx(inv) + cplx(shift), "status": "pass" if ok else "fail"}
    if check == "cocycle":
        return {"nums": [v for z in r for v in cplx(z)], "status": "pass"}
    if check == "defect":
        # the gate of the completion suite of `qmaass verify`
        return {"nums": [abs(r)], "status": "pass" if abs(r) < 1e-8 else "fail"}
    if check == "radial":
        d = r.details
        return {"nums": [d["target_re"], d["target_im"]], "status": r.status,
                "abs_error": d["error"], "instability": d["instability"]}
    if check == "k0":
        return {"nums": [r], "status": "pass"}
    # command-line checks: r is a finished subprocess
    if r.returncode not in (0, 1):
        return {"error": f"exit {r.returncode}: {r.stderr.strip()[-300:]}"}
    status = "pass" if r.returncode == 0 else "fail"
    if check == "stdout":
        return {"digest": digest(r.stdout), "status": status}
    rows = json_lines(r)
    if check == "cli-checks":
        # Exact checks byte for byte.  Numeric checks (lines with floats)
        # count through the exit status; each float must lie within the
        # tolerance or tail bound its own line reports.
        exact = [strip_floats(row) for row in rows]
        for row, text in zip(rows, exact):
            if any(isinstance(v, float) for v in row.values()):
                del text["status"]
        floats = [(v, row.get("tolerance", 0.0) + row.get("tail_bound", 0.0))
                  for row in rows for v in row.values() if isinstance(v, float)]
        return {"digest": digest("\n".join(json.dumps(row) for row in exact)),
                "nums": [v for v, _ in floats], "slack": [t for _, t in floats], "status": status}
    if check == "cli-radial":
        row = rows[0]
        return {"nums": [row["target_re"], row["target_im"]], "status": row["status"]}
    if check == "cli-cocycle":
        return {"nums": [v for row in rows for v in (row["value_re"], row["value_im"])], "status": status}
    if check == "cli-waveform":
        row = rows[0]
        return {"nums": [row["value_re"], row["value_im"]], "bound": row["tail_bound"], "status": status}
    raise ValueError(f"unknown check {check!r}")


# ------------------------------------------------------------------- speed

# The speed of a shared host swings by up to 2x within seconds and drifts
# by a quarter over minutes, as other tenants come and go.  A fixed probe
# runs between operations about every PROBE_EVERY_S; each stretch of
# operations is rescaled by REF_PROBE_S over the probe times around it,
# which gives its time at the reference speed.  The probe is benchmark
# code only, so a change to qmaass moves the rescaled time as it moves
# the wall time.
PROBE_EVERY_S = 0.1
REF_PROBE_S = 1.8e-3  # the probe's median on the 2-vCPU host of the recorded figures


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes.  It mixes Fraction,
    big-integer, dict and sort work, like the operations themselves; the
    garbage collector is held off so that the heap the operations built
    does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    table, acc, big = {}, Fraction(0), 3 ** 400
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        table[i] = big * i
    residues = [v % 1_000_003 for v in table.values()]
    residues.sort()
    elapsed = time.perf_counter() - t
    if enabled:
        gc.enable()
    return elapsed


def rescaled(segments: list, probes: list) -> float:
    """Seconds the stretches of operations would take at the reference
    speed.  Stretch k lies between probes k and k + 1; it is scaled by the
    median of probes k - 1 to k + 2, so that one probe an interrupt
    lengthened does not skew it."""
    return sum(
        seg * REF_PROBE_S / statistics.median(probes[max(0, k - 1):k + 3])
        for k, seg in enumerate(segments)
    )


# ---------------------------------------------------------------------- run


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(ops: list, traced: bool) -> dict:
    global Q
    import_s = None
    if any(o["module"] != "cli" for o in ops):
        t = time.perf_counter()
        import qmaass

        import_s = time.perf_counter() - t
        Q = qmaass
    cache, named = {}, {}
    calls = [HANDLERS[o["fn"]](o["args"], cache) for o in ops]
    results = [None] * len(ops)
    errors = {}
    spans = []
    clock = time.perf_counter
    probes, segments = [speed_probe()], []
    cpu0 = cpu_seconds()
    t0 = stretch = clock()
    for i, call in enumerate(calls):
        args = [named[v] if isinstance(v, Earlier) else v for v in call.args]
        start = clock()
        try:
            results[i] = call.func(*args, **call.keywords)
        except Exception as exc:  # an operation that raises is a failed operation
            errors[i] = f"{type(exc).__name__}: {exc}"
        if traced:
            spans.append([start - t0, clock() - t0])
        name = ops[i]["name"]
        if name:
            named[name] = results[i]
        now = clock()
        if now - stretch >= PROBE_EVERY_S or i == len(calls) - 1:
            segments.append(now - stretch)
            probes.append(speed_probe())
            stretch = clock()
    cpu_s = cpu_seconds() - cpu0
    outcomes = []
    for i, o in enumerate(ops):
        if i in errors:
            outcomes.append({"error": errors[i]})
            continue
        try:
            outcomes.append(outcome(o["check"], results[i]))
        except Exception as exc:  # a malformed result is a failed operation too
            outcomes.append({"error": f"unreadable result: {type(exc).__name__}: {exc}"})
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    k0 = Q.k0_bessel.cache_info() if Q is not None else None
    return {
        "wall_s": sum(segments),
        "wall_ref_s": rescaled(segments, probes),
        "probe_s": statistics.median(probes),
        "cpu_s": cpu_s,
        "import_s": import_s,
        "maxrss_kb": rss,
        "k0_cache": None if k0 is None else {"hits": k0.hits, "misses": k0.misses},
        "outcomes": outcomes,
        "spans": spans if traced else None,
    }


def main() -> None:
    request = json.load(sys.stdin)
    json.dump(run(request["ops"], request["traced"]), sys.stdout)


if __name__ == "__main__":
    main()
