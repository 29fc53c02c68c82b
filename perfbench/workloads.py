"""Seeded operation plans for the two benchmark workloads.

A plan is a list of operations, each a JSON-able dict:

    fn      handler name in ``worker.HANDLERS``
    module  the ``qmaass`` module whose public function the call enters
    tag     per-layer metric family the call's span feeds, or None
    check   how ``check.py`` compares the result with its reference
    name    key under which later operations can read the result, or None
    args    the generated inputs

Every workload is a fixed sequence of slots.  A slot holds a list of
variants (each a list of operations) and a count; the seed picks
``count`` variants and their order.  Variants of one slot cost about the
same, and the operations of a fixed slot, which share caches, run in a
fixed order, so the seed moves the cost of a repetition little.  Two
seeds give the same number of operations and the same size mix, and
every input a seed can pick is in the finite catalogue that
``record.py`` stores references for.  The one exception is K0 on fresh
arguments: those are uniform draws, and ``check.py`` compares them with
mpmath instead of a recorded value.
"""

from __future__ import annotations

import json
import math
import random

# Each workload joins two parts below: "exact" the integer-coefficient
# series path and the sparse lattice/cyclotomic path, "numeric" the float
# layer and the command line.  Two long workloads rather than four short
# ones: on a shared two-vCPU machine the speed drifts over minutes, and a
# longer run averages more of it.
WORKLOADS = ("exact", "numeric")

# The modules each workload exists to stress (see BENCHMARK.json).
STRESSED = {
    "exact": ("series", "bailey", "families", "agpolys", "theta", "cyclotomic", "maass"),
    "numeric": ("bessel", "maass", "theta", "cli"),
}

FAMILIES = (1, 2, 3, 4)
K0_SWITCH = 18.0  # qmaass.bessel changes regime here


def op(fn, module, tag=None, check="exact", name=None, **args) -> dict:
    return {"fn": fn, "module": module, "tag": tag, "check": check, "name": name, "args": args}


def key(o: dict) -> str:
    """Reference-table key of an operation: handler plus canonical inputs."""
    return o["fn"] + json.dumps(o["args"], sort_keys=True)


def fixed(ops) -> tuple:
    """Every operation runs, in the order given."""
    return ([list(ops)], 1)


def pick(variants, count=1) -> tuple:
    return (list(variants), count)


def chain_params(kmax: int):
    return [(k, ell) for k in range(1, kmax + 1) for ell in range(1, k + 1)]


# -------------------------------------------- exact: integer-coefficient series


def _exact_series() -> list:
    slots = []
    # Pochhammer sweep in increasing length, so each call extends the
    # cached prefix of the previous one, as a sweep does.
    kinds = ("q", "q2", "-q", "-1", "q;q2", "q2;q")
    slots.append(pick(
        [[op("pochhammer", "series", "series.pochhammer", kind=kd, n=n, trunc=t)
          for kd in kinds for n in (25, 50, 100)] for t in (192, 196, 200, 204, 208)]
    ))
    for base in (18, 28, 38):
        slots.append(pick(
            [[op("gaussian_binomial", "series", "series.gaussian_binomial", n=n, k=k)
              for k in range(0, base + 1, 2)] for n in range(base, base + 4)]
        ))
    for size in (150, 300, 600):
        slots.append(pick(
            [[op("mul_int", "series", "series.mul_int", size=size, variant=v)] for v in range(6)], 2
        ))
        slots.append(pick(
            [[op("inverse_int", "series", "series.inverse_int", size=t)]
             for t in range(size - 4, size + 5)], 2
        ))
    pairs = [op("verify_pair", "bailey", "bailey.verify_pair", pair=["unit", rel], n_max=8, trunc=40)
             for rel in ("one", "q")]
    pairs += [op("verify_pair", "bailey", "bailey.verify_pair", pair=[rel, k, ell], n_max=8, trunc=40)
              for rel in ("one", "q") for k, ell in chain_params(3)]
    slots.append(fixed(pairs))
    slots.append(fixed(
        [op("limit_identity", "bailey", "bailey.limit_identity", pair=[rel, 1, 1], relative=rel,
            kind=kind, trunc=40) for rel in ("one", "q") for kind in ("gauss", "even")]
    ))
    for rel in ("one", "q"):
        slots.append(pick(
            [[op("verify_pair", "bailey", "bailey.verify_pair", pair=["synthetic", rel, s], n_max=6, trunc=40)]
             + [op("limit_identity", "bailey", "bailey.limit_identity", pair=["synthetic", rel, s],
                   relative=rel, kind=kind, trunc=40) for kind in ("gauss", "even")]
             for s in range(20)], 5
        ))
    slots.append(fixed(
        [op("family_series", "families", "families.family_series", j=j, k=1, ell=1, trunc=300)
         for j in FAMILIES]
    ))
    slots.append(fixed(
        [op("sigma_series", "families", "families.sigma_series", rep=rep, trunc=150)
         for rep in ("pochhammer", "alternating", "averaged", "indefinite")]
    ))
    slots.append(fixed(
        [op("verify_ag_relation", "agpolys", "agpolys.verify_ag_relation", k=k, ell=ell, b=b, n=n)
         for k in (2, 3) for ell in range(1, k + 1) for b in (0, 1) for n in range(0, 9)
         if not (b == 1 and n == 0)]
    ))
    return slots


# ------------------------------------------------ exact: lattice and cyclotomic

THETA_SHIFTS = (("1/5", "1/7"), ("1/6", "1/10"), ("2/7", "1/9"), ("1/8", "3/10"))
THETA_TWISTS = (("1/3", "1/11"), ("1/4", "1/5"), ("1/8", "3/7"), ("2/9", "1/6"))
CYC_ORDERS = {4: (5, 8, 10, 12), 8: (15, 16, 20, 24, 30), 16: (17, 32, 34, 40, 48, 60)}
QUANTUM_DENOMINATORS = (7, 9, 11, 13, 16, 17, 19, 23, 25, 29)


def _lattice_cyclotomic() -> list:
    slots = []
    for m in (3, 4, 5, 6):
        slots.append(pick(
            [[op("theta_series", "theta", "theta.indefinite_series", M=m, a=list(a), b=list(b), trunc=100)]
             for a in THETA_SHIFTS for b in THETA_TWISTS], 3
        ))
    for kind in ("rational", "cyclotomic"):
        slots.append(pick(
            [[op("mul_sparse", "series", "series.mul_sparse", kind=kind, variant=v)] for v in range(8)], 2
        ))
    slots.append(fixed(
        [op("theta_embedding", "theta", None, j=j, k=k, ell=ell, trunc=60)
         for j in FAMILIES for k, ell in chain_params(3)]
    ))
    slots.append(pick(
        [[op("negative_part", "families", None, M=m, ell=ell, trunc=60)]
         for m in range(3, 9) for ell in (1, 2)], 4
    ))
    slots.append(fixed(
        [op("validate_params", "theta", None, j=j, k=k, ell=ell)
         for j in FAMILIES for k, ell in chain_params(10)]
    ))
    # Cost grows steeply with N and depends on ell, so every (k, ell)
    # runs at fixed N.
    slots.append(fixed(
        [op("kz_duality", "families", "families.kz_duality", k=k, ell=ell, N=big_n)
         for k, big_ns in ((1, (12, 16, 20)), (2, (17, 20)), (3, (14, 16)))
         for big_n in big_ns for ell in range(1, k + 1)]
    ))
    for d in QUANTUM_DENOMINATORS:
        units = [p for p in range(1, d) if math.gcd(p, d) == 1]
        for j in FAMILIES:
            slots.append(pick(
                [[op("quantum_value", "maass", "maass.quantum_value", j=j, k=1, ell=1, x=f"{p}/{d}")]
                 for p in units]
            ))
    for degree, orders in CYC_ORDERS.items():
        slots.append(pick(
            [[op("cyc_mul", "cyclotomic", f"cyclotomic.mul.deg{degree}", order=n, variant=v)
              for v in range(30)]
             + [op("cyc_inverse", "cyclotomic", f"cyclotomic.inverse.deg{degree}", order=n, variant=v)
                for v in range(4)] for n in orders]
        ))
    return slots


# --------------------------------------------------------- numeric: float layer

RADIAL_GRID = ("1/3", "1/4", "1/5", "2/5")  # with k = ell = 1, for every family
RADIAL_EXTRA = ("1/6", "1/7", "2/7", "3/8")  # off the grid, for family 4
WAVE_TAUS = ((0.0, 1.0), (0.3, 0.8), (0.1, 1.1), (-0.2, 0.9))
COCYCLE_XS = ("1/5", "1/4", "1/3", "2/5", "2/7", "3/7", "3/8", "1/6")


def _numeric_eval() -> list:
    slots = [
        ("k0", 0.5, K0_SWITCH - 0.5, 80, "bessel.k0_small"),
        ("k0", K0_SWITCH + 0.5, 60.0, 80, "bessel.k0_large"),
        fixed([op("cohen_table", "maass", None, name="t5000", n_max=5000)]),
    ]
    # Horizontal line: K0 depends only on Im(tau), so its cache hits.
    slots.append(pick(
        [[op("eval_waveform", "maass", "maass.eval_waveform", check="waveform", table="t5000",
             tau=[x0 / 40 + i / 10, y0], n_cut=4900) for i in range(10)]
         for y0 in (0.30, 0.35, 0.40, 0.45) for x0 in range(4)]
    ))
    # Vertical line toward the real axis: fresh small K0 arguments.
    slots.append(pick(
        [[op("eval_waveform", "maass", "maass.eval_waveform", check="waveform", table="t5000",
             tau=[x1, y], n_cut=4900) for y in (0.4, 0.34, 0.28, 0.22, 0.17, 0.13, 0.1, 0.08)]
         for x1 in (0.11, 0.17, 0.23, 0.29)]
    ))
    slots.append(pick(
        [[op("cohen_residual", "maass", None, check="residual", tau=list(t), n_cut=2000)]
         for t in ((0.0, 1.0), (1 / 3, 0.5), (0.25, 0.7), (0.1, 0.9))], 2
    ))
    slots.append(fixed([op("cohen_table", "maass", None, name="t30000", n_max=30000)]))
    slots.append(pick(
        [[op("cocycle", "maass", "maass.cocycle", check="cocycle", table="t30000",
             gamma=[0, -1, 2, 0], x=x)] for x in COCYCLE_XS], 3
    ))
    for j in FAMILIES:
        for k, ell in ((1, 1), (2, 1), (2, 2)):
            slots.append(pick(
                [[op("waveform_numeric", "theta", "theta.waveform_numeric", check="waveform",
                     j=j, k=k, ell=ell, tau=list(t), lattice_cut=12)] for t in WAVE_TAUS]
            ))
    slots.append(fixed(
        [op("completion_defect", "theta", "theta.completion_defect", check="defect",
            j=j, k=k, ell=ell, tau=[0.0, 1.0], lattice_cut=10)
         for j in FAMILIES for k, ell in ((1, 1), (2, 1), (2, 2))]
    ))
    # The whole grid and every off-grid point run in each repetition (the
    # seed only orders them), so the known radial failures are the same
    # in every repetition whatever the seed.
    slots.append(fixed(
        [op("radial", "maass", "maass.radial", check="radial", j=j, k=1, ell=1, x=x)
         for j in FAMILIES for x in RADIAL_GRID]
        + [op("radial", "maass", "maass.radial", check="radial", j=4, k=1, ell=1, x=x) for x in RADIAL_EXTRA]
    ))
    return slots


# -------------------------------------------------------- numeric: command line


def cli_op(tag, argv, check="stdout"):
    # One suite thread: `verify all` on two threads is left out, because on
    # two vCPUs its time swings with the load on the second one.
    return op("cli", "cli", tag, check=check, argv=argv, threads=1)


def _cli() -> list:
    return [
        fixed([
            cli_op("cli.verify_all_serial", ["verify", "all"], check="cli-checks"),
            cli_op("cli.startup", ["verify", "params", "--kmax", "1"], check="cli-checks"),
            cli_op("cli.expand_f", ["expand", "f", "--j", "1", "--k", "2", "--l", "1", "--order", "400"]),
            cli_op("cli.eval_radial", ["eval", "radial", "--j", "1", "--k", "1", "--l", "1", "--x", "1/5"],
                   check="cli-radial"),
            cli_op("cli.eval_cocycle", ["eval", "cocycle", "--cohen", "--gamma", "0,-1,2,0",
                                        "--xs", "1/5,1/4,1/3"], check="cli-cocycle"),
            cli_op("cli.eval_waveform", ["eval", "waveform", "--cohen"], check="cli-waveform"),
        ]),
        pick([[cli_op("cli.expand_theta", ["expand", "s-theta", "--j", str(j), "--k", "1", "--l", "1"])]
              for j in FAMILIES]),
    ]


SLOTS = {
    "exact": lambda: _exact_series() + _lattice_cyclotomic(),
    "numeric": lambda: _numeric_eval() + _cli(),
}


def plan(workload: str, seed: int) -> list:
    """The operations of one repetition, as the seed generates them."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for slot in SLOTS[workload]():
        if slot[0] == "k0":
            _, lo, hi, count, tag = slot
            ops.extend(op("k0", "bessel", tag, check="k0", x=rng.uniform(lo, hi)) for _ in range(count))
            continue
        variants, count = slot
        for chosen in rng.sample(variants, count):
            ops.extend(chosen)
    return ops


def catalogue(workload: str) -> list:
    """Every operation some seed can generate, except the K0 draws."""
    seen = {}
    for slot in SLOTS[workload]():
        if slot[0] == "k0":
            continue
        for variant in slot[0]:
            for o in variant:
                seen.setdefault(key(o), o)
    return list(seen.values())
