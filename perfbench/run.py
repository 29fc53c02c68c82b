"""The qmaass benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The load model is a closed loop
with one client: each call is issued after the previous one returns.
Each repetition runs the workload's seeded plan in a fresh interpreter
(``worker.py``), so caches start cold as they do for every command-line
invocation and warm within the repetition as they do in a sweep.  The
number of repetitions depends only on the workload and ``--seconds``
(``REP_SECONDS`` is a repetition's nominal length), so every run of a
workload attempts the same operations whatever the machine's speed;
a traced run has at least two.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``wall_ref_s``, the wall time from issuing the first operation to the
return of the last, rescaled to the reference speed by a fixed probe run
between operations (``worker.speed_probe``); ``setup_s``, the time a
fresh interpreter takes to import ``qmaass``, rescaled the same way by
probes run right after the import; and ``peak_rss_mb``.  It also prints,
recorded but not gated, ``wall_s`` and ``setup_raw_s``, the same spans as
measured, ``cpu_s``, the CPU time of ``wall_s`` (own and waited-for
children, probes included; next to ``wall_s`` it shows time lost to
other tenants), and ``probe_s``, the probe's median time, which shows
the machine's speed.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, derived from one span per call, plus the tracing
overhead.

Every outcome is checked against ``references.json`` (see ``check.py``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its quartiles and sample count, and ``failed_frac``.  A
result file with the environment record, and for traced runs a span
file, go to ``perfbench/out/``.  The result file gives each repetition
its raw and rescaled times and the probe's median, so that machine drift
shows.  The exit code is 1 when a result is wrong or a check that passed
at the reference commit fails, and 2 when the checkout holds no
``qmaass`` sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

import check
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 10  # at least, spread evenly before the untraced repetitions
REP_SECONDS = {"exact": 8.0, "numeric": 20.0}  # a repetition's nominal length
WORKER_TIMEOUT_S = 170

MODULES = ("series", "agpolys", "families", "bailey", "theta", "cyclotomic", "bessel", "maass", "cli")

# Gated end-to-end metrics; wall_s, cpu_s and probe_s are printed and
# recorded but not gated.
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics.  Latency names end in .p50_ms/.p90_ms (percentile of
# the spans with that tag), _us (median span in microseconds) or, for the
# command-line calls, _s (median span in seconds).
PER_LAYER = {
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"{m}.busy_s": "s" for m in MODULES},
    "series.mul_int.p50_ms": "ms",
    "series.inverse_int.p50_ms": "ms",
    "series.mul_sparse.p50_ms": "ms",
    "series.pochhammer.p50_ms": "ms",
    "series.gaussian_binomial.p50_ms": "ms",
    "series.terms_out": "count",
    "bailey.verify_pair.p50_ms": "ms",
    "bailey.limit_identity.p50_ms": "ms",
    "bailey.limit_identity.p90_ms": "ms",
    "families.family_series.p50_ms": "ms",
    "families.family_series.p90_ms": "ms",
    "families.kz_duality.p50_ms": "ms",
    "agpolys.verify_ag_relation.p50_ms": "ms",
    **{f"cyclotomic.{kind}.deg{d}_us": "us" for kind in ("mul", "inverse") for d in (4, 8, 16)},
    "theta.indefinite_series.p50_ms": "ms",
    "theta.waveform_numeric.p50_ms": "ms",
    "theta.completion_defect.p50_ms": "ms",
    "bessel.k0_small_us": "us",
    "bessel.k0_large_us": "us",
    "bessel.k0_evals": "count",
    "bessel.k0_hit_ratio": "ratio",
    "maass.eval_waveform.p50_ms": "ms",
    "maass.radial.p50_ms": "ms",
    "maass.quantum_value.p50_ms": "ms",
    "maass.cocycle.p50_ms": "ms",
    "maass.radial_pass_ratio": "ratio",
    "cli.verify_all_serial_s": "s",
    "cli.startup_s": "s",
    "cli.expand_f_s": "s",
    "cli.eval_radial_s": "s",
    "cli.eval_cocycle_s": "s",
    "trace.overhead_frac": "ratio",
}


# ------------------------------------------------------------------ helpers


def quartiles(values: list) -> tuple:
    """(p25, median, p75); a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    p25, p50, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return p25, p50, p75


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def spawn_worker(ops: list, traced: bool, root: str) -> dict:
    """One repetition in a fresh interpreter; raises if the worker dies."""
    proc = subprocess.run(
        [sys.executable, WORKER], input=json.dumps({"ops": ops, "traced": traced}),
        capture_output=True, text=True, cwd=root, env=child_env(root), timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def import_time(root: str) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to finish ``import qmaass``, as
    measured and rescaled to the reference speed by speed probes run in
    the same interpreter right after the import."""
    code = (
        "import time; t = time.perf_counter(); import qmaass; took = time.perf_counter() - t\n"
        "import statistics, sys; sys.path.insert(0, sys.argv[1]); import worker\n"
        "probe = statistics.median(worker.speed_probe() for _ in range(5))\n"
        "print(took, took * worker.REF_PROBE_S / probe)"
    )
    proc = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                          cwd=root, env=child_env(root), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import qmaass failed: {proc.stderr.strip()[-2000:]}")
    took, rescaled = map(float, proc.stdout.split())
    return took, rescaled


def environment(root: str, workload: str, seed: int, seconds: int) -> dict:
    src = os.path.join(root, "src")
    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs if f.endswith(".py")
    )
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "mpmath")},
        "commit": commit,
        "src_lines": lines,
        "probe_s": statistics.median(worker.speed_probe() for _ in range(25)),
    }


# ------------------------------------------------------------------ metrics


def layer_metrics(plan: list, reps: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced repetitions, and the names that do
    not apply to this workload (reported as 0)."""
    traced = [r for r in reps if r["spans"] is not None]
    untraced = [r for r in reps if r["spans"] is None]
    by_tag: dict[str, list] = {}
    per_rep: dict[str, list] = {}

    def add(name, value):
        per_rep.setdefault(name, []).append(value)

    for r in traced:
        busy = dict.fromkeys(MODULES, 0.0)
        calls = dict.fromkeys(MODULES, 0)
        terms = 0
        radial = []
        for o, (start, end), got in zip(plan, r["spans"], r["outcomes"]):
            busy[o["module"]] += end - start
            calls[o["module"]] += 1
            if o["tag"]:
                by_tag.setdefault(o["tag"], []).append(end - start)
            if o["module"] == "series":
                terms += got.get("terms", 0)
            if o["tag"] == "maass.radial":
                radial.append(got.get("status") == "pass")
        for m in MODULES:
            if calls[m]:
                add(f"{m}.calls", calls[m])
                add(f"{m}.busy_s", busy[m])
        if terms:
            add("series.terms_out", terms)
        if radial:
            add("maass.radial_pass_ratio", sum(radial) / len(radial))
        k0 = r["k0_cache"]
        if k0 and k0["hits"] + k0["misses"]:
            add("bessel.k0_evals", k0["misses"])
            add("bessel.k0_hit_ratio", k0["hits"] / (k0["hits"] + k0["misses"]))

    values = {name: statistics.median(v) for name, v in per_rep.items()}
    for name in PER_LAYER:
        if name in values:
            continue
        for suffix, pct, scale in ((".p50_ms", 50, 1e3), (".p90_ms", 90, 1e3), ("_us", 50, 1e6), ("_s", 50, 1.0)):
            tag = name[: -len(suffix)]
            if name.endswith(suffix) and tag in by_tag:
                values[name] = percentile(by_tag[tag], pct) * scale
                break
    if traced and untraced:
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_ref_s"] for r in traced)
            / statistics.median(r["wall_ref_s"] for r in untraced) - 1
        )
    missing = [name for name in PER_LAYER if name not in values]
    values.update(dict.fromkeys(missing, 0.0))
    return values, missing


def write_spans(path: str, plan: list, reps: list, run_id: str) -> None:
    """One JSON line per span; each repetition's root span is the parent."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, r in enumerate(reps):
            if r["spans"] is None:
                continue
            rep_id = f"{run_id}:rep{i}"
            root = {"span_id": rep_id, "parent_id": None, "run_id": run_id, "name": "repetition",
                    "module": "perfbench", "start": 0.0, "end": r["spans"][-1][1]}
            fh.write(json.dumps(root) + "\n")
            for n, (o, (start, end)) in enumerate(zip(plan, r["spans"])):
                span = {"span_id": f"{rep_id}:{n}", "parent_id": rep_id, "run_id": run_id,
                        "name": o["fn"], "module": o["module"], "tag": o["tag"],
                        "start": start, "end": end}
                fh.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qmaass", "__init__.py")):
        print("perfbench: no qmaass sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    refs = check.load_references()
    plan = workloads.plan(args.workload, args.seed)
    keys = [workloads.key(o) for o in plan]
    expected = [check.reference_for(o, k, refs) for o, k in zip(plan, keys)]
    env = environment(root, args.workload, args.seed, args.seconds)
    reps, setup = [], []
    counts = {"pass": 0, "known": 0, "new": 0, "wrong": 0}
    failures = []
    n_reps = max(2 if args.trace else 1, round(args.seconds / REP_SECONDS[args.workload]))
    while len(reps) < n_reps:
        if not args.trace:  # spread the import probes over the run
            setup.extend(import_time(root) for _ in range(-(-SETUP_PROBES // n_reps)))
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = spawn_worker(plan, traced, root)
        for o, k, got, ref in zip(plan, keys, rep["outcomes"], expected):
            verdict, reason = check.judge(o, got, ref)
            counts[verdict] += 1
            if verdict != "pass" and len(failures) < 50:
                failures.append({"rep": len(reps), "op": k, "verdict": verdict, "reason": reason})
        reps.append(rep)

    attempted = sum(counts.values())
    failed = attempted - counts["pass"]
    correct = counts["new"] == 0 and counts["wrong"] == 0
    untraced = [r for r in reps if r["spans"] is None]
    samples = {
        "wall_ref_s": [r["wall_ref_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "cpu_s": [r["cpu_s"] for r in untraced],
        "probe_s": [r["probe_s"] for r in untraced],
        "setup_s": [rescaled for _, rescaled in setup],
        "setup_raw_s": [took for took, _ in setup],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in untraced],
    }
    summary = {}
    if args.trace:
        values, not_applicable = layer_metrics(plan, reps)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        not_applicable = []
        for name, values in samples.items():
            p25, p50, p75 = quartiles(values)
            unit = "MB" if name == "peak_rss_mb" else "s"
            summary[name] = {"median": p50, "p25": p25, "p75": p75, "n": len(values), "unit": unit}
        metrics = {name: {"value": summary[name]["median"], "unit": unit} for name, unit in END_TO_END.items()}

    n_traced = sum(r["spans"] is not None for r in reps)
    print(f"workload {args.workload}  seed {args.seed}  {len(reps)} repetitions ({n_traced} traced), "
          f"{len(plan)} operations each")
    for name, s in summary.items():
        print(f"{name:<14} {s['median']:.6g} {s['unit']}  p25 {s['p25']:.6g}  p75 {s['p75']:.6g}  n={s['n']}")
    for name, m in metrics.items():
        if name not in summary:
            shown = "n/a" if name in not_applicable else f"{m['value']:.6g}"
            print(f"{name:<34} {shown} {m['unit']}")
    print(f"failed_frac    {failed / attempted:.6g} ratio  failed {failed} / attempted {attempted}  "
          f"(known {counts['known']}, new {counts['new']}, wrong exact {counts['wrong']})")
    for f in failures[:10]:
        print(f"  {f['verdict']}: {f['op']}: {f['reason']}")

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(os.path.join(OUT, stem + ".spans.jsonl"), plan, reps, stem)
    with open(os.path.join(OUT, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({
            "environment": env,
            "metrics": metrics,
            "summary": summary,
            "not_applicable": not_applicable,
            "failed_frac": failed / attempted,
            "counts": counts,
            "failures": failures,
            "repetitions": [{"traced": r["spans"] is not None, "wall_ref_s": r["wall_ref_s"],
                             "wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "probe_s": r["probe_s"],
                             "import_s": r["import_s"], "maxrss_kb": r["maxrss_kb"]} for r in reps],
        }, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
