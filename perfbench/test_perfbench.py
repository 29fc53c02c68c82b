"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

import check
import run
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFS = check.load_references()


def first_ref(prefix: str) -> tuple[dict, str, dict]:
    for w in workloads.WORKLOADS:
        for o in workloads.catalogue(w):
            k = workloads.key(o)
            if k.startswith(prefix):
                return o, k, REFS[k]
    raise LookupError(prefix)


def test_checker_flags_corrupted_exact_value():
    o, _, ref = first_ref("family_series")
    assert check.judge(o, dict(ref), ref)[0] == "pass"
    corrupted = dict(ref, digest="0" * 32)
    assert check.judge(o, corrupted, ref)[0] == "wrong"


def test_checker_flags_numeric_value_outside_its_bound():
    o, _, ref = first_ref("eval_waveform")
    slack = ref["bound"] * 2 + check.TOLERANCE["waveform"] * (1 + max(map(abs, ref["nums"])))
    inside = dict(ref, nums=[ref["nums"][0] + slack / 4, ref["nums"][1]])
    outside = dict(ref, nums=[ref["nums"][0] + slack * 4, ref["nums"][1]])
    assert check.judge(o, inside, ref)[0] == "pass"
    assert check.judge(o, outside, ref)[0] == "new"


def test_known_failures_are_counted_not_excused():
    o, _, ref = first_ref('radial{"ell": 1, "j": 1, "k": 1, "x": "1/4"}')
    assert ref["status"] == "fail"
    assert check.judge(o, dict(ref), ref)[0] == "known"
    passing = first_ref('radial{"ell": 1, "j": 1, "k": 1, "x": "1/5"}')
    assert check.judge(passing[0], dict(passing[2], status="fail"), passing[2])[0] == "new"


@pytest.mark.parametrize("prefix", [
    'radial{"ell": 1, "j": 1, "k": 1, "x": "1/4"}',
    'completion_defect{"ell": 2, "j": 1, "k": 2,',
])
def test_failing_operation_with_a_changed_number_is_new(prefix):
    o, _, ref = first_ref(prefix)
    assert ref["status"] == "fail"
    corrupted = dict(ref, nums=[ref["nums"][0] * (1 + 1e-6) + 1e-6] + ref["nums"][1:])
    assert check.judge(o, corrupted, ref)[0] == "new"


def test_k0_is_checked_against_mpmath():
    o = workloads.op("k0", "bessel", check="k0", x=3.25)
    ref = check.reference_for(o, workloads.key(o), REFS)
    assert check.judge(o, {"nums": [ref["nums"][0] * (1 + 1e-13)], "status": "pass"}, ref)[0] == "pass"
    assert check.judge(o, {"nums": [ref["nums"][0] * (1 + 1e-9)], "status": "pass"}, ref)[0] == "new"


def test_worker_result_is_checked_end_to_end():
    o, _, ref = first_ref("family_series")
    other = dict(o, args=dict(o["args"], trunc=o["args"]["trunc"] - 1))
    got = run.spawn_worker([o, other], False, ROOT)["outcomes"]
    assert check.judge(o, got[0], ref)[0] == "pass"
    assert check.judge(o, got[1], ref)[0] == "wrong"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_with_a_fixed_size_mix(workload):
    a, b, c = (workloads.plan(workload, s) for s in (1, 1, 2))
    assert a == b
    assert a != c

    def mix(plan):
        return collections.Counter(
            (o["fn"], o["tag"], o["check"], round(o["args"].get("size", 0) / 50), o["args"].get("N"))
            for o in plan
        )

    assert len(a) == len(c)
    assert mix(a) == mix(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_failures_per_repetition_do_not_depend_on_the_seed(workload):
    def known(seed):
        return sorted(k for k in map(workloads.key, workloads.plan(workload, seed))
                      if REFS.get(k, {}).get("status", "pass") != "pass")

    assert all(known(seed) == known(0) for seed in range(1, 6))


def test_rescaling_follows_the_probe():
    ref = worker.REF_PROBE_S
    assert worker.rescaled([0.5, 0.25], [ref] * 3) == pytest.approx(0.75)
    # a machine running at half speed: the probe and the operations take twice as long
    assert worker.rescaled([1.0, 0.5], [2 * ref] * 3) == pytest.approx(0.75)
    # one probe an interrupt lengthened does not move the result
    assert worker.rescaled([0.1] * 4, [ref, ref, 9 * ref, ref, ref]) == pytest.approx(0.4)


@pytest.fixture(scope="module")
def qmaass_in_worker():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qmaass

    worker.Q = qmaass
    yield
    worker.Q = None
    sys.path.remove(os.path.join(ROOT, "src"))


def entered_module(o: dict) -> str:
    """The qmaass module the operation's call enters, read off the call itself."""
    call = worker.HANDLERS[o["fn"]](o["args"], {})
    if call.func is subprocess.run:
        name = call.args[0][2]  # python -m qmaass.cli ...
    else:
        name = call.func.__module__
    assert name.startswith("qmaass.")
    return name.removeprefix("qmaass.")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_calls_exactly_the_modules_it_stresses(workload, qmaass_in_worker):
    plan = workloads.plan(workload, 3)
    for o in plan:
        assert entered_module(o) == o["module"], o
    assert {o["module"] for o in plan} == set(workloads.STRESSED[workload])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_input_has_a_reference(workload):
    catalogued = {workloads.key(o) for o in workloads.catalogue(workload)}
    assert catalogued <= REFS.keys()
    for seed in range(5):
        for o in workloads.plan(workload, seed):
            assert o["check"] == "k0" or workloads.key(o) in catalogued


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "numeric", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
