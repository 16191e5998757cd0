"""Tests of the benchmark itself: reductions, checks, failure counting, smoke.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload once at --seconds 1 (about two
minutes, and coherence-mc needs about 1.4 GB for one child).
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _result(stdout, returncode=0, stderr=""):
    return harness.Result(1.0, 10.0, returncode, False, stdout, stderr)


# ---------------------------------------------------------------- reductions

def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, q2, q3 = harness.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == 4.0
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert harness.quartiles([1.0, 2.0, 3.0, 10.0])[1] == 2.5


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("potential.ponderomotive_shift", 1.0, 4.0, 0),
        ("radial.radial_integral", 2.0, 3.0, 1),
        ("potential.ponderomotive_shift", 5.0, 9.0, 0),
        ("radial.radial_integral", 6.0, 6.5, 3),
    ]
    stats = harness.reduce_spans(spans)
    assert stats["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    shift = stats["potential.ponderomotive_shift"]
    assert shift["calls"] == 2
    assert shift["total_s"] == 7.0
    assert shift["self_s"] == pytest.approx(5.5)
    assert stats["radial.radial_integral"]["self_s"] == pytest.approx(1.5)


def test_importtime_cumulative_columns():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |        200 | _io",
        "import time:      1000 |      50000 |     scipy.special",
        "import time:      3000 |     400000 |   scipy.integrate",
        "import time:      4000 |     700000 | rydtrap",
        "import time:      1500 |      20000 | rydtrap.cli",
        "error: something else on stderr",
    ])
    entries = harness.parse_importtime(stderr)
    assert entries[1] == (2, "scipy.special", 0.05)
    assert harness.import_seconds(entries, "rydtrap.cli") \
        == pytest.approx(0.72)
    assert harness.import_seconds(entries, "scipy.integrate") == 0.4
    assert harness.import_seconds(entries, "scipy.optimize") == 0.0


# ---------------------------------------------------------------- checks

def _angular_envelope(terms):
    table = workloads.reference()["angular_table"]
    return {"data": {"rows": [dict(table[t], term=t) for t in terms]}}


def test_angular_table_check_rejects_a_changed_factor():
    terms = ["1D2", "3P2"]
    check = workloads._check_angular_table(terms)
    envelope = _angular_envelope(terms)
    assert check(envelope) == []
    envelope["data"]["rows"][0]["k2"] = "2/9"
    assert check(envelope)


def test_reference_anchor_check_uses_the_stated_tolerance():
    argv = workloads.forster_argv(70)
    data = json.loads(json.dumps(workloads.reference()["anchors"][
        workloads.reference_key(argv)]))
    check = workloads._matches_reference(argv)
    data["defect_mhz"] *= 1 + 0.1 * workloads.REFERENCE_RTOL
    assert check({"data": data}) == []
    data["defect_mhz"] *= 1 + 10 * workloads.REFERENCE_RTOL
    assert check({"data": data})


def test_pi_fit_check_needs_the_generating_rates_within_five_sigma():
    check = workloads._check_pi_fit(1e4, 4e5)
    good = {"gamma0_per_s": 1.01e4, "gamma0_sigma_per_s": 100.0,
            "gamma_pi_per_s_per_w": 4.1e5,
            "gamma_pi_sigma_per_s_per_w": 1e4}
    assert check({"data": good}) == []
    assert check({"data": dict(good, gamma0_per_s=1.06e4)})
    assert check({"data": dict(good, gamma_pi_sigma_per_s_per_w=0.0)})


def test_tensor_shift_check_needs_symmetry_and_zero_sum():
    check = workloads._check_tensor_shift(5)
    shifts = {"-2": 100.0, "-1": -50.0, "0": -100.0, "1": -50.0, "2": 100.0}
    assert check({"data": {"shifts_hz": shifts}}) == []
    assert check({"data": {"shifts_hz": dict(shifts, **{"2": 101.0})}})
    assert check({"data": {"shifts_hz": {k: v + 1.0
                                         for k, v in shifts.items()}}})


def test_contrast_check_needs_unit_start_and_range():
    scenario = {"dnu0_hz": 90e3, "temperature_k": 13e-6, "depth_hz": 2e6,
                "t1_s": 108e-6, "seed": 0}
    check = workloads._check_contrast(scenario, 3, ramsey=False)
    assert check({"data": {"contrast": [1.0, 0.5, 0.2]}}) == []
    assert check({"data": {"contrast": [0.98, 0.5, 0.2]}})
    assert check({"data": {"contrast": [1.0, 1.2, 0.2]}})
    assert check({"data": {"contrast": [1.0, 0.5]}})


def test_repeated_call_must_return_the_same_data():
    call = workloads.Call(["trap-depth"], lambda envelope: [], 1)
    seen = {}
    first = json.dumps({"data": {"rows": [{"n": 70, "depth_hz": 1.0}]}})
    drift = json.dumps({"data": {"rows": [{"n": 70, "depth_hz": 1.5}]}})
    assert run.check_output(call, _result(first), seen) == []
    assert run.check_output(call, _result(first), seen) == []
    assert run.check_output(call, _result(drift), seen)


def test_same_seed_gives_the_same_calls():
    for workload in workloads.WORKLOADS.values():
        a = [c.record() for c in workload.round(7)]
        b = [c.record() for c in workload.round(7)]
        c = [c.record() for c in workload.round(8)]
        assert a == b
        assert a != c
        assert sum(x["work"] for x in a) == sum(x["work"] for x in c)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------- failures

FAKE_CLI = """
import json, sys
mode = sys.argv[1]
if mode == "--version":
    print("rydtrap 0.0.0")
elif mode == "crash":
    sys.exit("error: boom")
elif mode == "garbage":
    print("{not json")
else:
    gap = 1e-6 if mode == "good" else 0.09
    print(json.dumps({"data": {"comparisons": [
        {"n": n, "tensor_hz": 1.0, "brute_hz": 1.0 + gap,
         "relative_difference": gap} for n in (40, 60)]}}))
"""


def test_wrong_or_corrupted_outputs_count_as_failed(tmp_path, monkeypatch):
    fake = tmp_path / "fake_cli.py"
    fake.write_text(FAKE_CLI)
    monkeypatch.setattr(run, "CLI", [sys.executable, str(fake)])
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    check = workloads._check_oracle([40, 60])
    fake_round = lambda rng: [workloads.Call([mode], check, 2)  # noqa: E731
                              for mode in ("good", "wrong", "garbage",
                                           "crash")]
    workload = workloads.Workload("fake", "states_per_s", fake_round)
    summary, failures = run.run_workload(workload, 1, 1, 0)
    assert summary["attempted"] == 4 * summary["rounds"] + run.SETUP_SAMPLES
    assert summary["failed"] == 3 * summary["rounds"]
    assert {tuple(f.call.argv) for f in failures} \
        == {("wrong",), ("garbage",), ("crash",)}
    assert summary["failed_frac"] == summary["failed"] / summary["attempted"]


# ---------------------------------------------------------------- whole runs

def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_each_workload(name):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = _bench("--workload", "quick-cli", "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _ in run.PER_LAYER]
    assert metrics["angular.angular_table.self_s"]["value"] > 0
    assert metrics["import.rydtrap_cli_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "quick-cli", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
