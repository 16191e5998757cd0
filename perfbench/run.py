"""Benchmark of the rydtrap CLI as users run it: a fresh process per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is quick-cli, trap-scan, coherence-mc, oracle-check, or all. A run
makes one discarded warm-up call, times SETUP_SAMPLES fresh `--version`
calls (trace 0 only), then repeats the workload's seeded round of CLI
calls, one child process at a time, while another round still fits in S
seconds. Every output is checked. With --trace 0 the last stdout line
holds the end-to-end metrics. With --trace 1 each call runs untraced and
then under perfbench/traced.py, and the line holds the per-layer metrics.
The seed, the generated argv and files, every timing and the provenance
go to perfbench/.work/records/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

CLI = [sys.executable, "-m", "rydtrap.cli"]
TRACED = [sys.executable, "-X", "importtime", str(HERE / "traced.py"),
          "spans.json", "--"]
SETUP_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_FUNCS = (
    "beam.decompose", "beam.brute_force_average",
    "radial.hydrogen_radial", "radial.radial_integral",
    "radial.interpolated_reduced_element", "radial.numerov_radial",
    "angular.angular_factor", "potential.ponderomotive_shift",
)
SELF_ONLY = (
    "beam.TensorField.from_json", "beam.TensorField.to_json",
    "angular.angular_table", "spectroscopy.fit_ritz",
    "spectroscopy.fit_threshold", "loss.fit_photoionization", "cli.main",
)
MONTE_CARLO = ("coherence.ramsey_contrast", "coherence.echo_contrast")
IMPORTS = (("rydtrap_cli", "rydtrap.cli"),
           ("scipy_integrate", "scipy.integrate"),
           ("scipy_constants", "scipy.constants"),
           ("scipy_optimize", "scipy.optimize"),
           ("scipy_special", "scipy.special"))


def _per_layer_units():
    units = [("import.%s_s" % label, "s") for label, _ in IMPORTS]
    for name in LAYER_FUNCS:
        units += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name in ("beam.decompose", "beam.brute_force_average"):
            units.append((name + ".node_evals", "count"))
    units += [(name + ".self_s", "s") for name in SELF_ONLY]
    for name in MONTE_CARLO:
        units += [(name + ".self_s", "s"), (name + ".traced_peak_mb", "MB"),
                  (name + ".computed_bytes", "B")]
    units += [("cli.field_cache.hits", "count"),
              ("cli.field_cache.misses", "count"),
              ("cli.field_cache.bytes_written", "B"),
              ("radial.element_memo.hit_ratio", "ratio"),
              ("trace.overhead_s", "s")]
    return tuple(units)


PER_LAYER = _per_layer_units()
MB = float(2 ** 20)


class Invocation:
    """One call's outcome: timing, memory, cache effect and problems."""

    def __init__(self, call, result, cache_files, problems, traced=None):
        self.call = call
        self.wall_s = result.wall_s
        self.max_rss_mb = result.max_rss_mb
        self.returncode = result.returncode
        self.cache_files = cache_files      # {name: bytes} written by it
        self.problems = problems
        self.traced = traced                # spans and import times
        self.cache = None                   # "hit" or "miss" (cache users)

    @property
    def ok(self):
        return not self.problems

    def record(self):
        rec = self.call.record()
        rec.update(wall_s=self.wall_s, max_rss_mb=self.max_rss_mb,
                   returncode=self.returncode, cache=self.cache,
                   cache_files=self.cache_files, problems=self.problems)
        if self.traced:
            rec["layers"] = harness.reduce_spans(
                [s[:4] for s in self.traced["spans"]])
            rec["missing_shims"] = self.traced["missing"]
        return rec


def check_output(call, result, seen):
    """Problems with one call's result; [] when it is correct.

    seen maps argv to the data of its first run in the round: a repeated
    call (a disk-cache hit in trap-scan) must return exactly that data.
    """
    if result.timed_out:
        return ["timed out"]
    if result.returncode != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return ["exit code %d: %s" % (result.returncode, tail[0])]
    try:
        envelope = json.loads(result.stdout)
        problems = call.check(envelope)
        data = envelope["data"]
    except Exception as exc:  # any malformed output is a failed call
        return ["malformed output: %s: %s" % (type(exc).__name__, exc)]
    key = tuple(call.argv)
    if key in seen:
        if data != seen[key]:
            problems.append("data differs from the first run of this call")
    else:
        seen[key] = data
    return problems


def _listing(directory):
    if not directory.is_dir():
        return {}
    return {p.name: p.stat().st_size for p in directory.iterdir()}


def run_round(calls, round_dir, env, uses_cache, modes=(False,)):
    """Run one round's calls in order, each in a fresh child process.

    Returns one list of Invocations per mode. With modes (False, True)
    every call runs untraced and then traced, back to back, so both see
    about the same machine state; each mode has its own cache directory
    and so the same hit/miss pattern.
    """
    lanes = []
    for traced in modes:
        lane_dir = round_dir / ("traced" if traced else "plain")
        cache_dir = lane_dir / "cache" if uses_cache else None
        lane_env = dict(env, RYDTRAP_CACHE_DIR=str(cache_dir)) \
            if cache_dir else env
        lanes.append((traced, lane_dir, cache_dir, lane_env, {}, []))
    for i, call in enumerate(calls):
        for traced, lane_dir, cache_dir, lane_env, seen, out in lanes:
            call_dir = lane_dir / ("call%02d" % i)
            call_dir.mkdir(parents=True)
            for name, text in call.files.items():
                (call_dir / name).write_text(text)
            before = _listing(cache_dir) if cache_dir else {}
            prefix = TRACED if traced else CLI
            result = harness.run_child(prefix + call.argv, str(call_dir),
                                       lane_env)
            after = _listing(cache_dir) if cache_dir else {}
            written = {k: v for k, v in after.items() if k not in before}
            problems = check_output(call, result, seen)
            trace = None
            if traced:
                trace = _read_trace(call_dir, result)
                if trace is None and not problems:
                    problems = ["traced.py wrote no spans"]
            out.append(Invocation(call, result, written, problems, trace))
    for _, _, cache_dir, _, _, out in lanes:
        if cache_dir:
            _classify_cache(out)
    return [lane[-1] for lane in lanes]


def _classify_cache(invocations):
    """Miss: the call wrote a cache file. Hit: it wrote none, but an
    earlier run of the same argv in this round did."""
    stored = set()
    for inv in invocations:
        key = tuple(inv.call.argv)
        if inv.cache_files:
            inv.cache = "miss"
            stored.add(key)
        elif key in stored:
            inv.cache = "hit"


def _read_trace(call_dir, result):
    try:
        with open(call_dir / "spans.json") as fh:
            trace = json.load(fh)
    except (OSError, ValueError):
        return None
    trace["imports"] = harness.parse_importtime(result.stderr)
    return trace


# ---------------------------------------------------------------- metrics

def end_to_end(setup, rounds):
    calls = [inv for rnd in rounds for inv in rnd]
    return {
        "setup_s": statistics.median([r.wall_s for r in setup]),
        "wall_s": statistics.median([sum(i.wall_s for i in r)
                                     for r in rounds]),
        "cmd_p50_s": statistics.median([inv.wall_s for inv in calls]),
        "peak_rss_mb": max(inv.max_rss_mb for inv in calls),
    }


def throughput(rounds):
    """Work of the correct calls per second of their summed wall time."""
    calls = [inv for rnd in rounds for inv in rnd]
    return sum(i.call.work for i in calls if i.ok) \
        / sum(i.wall_s for i in calls)


def round_layers(invocations):
    """Per-layer metrics of one traced round, summed over its calls."""
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    lookups = misses = 0
    imports = {label: [] for label, _ in IMPORTS}
    for inv in invocations:
        trace = inv.traced
        if trace is None:
            continue
        spans = trace["spans"]
        stats = harness.reduce_spans([s[:4] for s in spans])
        for name, entry in stats.items():
            if name + ".calls" in values:
                values[name + ".calls"] += entry["calls"]
            if name + ".self_s" in values:
                values[name + ".self_s"] += entry["self_s"]
        for name, _, _, _, extra in spans:
            if name + ".node_evals" in values:
                values[name + ".node_evals"] += extra.get("points", 0)
            if name in MONTE_CARLO:
                key = name + ".traced_peak_mb"
                values[key] = max(values[key],
                                  extra["traced_peak_bytes"] / MB)
                key = name + ".computed_bytes"
                values[key] = max(values[key], extra["computed_bytes"])
        lookups += trace["counts"]["radial.element_memo.lookups"]
        misses += trace["counts"]["radial.element_memo.misses"]
        for label, module in IMPORTS:
            imports[label].append(harness.import_seconds(trace["imports"],
                                                         module))
        values["cli.field_cache.bytes_written"] += \
            sum(inv.cache_files.values())
        if inv.cache == "hit":
            values["cli.field_cache.hits"] += 1
        elif inv.cache == "miss":
            values["cli.field_cache.misses"] += 1
    if lookups:
        values["radial.element_memo.hit_ratio"] = (lookups - misses) / lookups
    for label, seconds in imports.items():
        if seconds:
            values["import.%s_s" % label] = statistics.median(seconds)
    return values


def per_layer(pairs):
    per_round = [round_layers(traced) for _, traced in pairs]
    values = {name: statistics.median([r[name] for r in per_round])
              for name, _ in PER_LAYER}
    values["trace.overhead_s"] = statistics.median(
        [sum(i.wall_s for i in t) - sum(i.wall_s for i in u)
         for u, t in pairs])
    return values


# ---------------------------------------------------------------- runs

def _timed_setup(run_dir, env):
    """Fresh `--version` calls: import plus parser build."""
    results = []
    for i in range(SETUP_SAMPLES):
        call_dir = run_dir / ("setup%d" % i)
        call_dir.mkdir()
        results.append(harness.run_child(CLI + ["--version"],
                                         str(call_dir), env))
    return results


def run_workload(workload, seed, seconds, trace):
    run_dir = WORK / ("run-%s-%d-%d-%d" % (workload.name, seed, trace,
                                           os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        calls = workload.round(seed)
        env = harness.child_env(SRC)
        (run_dir / "warmup").mkdir()
        # discarded: absorbs .pyc compilation and first file reads
        harness.run_child(CLI + ["--version"], str(run_dir / "warmup"), env)
        setup = [] if trace else _timed_setup(run_dir, env)
        modes = (False, True) if trace else (False,)
        pairs = []
        start = time.perf_counter()
        while True:
            begin = time.perf_counter()
            pairs.append(run_round(calls, run_dir / ("round%02d" % len(pairs)),
                                   env, workload.uses_cache, modes))
            end = time.perf_counter()
            # another round only if one as long as this one still ends
            # within --seconds, so a run never overshoots by a round
            if end + (end - begin) - start > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rounds = [pair[0] for pair in pairs]

    invocations = [inv for pair in pairs for rnd in pair for inv in rnd]
    setup_failed = [r for r in setup
                    if r.returncode != 0 or not r.stdout.startswith("rydtrap")]
    attempted = len(invocations) + len(setup)
    failed = sum(not inv.ok for inv in invocations) + len(setup_failed)
    if trace:
        metrics = per_layer(pairs)
        units = PER_LAYER
    else:
        metrics = end_to_end(setup, rounds)
        units = END_TO_END
    cache = [inv.cache for rnd in rounds for inv in rnd if inv.cache]
    summary = {
        "workload": workload.name, "seed": seed,
        "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "calls_per_round": len(calls),
        "setup_samples": len(setup), "cmd_samples": sum(map(len, rounds)),
        "setup_quartiles_s": harness.quartiles([r.wall_s for r in setup])
        if setup else None,
        "cmd_quartiles_s": harness.quartiles(
            [inv.wall_s for rnd in rounds for inv in rnd]),
        # fixed work per round makes this a multiple of 1/wall_s, so it is
        # recorded but not one of the compared metrics
        "throughput": {workload.throughput: throughput(rounds)},
        "cache_hit_share": cache.count("hit") / len(cache) if cache else None,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }
    record = dict(summary, meta=harness.meta(ROOT, SRC / "rydtrap"),
                  setup_wall_s=[r.wall_s for r in setup],
                  rounds_detail=[[inv.record() for inv in rnd]
                                 for pair in pairs for rnd in pair])
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / ("%s-seed%d-trace%d.json" % (workload.name, seed, trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    summary["record"] = os.path.relpath(path, ROOT)
    return summary, [inv for inv in invocations if not inv.ok]


def print_summary(summary, failures):
    print("== %s  seed=%d  trace=%d  rounds=%d x %d calls  record=%s"
          % (summary["workload"], summary["seed"], summary["trace"],
             summary["rounds"], summary["calls_per_round"],
             summary["record"]))
    for name, entry in summary["metrics"].items():
        print("  %-44s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print("  %-44s %14.6g (%d of %d)" % ("failed_frac", summary["failed_frac"],
                                         summary["failed"],
                                         summary["attempted"]))
    if summary["cache_hit_share"] is not None:
        print("  %-44s %14.6g" % ("cache_hit_share",
                                   summary["cache_hit_share"]))
    for name, value in summary["throughput"].items():
        print("  %-44s %14.6g 1/s" % (name, value))
    print("  samples: setup %d, cmd %d" % (summary["setup_samples"],
                                          summary["cmd_samples"]))
    for inv in failures[:10]:
        print("  FAILED %s: %s" % (" ".join(inv.call.argv),
                                   "; ".join(inv.problems)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rydtrap" / "cli.py").is_file():
        print("error: no rydtrap sources at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))      # for the analytic Ramsey check
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    summaries = []
    for name in names:
        summary, failures = run_workload(workloads.WORKLOADS[name], args.seed,
                                         args.seconds, args.trace)
        print_summary(summary, failures)
        summaries.append(summary)
    metrics = {}
    for s in summaries:
        for name, entry in s["metrics"].items():
            key = name if len(summaries) == 1 else "%s.%s" % (s["workload"],
                                                             name)
            metrics[key] = entry
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
