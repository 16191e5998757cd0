"""Process runner and reductions shared by the benchmark's workloads.

Every CLI invocation is a fresh child process, started and reaped one at a
time (a closed loop with a single client). Its wall time is taken with
perf_counter around spawn and reap, and its peak memory from its own
rusage via os.wait4, so nothing outside our own processes is touched.
"""

import hashlib
import importlib.metadata
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

# BLAS and OpenMP pools are pinned to one thread: a child then uses one
# core, as in the single-process baseline of ROADMAP, and a shared
# two-core host adds less noise to its timing.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

INVOCATION_TIMEOUT_S = 120.0


class Result:
    """Outcome of one child process."""

    def __init__(self, wall_s, max_rss_mb, returncode, timed_out, stdout,
                 stderr):
        self.wall_s = wall_s
        self.max_rss_mb = max_rss_mb
        self.returncode = returncode
        self.timed_out = timed_out
        self.stdout = stdout
        self.stderr = stderr


def child_env(src_dir):
    """Environment for a child: this checkout's sources, pinned threads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RYDTRAP_CACHE_DIR")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(src_dir)
    return env


def run_child(argv, cwd, env):
    """Run argv to completion; time it and read its own max RSS."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0 and wall_s >= INVOCATION_TIMEOUT_S
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # Linux reports ru_maxrss in KiB
    return Result(wall_s, usage.ru_maxrss / 1024.0, proc.returncode,
                  timed_out, stdout, stderr)


# ---------------------------------------------------------------- reductions

def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reduce_spans(spans):
    """Calls, total and self time per span name.

    A span is (name, start, end, parent index or -1). Its self time is its
    duration minus the durations of its direct children, which nest inside
    it because the traced program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return stats


_IMPORTTIME_RE = re.compile(
    r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr):
    """Entries (depth, module, cumulative seconds) of -X importtime output."""
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME_RE.match(line)
        if match:
            _, cumulative, indent, name = match.groups()
            entries.append(((len(indent) - 1) // 2, name,
                            int(cumulative) / 1e6))
    return entries


def import_seconds(entries, module):
    """Cumulative import time of a module, 0 if it was never imported.

    A top-level package and its submodule both appear at depth 0 when the
    submodule is imported first thing (``import rydtrap.cli`` loads
    ``rydtrap`` and then ``rydtrap.cli``); both are counted.
    """
    package = module.split(".")[0]
    top = [s for depth, name, s in entries
           if depth == 0 and name in (package, module)]
    if module.startswith("rydtrap") and top:
        return sum(top)
    for _, name, seconds in entries:
        if name == module:
            return seconds
    return 0.0


# ---------------------------------------------------------------- provenance

def source_digest(src_dir):
    """sha256 of the package sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_rev(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def meta(root, src_dir):
    return {
        "git_rev": git_rev(root),
        "src_sha256": source_digest(src_dir),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": dict(THREAD_ENV),
        "platform": platform.platform(),
    }
