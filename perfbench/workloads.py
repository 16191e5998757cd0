"""The four seeded workloads: the CLI calls of one round and their checks.

A round has a fixed command structure per workload; the seed only draws
values inside fixed bands, so the work per round is about the same for
every seed. Each call carries a check that returns a list of problems
with the parsed JSON envelope; an empty list means the output is right.
"""

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# quick-cli outputs are compared with data that record_reference.py recorded
# at commit 3878718, to this relative tolerance; the exact-rational angular
# factors compare exactly
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12

N_ATOMS = 100000
ORACLE_BOUND = 5e-3          # relative tensor/quadrature gap of test_02
CONTRAST_TOL = 1e-12

@functools.cache
def reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class Call:
    """One CLI invocation: argv after ``rydtrap``, input files, check, work."""

    def __init__(self, argv, check, work, files=None):
        self.argv = list(argv)
        self.check = check
        self.work = work
        self.files = dict(files or {})

    def record(self):
        return {"argv": self.argv, "files": self.files, "work": self.work}


class Workload:
    def __init__(self, name, throughput, make_round, uses_cache=False):
        self.name = name
        self.throughput = throughput    # name of work per second
        self.make_round = make_round
        self.uses_cache = uses_cache

    def round(self, seed):
        """The calls of one round; the same seed gives the same calls."""
        return self.make_round(random.Random("%s:%d" % (self.name, seed)))


# ---------------------------------------------------------------- helpers

def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _close(a, b):
    """Recursive comparison of JSON data at the reference tolerance."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REFERENCE_RTOL,
                            abs_tol=REFERENCE_ATOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def reference_key(argv):
    return " ".join(argv)


def _matches_reference(argv):
    def check(envelope):
        expected = reference()["anchors"].get(reference_key(argv))
        if expected is None:
            return ["no reference data for %r" % reference_key(argv)]
        if not _close(envelope["data"], expected):
            return ["data differs from the reference beyond rtol %g"
                    % REFERENCE_RTOL]
        return []
    return check


# ---------------------------------------------------------------- quick-cli

TABLE_TERMS = ("2S1/2", "2P1/2", "2P3/2", "2D3/2", "2D5/2", "1S0", "3S1",
               "1P1", "3P0", "3P1", "3P2", "1D2", "3D1", "3D2", "3D3")

# anchor bands of the quick-cli commands; reference.json holds the data of
# every anchor in them (see record_reference.py)
RITZ_STARTS = range(30, 41)            # --range a:a+40
THRESHOLD_STARTS = range(55, 66)       # --range a:a+20
FORSTER_N = range(60, 91)              # n 3S1 + n 3S1 -> n 3P2 + n-1 3P2
AUTOION_N = range(60, 91)
AUTOION_POWERS_MW = (6, 9, 12)

PI_FIT_POWERS_MW = (1, 3, 5, 7, 9, 11, 13, 15)
PI_FIT_REL_NOISE = 0.015


def quick_anchor_argvs():
    """argv of every reference-checked anchor, for record_reference.py."""
    argvs = [ritz_argv(a) for a in RITZ_STARTS]
    argvs += [threshold_argv(a) for a in THRESHOLD_STARTS]
    argvs += [forster_argv(n) for n in FORSTER_N]
    argvs += [autoion_argv(p, n) for p in AUTOION_POWERS_MW for n in AUTOION_N]
    return argvs


def ritz_argv(start):
    return ["ritz-fit", "--range", "%d:%d" % (start, start + 40)]


def threshold_argv(start):
    return ["threshold-fit", "--range", "%d:%d" % (start, start + 20)]


def forster_argv(n):
    return ["forster", "--channel",
            "%d 3S1 + %d 3S1 -> %d 3P2 + %d 3P2" % (n, n, n, n - 1)]


def autoion_argv(power_mw, n):
    return ["autoion", "--power", "%dmW" % power_mw, "--n", str(n)]


def _check_angular_table(terms):
    def check(envelope):
        rows = envelope["data"]["rows"]
        table = reference()["angular_table"]
        if [r["term"] for r in rows] != list(terms):
            return ["angular-table rows are not the requested terms"]
        problems = []
        for row in rows:
            want = table[row["term"]]
            for key in ("M", "k0", "k2", "k4"):
                if Fraction(row[key]) != Fraction(want[key]):
                    problems.append("%s %s = %s, reference %s"
                                    % (row["term"], key, row[key], want[key]))
        return problems
    return check


def pi_fit_csv(rng):
    """Lifetimes from known rates plus seeded noise; returns csv, G0, Gpi."""
    gamma0 = rng.uniform(8e3, 1.2e4)          # 1/s
    gamma_pi = rng.uniform(2e5, 6e5)          # 1/(s W)
    lines = ["power_mw,lifetime_us,sigma_us"]
    for p_mw in PI_FIT_POWERS_MW:
        tau_us = 1e6 / (gamma0 + gamma_pi * p_mw * 1e-3)
        sigma_us = PI_FIT_REL_NOISE * tau_us
        lines.append("%g,%.9g,%.9g" % (p_mw, tau_us + rng.gauss(0.0, sigma_us),
                                       sigma_us))
    return "\n".join(lines) + "\n", gamma0, gamma_pi


def _check_pi_fit(gamma0, gamma_pi):
    def check(envelope):
        data = envelope["data"]
        problems = []
        for key, truth in (("gamma0", gamma0),
                           ("gamma_pi", gamma_pi)):
            suffix = "_per_s" if key == "gamma0" else "_per_s_per_w"
            value = data[key + suffix]
            sigma = data[key + "_sigma" + suffix]
            if not (_finite([value, sigma]) and sigma > 0):
                problems.append("%s or its sigma is not finite" % key)
            elif abs(value - truth) > 5.0 * sigma:
                problems.append("%s = %g misses the generating %g by more "
                                "than 5 sigma (%g)"
                                % (key, value, truth, sigma))
        return problems
    return check


def quick_cli_round(rng):
    terms = rng.sample(TABLE_TERMS, 10)
    csv_text, gamma0, gamma_pi = pi_fit_csv(rng)
    argvs = [ritz_argv(rng.choice(RITZ_STARTS)),
             threshold_argv(rng.choice(THRESHOLD_STARTS)),
             forster_argv(rng.choice(FORSTER_N)),
             autoion_argv(rng.choice(AUTOION_POWERS_MW),
                          rng.choice(AUTOION_N))]
    calls = [Call(["angular-table", "--format", "json", "--terms"] + terms,
                  _check_angular_table(terms), 1)]
    calls += [Call(argv, _matches_reference(argv), 1) for argv in argvs]
    calls.append(Call(["pi-fit", "--input", "lifetimes.csv",
                       "--at-power", "9mW"],
                      _check_pi_fit(gamma0, gamma_pi), 1,
                      files={"lifetimes.csv": csv_text}))
    return calls


# ---------------------------------------------------------------- trap-scan

def _check_rows(n_values, keys, n_key):
    def check(envelope):
        rows = envelope["data"]["rows"]
        if len(rows) != len(n_values):
            return ["%d rows, requested %d" % (len(rows), len(n_values))]
        if [r[n_key] for r in rows] != list(n_values):
            return ["rows do not follow the requested n range"]
        if not all(_finite([r[k] for k in keys]) for r in rows):
            return ["non-finite value in rows"]
        return []
    return check


def _check_tensor_shift(n_levels):
    def check(envelope):
        shifts = {Fraction(m): v
                  for m, v in envelope["data"]["shifts_hz"].items()}
        if len(shifts) != n_levels:
            return ["%d M levels, expected %d" % (len(shifts), n_levels)]
        if not _finite(shifts.values()):
            return ["non-finite shift"]
        scale = max(abs(v) for v in shifts.values()) + 1e-6
        problems = []
        for m, v in shifts.items():
            if abs(v - shifts.get(-m, math.inf)) > 1e-9 * scale:
                problems.append("shift(M=%s) != shift(M=%s)" % (m, -m))
        if abs(sum(shifts.values())) > 1e-9 * scale * n_levels:
            problems.append("shifts do not sum to zero")
        return problems
    return check


DEPTH_KEYS = ("n_star", "u_core_hz", "u_pond_hz", "u_total_hz", "depth_hz",
              "ratio_to_ground")
MAGIC_KEYS = ("n_star_a", "n_star_b", "differential_hz")
RANGE_LENGTH = 57     # trap-depth --n-min a --n-max a+56
MAGIC_LENGTH = 11     # magic-scan --n-range a:a+10


def trap_scan_round(rng):
    """Four distinct calls, each made twice in a seeded order.

    Each call draws its own power, so the four field keys (beam, n_max,
    k_max) differ: the first call of a key misses the disk cache and the
    second hits it. Every n_max stays below 98, where the CLI's radial grid
    has a fixed 4000 points, so decompose costs the same for every seed.
    """
    powers = rng.sample(range(600, 1201), 4)      # 10 uW steps, 6..12 mW

    def power(i):
        return "%.2fmW" % (powers[i] / 100.0)

    n_single = rng.randint(60, 90)
    range_lo = rng.randint(30, 40)
    tensor_n = rng.randint(60, 90)
    tensor_series = rng.choice(("3P2", "1D2"))
    axis_angle = rng.randint(0, 90)
    magic_lo = rng.randint(60, 85)
    n_range = list(range(range_lo, range_lo + RANGE_LENGTH))
    magic_range = list(range(magic_lo, magic_lo + MAGIC_LENGTH))
    distinct = [
        Call(["trap-depth", "--format", "json", "--power", power(0),
              "--n", str(n_single)],
             _check_rows([n_single], DEPTH_KEYS, "n"), 1),
        Call(["trap-depth", "--format", "json", "--power", power(1),
              "--n-min", str(n_range[0]), "--n-max", str(n_range[-1])],
             _check_rows(n_range, DEPTH_KEYS, "n"), RANGE_LENGTH),
        Call(["tensor-shift", "--format", "json", "--power", power(2),
              "--n", str(tensor_n), "--series", tensor_series,
              "--axis-angle", "%ddeg" % axis_angle],
             _check_tensor_shift(5), 5),
        Call(["magic-scan", "--format", "json", "--power", power(3),
              "--n-range", "%d:%d" % (magic_range[0], magic_range[-1])],
             _check_rows(magic_range, MAGIC_KEYS, "n_a"), MAGIC_LENGTH),
    ]
    calls = distinct + distinct
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------- coherence-mc

# (scenario key, CLI flag, unit, scale of the unit, centre of the band);
# each value is drawn within +-10% of the centre
SCENARIO_BANDS = (("dnu0_hz", "--dnu", "kHz", 1e3, 90.0),
                  ("temperature_k", "--temp", "uK", 1e-6, 13.0),
                  ("depth_hz", "--depth", "MHz", 1e6, 2.0),
                  ("t1_s", "--t1", "us", 1e-6, 108.0))


def _scenario(rng):
    """Scenario flags and the values the CLI parses from them."""
    argv, values = [], {}
    for key, flag, unit, scale, centre in SCENARIO_BANDS:
        text = "%.4f" % (centre * rng.uniform(0.9, 1.1))
        argv += [flag, text + unit]
        values[key] = float(text) * scale
    values["seed"] = rng.randrange(2 ** 31)
    return argv + ["--seed", str(values["seed"])], values


def _check_contrast(scenario, n_times, ramsey):
    def check(envelope):
        contrast = envelope["data"]["contrast"]
        if len(contrast) != n_times:
            return ["%d time points, requested %d" % (len(contrast), n_times)]
        if not _finite(contrast):
            return ["non-finite contrast"]
        problems = []
        if abs(contrast[0] - 1.0) > CONTRAST_TOL:
            problems.append("contrast at t=0 is %r, not 1" % contrast[0])
        if min(contrast) < -CONTRAST_TOL or max(contrast) > 1 + CONTRAST_TOL:
            problems.append("contrast outside [0, 1]")
        if ramsey:
            analytic = ramsey_analytic(scenario, n_times)
            bound = 5.0 / math.sqrt(N_ATOMS)
            worst = max(abs(c - a) for c, a in zip(contrast, analytic))
            if worst > bound:
                problems.append("Ramsey contrast is %.3g from the analytic "
                                "curve (bound 5/sqrt(N) = %.3g)"
                                % (worst, bound))
        return problems
    return check


def ramsey_analytic(scenario, n_times):
    """coherence.ramsey_contrast_analytic at the call's 1 us time steps."""
    from rydtrap.coherence import (DephasingScenario,
                                   ramsey_contrast_analytic)
    model = DephasingScenario(scenario["dnu0_hz"], scenario["temperature_k"],
                              scenario["depth_hz"], scenario["t1_s"],
                              n_atoms=N_ATOMS, seed=scenario["seed"])
    times = [i * 1e-6 for i in range(n_times)]
    return list(ramsey_contrast_analytic(model, times).contrast)


def coherence_round(rng):
    calls = []
    for command in ("ramsey-sim", "echo-sim"):
        for n_times in (61, 241):
            flags, scenario = _scenario(rng)
            argv = [command, "--format", "json"] + flags + [
                "--n", str(N_ATOMS), "--times", "0:%dus:1us" % (n_times - 1)]
            check = _check_contrast(scenario, n_times, command == "ramsey-sim")
            calls.append(Call(argv, check, N_ATOMS * n_times))
    return calls


# ---------------------------------------------------------------- oracle-check

def _check_oracle(n_values):
    def check(envelope):
        comps = envelope["data"]["comparisons"]
        if [c["n"] for c in comps] != list(n_values):
            return ["comparisons do not match the requested n"]
        problems = []
        for c in comps:
            keys = ("tensor_hz", "brute_hz", "relative_difference")
            if not _finite([c[k] for k in keys]):
                problems.append("n=%d: non-finite comparison" % c["n"])
            elif c["relative_difference"] >= ORACLE_BOUND:
                problems.append("n=%d: relative difference %.3g >= %g"
                                % (c["n"], c["relative_difference"],
                                   ORACLE_BOUND))
        return problems
    return check


def oracle_round(rng):
    n_values = rng.sample(range(40, 101), 2)
    argv = ["oracle-check", "--power", "%.2fmW" % rng.uniform(6, 12),
            "--series", rng.choice(("3S1", "1D2")),
            "--n"] + [str(n) for n in n_values]
    return [Call(argv, _check_oracle(n_values), len(n_values))]


# why each workload exists is stated in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("quick-cli", "commands_per_s", quick_cli_round),
    Workload("trap-scan", "states_per_s", trap_scan_round, uses_cache=True),
    Workload("coherence-mc", "samples_per_s", coherence_round),
    Workload("oracle-check", "states_per_s", oracle_round),
)}
