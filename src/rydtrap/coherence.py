"""Thermal dephasing of a two-level superposition in an optical trap.

A trapped atom at finite temperature samples the trap's intensity profile,
so a differential light shift between the two levels becomes a
motional-energy-dependent detuning. In the harmonic approximation the
orbit-averaged shift is linear in the per-axis energies,

    dnu(E) = dnu0 * (1 - sum_i E_i / (2 U0)),

which dephases a Ramsey sequence; an echo refocuses the static part and
is limited by trajectory evolution between the pulses and by T1. The
orbit frequencies, which only the echo needs, are an argument of
echo_contrast, not part of the shared DephasingScenario. The ensemble is
sampled with a counter-based generator so results are reproducible and
independent of evaluation order, and it is drawn in blocks of a few
thousand atoms (_ensemble_blocks), each consumed before the next is drawn.

A Ramsey phase is rate_i t_j, so exp(i r t) = exp(i r a) exp(i r d) for
any split t = a + d. The T times fall in blocks of width K = ceil(sqrt T),
each starting at an anchor a, and time j takes the offset d of column
j mod K, so an evenly spaced grid has about K anchors and K columns. The
ensemble sum at every (anchor, column) pair is one real matrix product of
per-atom cos/sin tables, and each time reads its own pair: one phasor per
atom at ~2 sqrt(T) points instead of T. A grid that is not evenly
spaced, so that some anchor plus offset misses its time by more than
8 eps max|t|, falls back to width 1, each time its own anchor with the
single offset 0, which is the cost of evaluating every phase directly.

The net echo phase of axis i is 4 sin^2(w_i tau) sin(2 w_i tau + 2 phi_i)
times a per-atom weight, so over all axes it is a rank-6 product of a
per-atom (atoms, 6) matrix and a per-time (6, times) matrix, which has no
such factorization; echo accumulates sum cos(phi) and sum sin(phi)
directly, one phasor per atom and time.

Each phasor comes from one tangent of the half angle (_cos_sin): numpy's
float64 tan is vectorised where its cos and sin may not be (numpy 2.4 on
an AVX-512 Xeon, phases within 50 rad: 2.4 ns per element against 26 ns
each for cos and sin, and 4.7 ns for both from _cos_sin). The per-time
inputs are halved once, before the atoms. Both contrasts work over
fixed-size chunks of atoms in two reused buffers, and each drawn block is
a whole number of chunks, so neither an (atoms x times) array nor any
array over the whole ensemble is ever held: memory is flat in the number
of times and in the number of atoms. A block bit-matches the same rows of
one whole-ensemble draw and every chunk sum is the same float operation,
so the contrasts do not depend on the block size. At 61 to 1001 times the
traced peaks are 1.3-1.4 MB for Ramsey and 1.7-1.9 MB for echo, the same
from 2e4 to 2e6 atoms: the 1 MB of chunk buffers plus a block's arrays.
"""

import math

from ._numpy import np
from .constants import KB, H

# atoms x columns per chunk; the chunk buffers hold twice this many
# float64 values (1 MB), which stay in a 2 MB L2 cache from the tangent
# to the sums
_CHUNK_ELEMENTS = 1 << 16
# atoms per drawn block, rounded down to whole chunks but never below one
# chunk: echo's per-atom arrays take 96 B an atom, 0.4 MB a block, however
# large the ensemble (more only where one chunk holds more atoms, below
# 16 times)
_BLOCK_ATOMS = 1 << 12


class ContrastCurve:
    """Sampled contrast versus time with its interpolated 1/e decay time."""

    def __init__(self, times_s, contrast):
        self.times_s = np.asarray(times_s, dtype=float)
        self.contrast = np.asarray(contrast, dtype=float)
        if self.times_s.shape != self.contrast.shape:
            raise ValueError("times and contrast must have equal length")

    @property
    def one_over_e_time_s(self):
        """First crossing of 1/e by linear interpolation; None if not reached."""
        target = 1.0 / math.e
        c = self.contrast
        below = np.nonzero(c < target)[0]
        if not len(below):
            return None
        j = below[0]
        if j == 0:
            return float(self.times_s[0])
        t0, t1 = self.times_s[j - 1], self.times_s[j]
        c0, c1 = c[j - 1], c[j]
        return float(t0 + (c0 - target) * (t1 - t0) / (c0 - c1))


class DephasingScenario:
    """Inputs that Ramsey and echo share: peak differential shift,
    temperature, trap depth, T1, ensemble size and the seed of its draw."""

    def __init__(self, dnu0_hz, temperature_k, depth_hz, t1_s,
                 n_atoms=100000, seed=0):
        if not -math.inf < dnu0_hz < math.inf:
            raise ValueError("differential shift must be finite")
        if not 0 <= temperature_k < math.inf:
            raise ValueError("temperature must be nonnegative and finite")
        if not 0 < depth_hz < math.inf:
            raise ValueError("depth must be positive and finite")
        if n_atoms < 1:
            raise ValueError("need at least one atom")
        if not t1_s > 0:
            raise ValueError("T1 must be positive (math.inf allowed)")
        self.dnu0_hz = float(dnu0_hz)
        self.temperature_k = float(temperature_k)
        self.depth_hz = float(depth_hz)
        self.t1_s = float(t1_s)
        self.n_atoms = int(n_atoms)
        self.seed = int(seed)


def _ensemble_blocks(scenario, rows, phases=False):
    """The ensemble in consecutive blocks of a whole number of rows atoms
    (the last block takes what is left): per-axis motional energies (J),
    (atoms, 3), or with phases the pair (energies, orbital phases).

    One Philox stream keyed by the seed holds every atom's three energies,
    then every atom's three phases, and a block drawn from it holds the
    values one whole-ensemble draw would. Each axis energy is an
    independent 1D harmonic Boltzmann energy (exponential with mean
    k_B T), none drawn at T = 0, so the phases, uniform in [0, 2 pi),
    then start the stream. The exponential sampler takes a varying number
    of words per value, so the phases come from a second generator on the
    same key that first draws every energy and discards it.
    """
    n, scale = scenario.n_atoms, KB * scenario.temperature_k
    step = rows * max(1, _BLOCK_ATOMS // rows)
    thermal = scenario.temperature_k != 0.0

    def sizes():
        return (min(step, n - a) for a in range(0, n, step))

    def stream():
        return np.random.Generator(np.random.Philox(key=scenario.seed))

    energy_rng = stream()
    if phases:
        phase_rng = stream()
        if thermal:
            for size in sizes():
                phase_rng.exponential(scale, size=(size, 3))
    for size in sizes():
        energies = energy_rng.exponential(scale, size=(size, 3)) \
            if thermal else np.zeros((size, 3))
        if phases:
            yield energies, phase_rng.uniform(0.0, 2.0 * np.pi,
                                              size=(size, 3))
        else:
            yield energies


def trap_frequencies_hz(beam, mass_kg, depth_hz):
    """(radial, radial, axial) harmonic frequencies of a Gaussian trap of
    depth_hz for echo_contrast: nu_r = sqrt(4 U0/(m w0^2))/2pi and
    nu_z = sqrt(2 U0/(m zR^2))/2pi."""
    u0 = H * depth_hz
    nu_r = math.sqrt(4.0 * u0 / (mass_kg * beam.waist ** 2)) / (2 * math.pi)
    nu_z = math.sqrt(2.0 * u0 / (mass_kg * beam.rayleigh_range ** 2)) \
        / (2 * math.pi)
    return (nu_r, nu_r, nu_z)


def _anchor_offset_split(times):
    """Write each time as an anchor plus an offset column.

    Returns (anchors, offsets, block, column) with times[j] equal to
    anchors[block[j]] + offsets[column[j]] within 8 eps max|t|. Time j is
    in block j // K and column j % K, K = ceil(sqrt T): the anchors are
    every K-th time from the first, and the offsets the first K times less
    the first. That meets the tolerance on an evenly spaced grid; on any
    other, every time is its own anchor with the single offset 0.
    """
    n = len(times)
    width = math.isqrt(max(n - 1, 0)) + 1
    block, column = np.divmod(np.arange(n), width)
    anchors, offsets = times[::width], times[:width] - times[:1]
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(times), initial=0.0)
    if np.all(np.abs(anchors[block] + offsets[column] - times) <= tol):
        return anchors, offsets, block, column
    return times, np.zeros(1), np.arange(n), np.zeros(n, dtype=int)


def _cos_sin(half, cos):
    """Overwrite the half angles h in half with sin 2h; write cos 2h to cos.

    One tangent t = tan h gives both: cos 2h = 2/(1 + t^2) - 1 and
    sin 2h = 2t/(1 + t^2), within 4e-16 of numpy's cos and sin. Float64
    tan never returns inf (1.6e16 at the double nearest pi/2), so t^2
    stays finite.
    """
    np.tan(half, out=half)
    np.multiply(half, half, out=cos)
    cos += 1.0
    np.divide(2.0, cos, out=cos)
    half *= cos
    cos -= 1.0


def _phasor_table(rate, half_points, buf):
    """[cos(r p); sin(r p)] as a (2 P, atoms) view of the front of buf."""
    n = len(half_points)
    table = buf[:2 * n * len(rate)].reshape(2 * n, len(rate))
    np.multiply.outer(half_points, rate, out=table[n:])
    _cos_sin(table[n:], table[:n])
    return table


def _t1_envelope(times, t1_s):
    with np.errstate(invalid="ignore"):
        env = np.exp(-np.asarray(times, dtype=float) / t1_s)
    return env


def orbit_averaged_shift_hz(scenario, energies):
    """dnu for per-axis energies (J): dnu0 (1 - sum E_i/(2 U0))."""
    u0 = H * scenario.depth_hz
    return scenario.dnu0_hz * (1.0 - np.sum(energies, axis=-1) / (2.0 * u0))


def ramsey_contrast(scenario, times_s):
    """Ramsey fringe contrast at each time.

    Each atom accrues phase from its orbit-averaged shift; the ensemble
    coherence magnitude times the T1 envelope gives the contrast. The
    shift offset common to all atoms does not reduce contrast; only the
    energy spread does.

    The sum of exp(i r t) over atoms is sum exp(i r a) exp(i r d) at the
    anchor a and offset column d of each time (_anchor_offset_split),
    accumulated over chunks of atoms as one real matrix product of the
    [cos; sin] tables at the anchors and at the offsets. Any grid is
    accepted; sharing a column moves a phase by at most 8 eps |r| max|t|.
    The accumulators hold about 4T sums, so the traced peak is flat in T
    and in the number of atoms: 1.3 MB at 1e5 atoms for 61 to 1001 times,
    10 MB at 100,001, where the per-time index arrays dominate.
    """
    times = np.asarray(times_s, dtype=float)
    anchors, offsets, block, column = _anchor_offset_split(times)
    n_offsets = len(offsets)
    rows = max(1, _CHUNK_ELEMENTS // max(1, len(anchors) + n_offsets))
    half_anchors = 0.5 * anchors
    half_offsets = 0.5 * offsets
    anchor_buf = np.empty(2 * len(anchors) * rows)
    offset_buf = np.empty(2 * n_offsets * rows)
    # [sum cos(r a) cos(r d), sum cos(r a) sin(r d);
    #  sum sin(r a) cos(r d), sum sin(r a) sin(r d)]
    sums = np.zeros((2 * len(anchors), 2 * n_offsets))
    for energies in _ensemble_blocks(scenario, rows):
        rate = 2.0 * np.pi * orbit_averaged_shift_hz(scenario, energies)
        for a in range(0, len(rate), rows):
            r = rate[a:a + rows]
            sums += _phasor_table(r, half_anchors, anchor_buf) \
                @ _phasor_table(r, half_offsets, offset_buf).T
    cos_a, sin_a = np.vsplit(sums, 2)
    re = cos_a[:, :n_offsets] - sin_a[:, n_offsets:]
    im = sin_a[:, :n_offsets] + cos_a[:, n_offsets:]
    coherence = np.hypot(re[block, column], im[block, column]) \
        / scenario.n_atoms
    return ContrastCurve(times, coherence * _t1_envelope(times, scenario.t1_s))


def ramsey_contrast_analytic(scenario, times_s):
    """Closed form of the same model for exponential per-axis energies.

    |<exp(i phi)>| = (1 + (2 pi dnu0 kBT t / (2 U0))^2)^(-3/2); used as a
    cross-check for the Monte Carlo path.
    """
    times = np.asarray(times_s, dtype=float)
    u0 = H * scenario.depth_hz
    s = 2.0 * np.pi * scenario.dnu0_hz * KB * scenario.temperature_k \
        / (2.0 * u0) * times
    mag = (1.0 + s ** 2) ** -1.5
    return ContrastCurve(times, mag * _t1_envelope(times, scenario.t1_s))


def echo_contrast(scenario, times_s, trap_frequencies_hz):
    """Hahn-echo contrast at each total sequence time 2 tau, finite and
    >= 0, for orbits at trap_frequencies_hz, three positive values
    (radial, radial, axial).

    Along a harmonic trajectory x_i(t) = A_i cos(w_i t + phi_i) the
    instantaneous shift of axis i is -(dnu0 E_i/(2 U0)) (1 + cos(2 w_i t
    + 2 phi_i)); integrating + tau then - tau leaves the net echo phase

        -2 pi dnu0 (E_i/(2 U0)) [2 S(tau) - S(2 tau)] / (2 w_i),
        S(t) = sin(2 w_i t + 2 phi_i) - sin(2 phi_i),

    and exactly 2 S(tau) - S(2 tau) = 4 sin^2(w_i tau) sin(2 w_i tau +
    2 phi_i). Expanding the last sine, the phase summed over axes is
    coef @ basis: per atom, coef = [w_i cos 2phi_i, w_i sin 2phi_i] with
    w_i = E_i/(2 U0); per time, basis = c_i 4 sin^2(w_i tau) [sin 2 w_i tau,
    cos 2 w_i tau] with c_i = -2 pi dnu0/(2 w_i). coef is formed one
    drawn block at a time, and the phasors are accumulated over its chunks
    of atoms, one tangent per atom and time (_cos_sin). The sin^2 form has
    no cancellation as w -> 0.

    Static dephasing cancels exactly; both the frozen (w -> 0) and the
    fast-orbit (w -> infinity) limits refocus fully.
    """
    freqs = tuple(float(f) for f in trap_frequencies_hz)
    if len(freqs) != 3 or not all(0.0 < f < math.inf for f in freqs):
        raise ValueError("trap_frequencies_hz must be 3 positive values")
    times = np.asarray(times_s, dtype=float)
    if not np.all((times >= 0.0) & (times < np.inf)):
        # a sequence time is a duration: exp(-t/T1) > 1 below 0
        raise ValueError("echo times must be finite and >= 0")
    omega = 2.0 * np.pi * np.asarray(freqs)
    wt = omega[:, None] * (times / 2.0)[None, :]              # (3, times)
    amplitude = -2.0 * np.pi * scenario.dnu0_hz / (2.0 * omega)[:, None] \
        * 4.0 * np.sin(wt) ** 2
    half_basis = 0.5 * np.vstack([amplitude * np.sin(2.0 * wt),
                                  amplitude * np.cos(2.0 * wt)])  # (6, times)
    rows = max(1, _CHUNK_ELEMENTS // max(1, len(times)))
    sin_buf = np.empty((rows, len(times)))
    cos_buf = np.empty_like(sin_buf)
    re = np.zeros(len(times))
    im = np.zeros(len(times))
    for weight, phases in _ensemble_blocks(scenario, rows, phases=True):
        weight /= 2.0 * H * scenario.depth_hz                 # E_i/(2 U0)
        coef = np.empty((len(weight), 6))                     # (atoms, 6)
        _cos_sin(phases, coef[:, :3])         # phi_i is the half of 2 phi_i
        coef[:, 3:] = phases                                  # sin 2 phi_i
        coef[:, :3] *= weight
        coef[:, 3:] *= weight
        for a in range(0, len(coef), rows):
            chunk = coef[a:a + rows]
            sin_p, cos_p = sin_buf[:len(chunk)], cos_buf[:len(chunk)]
            np.matmul(chunk, half_basis, out=sin_p)
            _cos_sin(sin_p, cos_p)
            re += cos_p.sum(axis=0)
            im += sin_p.sum(axis=0)
    coherence = np.hypot(re, im) / scenario.n_atoms
    return ContrastCurve(times, coherence * _t1_envelope(times, scenario.t1_s))

