"""Ramsey and echo dephasing from thermal sampling of the trap profile."""

import math
import tracemalloc

import numpy as np
import pytest

from rydtrap import cli, coherence
from rydtrap.coherence import (ContrastCurve, DephasingScenario,
                               echo_contrast, orbit_averaged_shift_hz,
                               ramsey_contrast, ramsey_contrast_analytic,
                               trap_frequencies_hz)
from rydtrap.constants import H, KB

DNU0 = 90e3
TEMP = 13e-6
DEPTH = 2.0e6
T1 = 108e-6
TIMES = np.linspace(0.0, 60e-6, 121)
UNEVEN = np.sort(np.random.default_rng(11).uniform(0.0, 240e-6, 200))
# evenly spaced grids: CLI --times ranges, linspace, one below zero
EVEN_GRIDS = {
    "range-9": cli._time_grid(cli.time_range("0:60us:7us")),
    "range-61": cli._time_grid(cli.time_range("0:60us:1us")),
    "range-241": cli._time_grid(cli.time_range("0:240us:1us")),
    "range-2001": cli._time_grid(cli.time_range("0:1000us:0.5us")),
    "linspace-121": TIMES,
    "below-zero": np.linspace(-20e-6, 40e-6, 61),
}


def scenario(**kw):
    base = dict(dnu0_hz=DNU0, temperature_k=TEMP, depth_hz=DEPTH, t1_s=T1,
                n_atoms=100000, seed=7)
    base.update(kw)
    return DephasingScenario(**base)


def reference_draw(sc):
    """The whole ensemble in one draw: per-axis energies (J), then orbital
    phases, both (n_atoms, 3), from one Philox stream keyed by the seed.

    The energies are exponential with mean k_B T, and none are drawn at
    T = 0, so the phases start the stream there.
    """
    rng = np.random.Generator(np.random.Philox(key=sc.seed))
    if sc.temperature_k == 0.0:
        energies = np.zeros((sc.n_atoms, 3))
    else:
        energies = rng.exponential(KB * sc.temperature_k, size=(sc.n_atoms, 3))
    return energies, rng.uniform(0.0, 2.0 * np.pi, size=(sc.n_atoms, 3))


def whole_ensemble_blocks(sc, rows, phases=False):
    """A stand-in for coherence._ensemble_blocks that yields reference_draw
    as one block, so a contrast sums its chunks over whole-ensemble arrays."""
    energies, angles = reference_draw(sc)
    yield (energies, angles) if phases else energies


def dense_ramsey(sc, times):
    """Reference: the complex mean of exp(i phi) over an (atoms, times) array."""
    energies, _ = reference_draw(sc)
    dnu = orbit_averaged_shift_hz(sc, energies)
    phase = 2.0 * np.pi * dnu[:, None] * times[None, :]
    return np.abs(np.mean(np.exp(1j * phase), axis=0)) * np.exp(-times / sc.t1_s)


def dense_echo(sc, times, freqs):
    """Reference: the echo phase summed over axes from four sines per axis,

    -2 pi dnu0 (E_i/(2 U0)) [2 S(tau) - S(2 tau)] / (2 w_i),
    S(t) = sin(2 w_i t + 2 phi_i) - sin(2 phi_i), on (atoms, times) arrays.
    """
    energies, phases = reference_draw(sc)
    omega = 2.0 * np.pi * np.asarray(freqs)
    u0 = H * sc.depth_hz
    weight = energies / (2.0 * u0)
    tau = times / 2.0
    total = np.zeros((sc.n_atoms, len(times)))
    for i in range(3):
        wt = omega[i] * tau[None, :]
        ph = phases[:, i][:, None]
        s_tau = np.sin(2.0 * wt + 2.0 * ph) - np.sin(2.0 * ph)
        s_2tau = np.sin(4.0 * wt + 2.0 * ph) - np.sin(2.0 * ph)
        total += -2.0 * np.pi * sc.dnu0_hz * weight[:, i][:, None] \
            * (2.0 * s_tau - s_2tau) / (2.0 * omega[i])
    return np.abs(np.mean(np.exp(1j * total), axis=0)) * np.exp(-times / sc.t1_s)


def echo_closed_form(sc, times, freqs):
    """Exact echo contrast for exponential per-axis energies.

    Axis i's echo phase is A_i (E_i/(2 U0)) sin(theta) with theta uniform,
    A_i = (2 pi dnu0/(2 w_i)) 4 sin^2(w_i t/2). Its phase average is
    J0(A_i E_i/(2 U0)), whose average over energies of mean k_B T is
    (1 + x^2 A_i^2)^(-1/2) with x = k_B T/(2 U0); the axes multiply.
    """
    x = KB * sc.temperature_k / (2.0 * H * sc.depth_hz)
    omega = 2.0 * np.pi * np.asarray(freqs)[:, None]
    a = 2.0 * np.pi * sc.dnu0_hz / (2.0 * omega) \
        * 4.0 * np.sin(omega * times / 2.0) ** 2
    return np.exp(-times / sc.t1_s) * np.prod((1.0 + (x * a) ** 2) ** -0.5,
                                              axis=0)


ECHO_FREQS = {"33-33-6kHz": (33e3, 33e3, 6e3), "10-10-2kHz": (10e3, 10e3, 2e3),
              "80-80-15kHz": (80e3, 80e3, 15e3)}


class TestTangentPhasor:
    """coherence._cos_sin, cos and sin of 2h from tan h, against numpy."""

    MAGNITUDES = np.geomspace(1e-8, 1e6, 100001)
    # pi/2 is the half angle where tan is largest (1.6e16, not inf)
    EXACT = [0.0, np.pi, -np.pi, 3.0 * np.pi, np.nextafter(np.pi, 4.0),
             np.nextafter(np.pi, 0.0)]

    def test_matches_numpy_cos_sin(self):
        phi = np.concatenate([self.MAGNITUDES, -self.MAGNITUDES, self.EXACT])
        sin = phi / 2.0
        cos = np.empty_like(phi)
        coherence._cos_sin(sin, cos)
        assert np.max(np.abs(cos - np.cos(phi))) <= 4e-16
        assert np.max(np.abs(sin - np.sin(phi))) <= 4e-16


class TestContrastCurve:
    def test_interpolated_crossing(self):
        t = np.linspace(0.0, 5.0, 501)
        curve = ContrastCurve(t, np.exp(-t / 2.0))
        assert curve.one_over_e_time_s == pytest.approx(2.0, abs=1e-3)

    def test_none_when_not_reached(self):
        t = np.linspace(0.0, 1.0, 11)
        curve = ContrastCurve(t, np.full_like(t, 0.9))
        assert curve.one_over_e_time_s is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ContrastCurve([0.0, 1.0], [1.0])


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            scenario(temperature_k=-1e-6)
        with pytest.raises(ValueError):
            scenario(depth_hz=0.0)
        with pytest.raises(ValueError):
            scenario(n_atoms=0)
        with pytest.raises(ValueError):
            scenario(t1_s=0.0)

    @pytest.mark.parametrize("name", ["dnu0_hz", "temperature_k",
                                      "depth_hz", "t1_s"])
    def test_nan_refused(self, name):
        # a NaN input once gave a NaN contrast at every time, t = 0 included
        with pytest.raises(ValueError):
            scenario(**{name: math.nan})

    @pytest.mark.parametrize("name, value", [
        ("dnu0_hz", math.inf), ("dnu0_hz", -math.inf),
        ("temperature_k", math.inf), ("depth_hz", math.inf)],
        ids=["dnu0", "minus-dnu0", "temperature", "depth"])
    def test_infinite_refused(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            scenario(**{name: value})

    def test_infinite_t1_allowed(self):
        sc = scenario(t1_s=math.inf)
        curve = ramsey_contrast(sc, [0.0, 10e-6])
        assert np.all(np.isfinite(curve.contrast))

    def test_derived_frequencies(self, species, beam9):
        nu_r, nu_r2, nu_z = trap_frequencies_hz(beam9, species.mass_kg, DEPTH)
        u0 = H * DEPTH
        assert nu_r == nu_r2
        assert nu_r == pytest.approx(
            math.sqrt(4.0 * u0 / (species.mass_kg * beam9.waist**2))
            / (2 * math.pi), rel=1e-12)
        assert nu_r == pytest.approx(33.2e3, rel=5e-3)
        assert nu_z == pytest.approx(6.11e3, rel=5e-3)

    def test_energy_sampling(self):
        sc = scenario(n_atoms=200000)
        e = reference_draw(sc)[0]
        assert e.shape == (200000, 3)
        assert np.mean(e) == pytest.approx(KB * TEMP, rel=5e-3)
        assert np.array_equal(e, reference_draw(scenario(n_atoms=200000))[0])
        assert not np.array_equal(e[:, 0], e[:, 1])
        streamed = np.concatenate(list(coherence._ensemble_blocks(sc, 1000)))
        assert np.array_equal(streamed, e)

    def test_zero_temperature_energies(self):
        sc = scenario(temperature_k=0.0, n_atoms=10000)
        energies = reference_draw(sc)[0]
        assert np.all(energies == 0.0)
        streamed = np.concatenate(list(coherence._ensemble_blocks(sc, 1000)))
        assert np.array_equal(streamed, energies)


class TestRamsey:
    def test_zero_temperature_is_pure_t1(self):
        curve = ramsey_contrast(scenario(temperature_k=0.0), TIMES)
        assert np.allclose(curve.contrast, np.exp(-TIMES / T1), rtol=1e-12)

    def test_zero_shift_is_pure_t1(self):
        curve = ramsey_contrast(scenario(dnu0_hz=0.0), TIMES)
        assert np.allclose(curve.contrast, np.exp(-TIMES / T1), rtol=1e-12)

    def test_contrast_bounds_and_monotone_start(self):
        curve = ramsey_contrast(scenario(), TIMES)
        assert np.all(curve.contrast <= 1.0 + 1e-12)
        assert np.all(curve.contrast >= 0.0)
        assert curve.contrast[0] == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_matches_analytic(self):
        sc = scenario()
        mc = ramsey_contrast(sc, TIMES).contrast
        exact = ramsey_contrast_analytic(sc, TIMES).contrast
        assert np.max(np.abs(mc - exact)) < 5e-3

    def test_reference_decay_time(self):
        sc = scenario()
        t_mc = ramsey_contrast(sc, TIMES).one_over_e_time_s
        t_exact = ramsey_contrast_analytic(sc, TIMES).one_over_e_time_s
        assert t_exact == pytest.approx(21.88e-6, rel=2e-3)
        assert t_mc == pytest.approx(t_exact, rel=2e-2)

    def test_seed_determinism(self):
        a = ramsey_contrast(scenario(seed=3), TIMES).contrast
        b = ramsey_contrast(scenario(seed=3), TIMES).contrast
        c = ramsey_contrast(scenario(seed=4), TIMES).contrast
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shift_distribution_matches_samples(self):
        # exponential per-axis energies: mean dnu0 (1 - 3x) and standard
        # deviation |dnu0| sqrt(3) x, with x = kB T / (2 U0)
        sc = scenario(n_atoms=400000)
        x = KB * TEMP / (2.0 * H * DEPTH)
        mean = DNU0 * (1.0 - 3.0 * x)
        std = abs(DNU0) * math.sqrt(3.0) * x
        shifts = orbit_averaged_shift_hz(sc, reference_draw(sc)[0])
        assert np.mean(shifts) == pytest.approx(mean, abs=4 * std / 600.0)
        assert np.std(shifts) == pytest.approx(std, rel=1e-2)


class TestEcho:
    def test_echo_beats_ramsey(self, species, beam9):
        sc = scenario()
        freqs = trap_frequencies_hz(beam9, species.mass_kg, DEPTH)
        times = np.linspace(0.0, 120e-6, 61)
        echo = echo_contrast(sc, times, freqs).contrast
        ram = ramsey_contrast(sc, times).contrast
        assert np.all(echo >= ram - 1e-9)
        assert echo_contrast(sc, times, freqs).one_over_e_time_s > \
            ramsey_contrast(sc, times).one_over_e_time_s

    @pytest.mark.parametrize("freqs", [
        (1e3, 1e3), (1e3, -1e3, 1e3), (1e3, math.nan, 1e3),
        (math.inf, 1e3, 1e3)], ids=["two", "negative", "nan", "inf"])
    def test_refuses_bad_trap_frequencies(self, freqs):
        with pytest.raises(ValueError, match="must be 3 positive values"):
            echo_contrast(scenario(), TIMES, freqs)

    @pytest.mark.parametrize("late", [-1e-6, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_refuses_a_time_that_is_not_a_duration(self, late):
        # at -1 us the echo contrast once read 1.0101: exp(-t/T1) > 1
        with pytest.raises(ValueError, match="finite and >= 0"):
            echo_contrast(scenario(n_atoms=10), [0.0, late],
                          (33e3, 33e3, 6e3))

    def test_frozen_orbits_refocus_fully(self):
        # w -> 0: the shift is static over the sequence, the echo cancels it
        sc = scenario(n_atoms=20000)
        curve = echo_contrast(sc, TIMES, (1e-3, 1e-3, 1e-3))
        assert np.allclose(curve.contrast, np.exp(-TIMES / T1), atol=1e-6)

    def test_fast_orbits_refocus_fully(self):
        # w -> infinity: the orbit average is reached in both halves
        sc = scenario(n_atoms=20000)
        curve = echo_contrast(sc, TIMES, (1e12, 1e12, 1e12))
        assert np.allclose(curve.contrast, np.exp(-TIMES / T1), atol=1e-6)

    def test_zero_temperature_is_pure_t1(self):
        sc = scenario(temperature_k=0.0)
        curve = echo_contrast(sc, TIMES, (33e3, 33e3, 6e3))
        assert np.allclose(curve.contrast, np.exp(-TIMES / T1), rtol=1e-12)

    @pytest.mark.parametrize("freqs", list(ECHO_FREQS.values()),
                             ids=list(ECHO_FREQS))
    @pytest.mark.parametrize("dnu, temp", [(90e3, 13e-6), (-90e3, 40e-6)],
                             ids=["+90kHz-13uK", "-90kHz-40uK"])
    def test_matches_closed_form(self, freqs, dnu, temp):
        sc = scenario(dnu0_hz=dnu, temperature_k=temp)
        times = EVEN_GRIDS["range-61"]
        gap = echo_contrast(sc, times, freqs).contrast \
            - echo_closed_form(sc, times, freqs)
        assert np.max(np.abs(gap)) < 5.0 / math.sqrt(sc.n_atoms)

    def test_closed_form_is_exact_without_dephasing(self):
        times = EVEN_GRIDS["range-61"]
        for freqs in ECHO_FREQS.values():
            for still in ({"temperature_k": 0.0}, {"dnu0_hz": 0.0}):
                sc = scenario(n_atoms=1000, **still)
                assert np.array_equal(echo_contrast(sc, times, freqs).contrast,
                                      echo_closed_form(sc, times, freqs))

    def test_seed_determinism(self):
        freqs = (33e3, 33e3, 6e3)
        a = echo_contrast(scenario(seed=5), TIMES, freqs).contrast
        b = echo_contrast(scenario(seed=5), TIMES, freqs).contrast
        assert np.array_equal(a, b)


class TestChunkedAccumulation:
    ECHO_FREQS = ((33e3, 33e3, 6e3), (1e-3, 1e-3, 1e-3), (1e12, 1e12, 1e12))

    def test_ramsey_matches_dense_reference(self):
        sc = scenario(n_atoms=2000)
        got = ramsey_contrast(sc, TIMES).contrast
        assert np.max(np.abs(got - dense_ramsey(sc, TIMES))) <= 1e-12

    @pytest.mark.parametrize("times", [
        EVEN_GRIDS["range-9"], EVEN_GRIDS["range-61"], EVEN_GRIDS["range-241"],
        EVEN_GRIDS["below-zero"], UNEVEN, np.array([17e-6]), np.array([])],
        ids=["range-9", "range-61", "range-241", "below-zero", "uneven",
             "one", "none"])
    def test_ramsey_product_matches_dense_reference(self, times):
        sc = scenario(n_atoms=2000)
        got = ramsey_contrast(sc, times).contrast
        assert got.shape == times.shape
        assert np.max(np.abs(got - dense_ramsey(sc, times)),
                      initial=0.0) <= 1e-12

    @pytest.mark.parametrize("name", sorted(EVEN_GRIDS))
    def test_even_grid_needs_about_two_sqrt_t_columns(self, name):
        times = EVEN_GRIDS[name]
        anchors, offsets, block, column = coherence._anchor_offset_split(times)
        assert len(anchors) + len(offsets) <= 2.5 * math.sqrt(len(times)) + 2
        tol = 8.0 * np.finfo(float).eps * np.max(np.abs(times))
        assert np.max(np.abs(anchors[block] + offsets[column] - times)) <= tol

    @pytest.mark.parametrize("times", [
        UNEVEN,
        # offsets chain in steps below the tolerance but spread beyond it
        np.array([0.0, 1e-15, 2e-15, 0.0, 1e-15, 2e-15, 1.0, 1.0, 1.0])],
        ids=["uneven", "chained"])
    def test_uneven_grid_takes_width_one(self, times):
        anchors, offsets, block, column = coherence._anchor_offset_split(times)
        assert np.array_equal(anchors, times)
        assert np.array_equal(offsets, [0.0])
        assert np.array_equal(block, np.arange(len(times)))
        assert np.array_equal(column, np.zeros(len(times)))

    @pytest.mark.parametrize("freqs", ECHO_FREQS)
    def test_echo_matches_dense_reference(self, freqs):
        sc = scenario(n_atoms=2000)
        got = echo_contrast(sc, TIMES, freqs).contrast
        assert np.max(np.abs(got - dense_echo(sc, TIMES, freqs))) <= 1e-12

    @pytest.mark.parametrize("kind", ["ramsey", "echo"])
    def test_large_phases_match_dense_reference(self, kind):
        # -2 MHz at 40 uK: Ramsey phases reach 2e4 rad by 1 ms
        times = cli._time_grid(cli.time_range("0:1000us:5us"))
        if kind == "ramsey":
            sc = scenario(dnu0_hz=-2e6, temperature_k=40e-6, n_atoms=2000)
            gap = ramsey_contrast(sc, times).contrast - dense_ramsey(sc, times)
        else:
            sc = scenario(dnu0_hz=-2e6, temperature_k=40e-6, n_atoms=2000)
            freqs = (33e3, 33e3, 6e3)
            gap = echo_contrast(sc, times, freqs).contrast \
                - dense_echo(sc, times, freqs)
        assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("budget", [1, 7 * len(TIMES)])
    def test_chunk_size_does_not_change_contrast(self, monkeypatch, budget):
        # 3000 atoms: one row per chunk, then 7-row chunks with a partial last
        sc = scenario(n_atoms=3000)
        freqs = (33e3, 33e3, 6e3)
        want_ram = ramsey_contrast(sc, TIMES).contrast
        want_echo = echo_contrast(sc, TIMES, freqs).contrast
        monkeypatch.setattr(coherence, "_CHUNK_ELEMENTS", budget)
        assert np.max(np.abs(ramsey_contrast(sc, TIMES).contrast
                             - want_ram)) <= 1e-13
        assert np.max(np.abs(echo_contrast(sc, TIMES, freqs).contrast
                             - want_echo)) <= 1e-13

    def test_echo_memory_is_flat_in_times(self):
        sc = scenario(n_atoms=20000)
        freqs = (33e3, 33e3, 6e3)
        # a dense (atoms, 1001) float64 phase alone would be 160 MB
        peak_61 = traced_peak(echo_contrast, sc, 61, freqs)
        peak_1001 = traced_peak(echo_contrast, sc, 1001, freqs)
        assert peak_1001 < 32e6
        assert peak_1001 <= 1.5 * peak_61

    def test_ramsey_memory_is_flat_in_times(self):
        sc = scenario(n_atoms=20000)
        peak_61 = traced_peak(ramsey_contrast, sc, 61)
        peak_1001 = traced_peak(ramsey_contrast, sc, 1001)
        assert peak_1001 < 32e6
        assert peak_1001 <= 1.5 * peak_61

    def test_echo_memory_is_flat_in_atoms(self):
        # a whole-ensemble draw with its echo factors would hold about
        # 100 B per atom, 200 MB at 2e6 atoms
        freqs = (33e3, 33e3, 6e3)
        peaks = atom_peaks(echo_contrast, freqs)
        assert max(peaks) < 4e6
        assert max(peaks) <= 1.5 * min(peaks)

    def test_ramsey_memory_is_flat_in_atoms(self):
        # a whole-ensemble draw of the energies alone would be 48 MB at 2e6
        peaks = atom_peaks(ramsey_contrast)
        assert max(peaks) < 4e6
        assert max(peaks) <= 1.5 * min(peaks)


class TestEnsembleStream:
    """coherence._ensemble_blocks against one whole-ensemble draw."""

    BLOCK = coherence._BLOCK_ATOMS
    SIZES = [1, BLOCK - 1, BLOCK + 1, 123457]
    SIZE_IDS = ["1", "block-1", "block+1", "123457"]

    @pytest.mark.parametrize("rows", [1, 271, 1074, 4096, 7281, 65536])
    @pytest.mark.parametrize("n", SIZES, ids=SIZE_IDS)
    def test_blocks_are_whole_chunks(self, rows, n):
        sizes = [len(e) for e in coherence._ensemble_blocks(
            scenario(n_atoms=n), rows)]
        assert sum(sizes) == n
        assert all(size % rows == 0 for size in sizes[:-1])
        assert max(sizes) <= max(rows, self.BLOCK)

    @pytest.mark.parametrize("temp", [0.0, TEMP], ids=["0K", "13uK"])
    @pytest.mark.parametrize("n", SIZES, ids=SIZE_IDS)
    def test_stream_is_the_whole_draw(self, temp, n):
        # at T = 0 no energy is drawn, so the phases start the stream
        sc = scenario(temperature_k=temp, n_atoms=n)
        energies, phases = reference_draw(sc)
        blocks = list(coherence._ensemble_blocks(sc, 1074, phases=True))
        assert np.array_equal(np.concatenate([e for e, _ in blocks]),
                              energies)
        assert np.array_equal(np.concatenate([p for _, p in blocks]), phases)
        assert np.array_equal(
            np.concatenate(list(coherence._ensemble_blocks(sc, 4096))),
            energies)

    @pytest.mark.parametrize("kind", ["ramsey", "echo"])
    @pytest.mark.parametrize("times", [EVEN_GRIDS["range-61"], UNEVEN],
                             ids=["range-61", "uneven"])
    @pytest.mark.parametrize("temp", [0.0, TEMP], ids=["0K", "13uK"])
    @pytest.mark.parametrize("n", SIZES, ids=SIZE_IDS)
    def test_contrast_matches_whole_draw(self, monkeypatch, kind, times,
                                         temp, n):
        # the same chunk sums over one whole-ensemble block: bit for bit
        sc = scenario(temperature_k=temp, n_atoms=n)

        def contrast():
            if kind == "ramsey":
                return ramsey_contrast(sc, times).contrast
            return echo_contrast(sc, times, (33e3, 33e3, 6e3)).contrast
        streamed = contrast()
        monkeypatch.setattr(coherence, "_ensemble_blocks",
                            whole_ensemble_blocks)
        assert np.array_equal(streamed, contrast())


def traced_peak(contrast, sc, n_times, *more):
    """Peak traced bytes of one contrast call at n_times points up to 1 ms,
    with any more arguments after the times."""
    times = np.linspace(0.0, 1e-3, n_times)
    tracemalloc.start()
    try:
        contrast(sc, times, *more)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def atom_peaks(contrast, *more):
    """traced_peak at 61 times for 2e4, 2e5 and 2e6 atoms, after one call
    that imports what the first draw needs."""
    traced_peak(contrast, scenario(n_atoms=1), 61, *more)
    return [traced_peak(contrast, scenario(n_atoms=n), 61, *more)
            for n in (20000, 200000, 2000000)]
