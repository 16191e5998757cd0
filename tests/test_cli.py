"""Command-line interface: unit grammar, envelopes, exit codes."""

import argparse
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rydtrap
from rydtrap import __version__, cli, coherence, potential
from rydtrap.angular import TABLE_TERMS, Term, angular_table
from rydtrap.beam import QuadratureConvergenceError, TweezerBeam, decompose
from rydtrap.coherence import trap_frequencies_hz
from rydtrap.constants import constants_hash
from rydtrap.potential import (RydbergState, core_shift, field_for,
                               ground_depth, ponderomotive_shift, yb174)
from rydtrap.radial import _N_MAX, RadialGrid, _fill_element_memo

GAMMA0 = 1.0 / 83e-6
GAMMA_PI = 3.7e5


def run_json(argv, tmp_path, name="out.json"):
    """Run argv to a JSON file; only a table command takes --format."""
    out = tmp_path / name
    full = argv + (["--format", "json"] if argv[0] in CSV_COMMANDS else [])
    full += ["--output", str(out)]
    assert cli.main(full) == 0
    with open(out) as fh:
        return json.load(fh)


class TestUnitGrammar:
    def test_suffixed_quantities(self):
        assert cli.unit_quantity("length")("650nm") == pytest.approx(650e-9)
        assert cli.unit_quantity("power")("9mW") == pytest.approx(9e-3)
        assert cli.unit_quantity("frequency")("90kHz") == pytest.approx(9e4)
        assert cli.unit_quantity("temperature")("13uK") == pytest.approx(13e-6)
        assert cli.unit_quantity("time")("108us") == pytest.approx(108e-6)
        assert cli.unit_quantity("polarizability")("107au") == 107.0
        assert cli.unit_quantity("angle")("90deg") == 90.0
        assert cli.unit_quantity("length")("1.5e2nm") == pytest.approx(150e-9)

    def test_bare_and_unknown_units_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.unit_quantity("power")("9")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.unit_quantity("power")("9kg")

    def test_time_range(self):
        assert cli.time_range("0:60us:1us") == pytest.approx(
            (0.0, 60e-6, 1e-6), rel=1e-15)
        times = cli._time_grid(cli.time_range("0:60us:1us"))
        assert len(times) == 61
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(60e-6)
        # whole-step stops keep their last point, bit for bit
        for stop_us in (60, 240):
            times = cli._time_grid(cli.time_range("0:%dus:1us" % stop_us))
            assert np.array_equal(times, 1e-6 * np.arange(stop_us + 1))
        # the stop is inclusive but never overshot
        times = cli._time_grid(cli.time_range("0:60us:7us"))
        assert len(times) == 9
        assert times[-1] == pytest.approx(56e-6)
        with pytest.raises(argparse.ArgumentTypeError):
            cli.time_range("10us:5us:1us")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.time_range("0:60us")
        # a negative start would put the T1 envelope above 1
        with pytest.raises(argparse.ArgumentTypeError):
            cli.time_range("-5us:5us:5us")

    def test_n_range(self):
        assert cli.n_range("35:80") == (35, 80)
        with pytest.raises(argparse.ArgumentTypeError):
            cli.n_range("80:35")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.n_range("a:b")

    def test_m_type(self):
        assert cli.m_type("-3/2") == Fraction(-3, 2)
        assert cli.m_type("2") == 2
        for text in ("x", "1/3", "0.75", "1/0"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.m_type(text)

    def test_pair_channel(self):
        pair_in, pair_out = cli.pair_channel(
            "80 3S1 + 80 3S1 -> 80 3P2 + 79 3P2")
        assert pair_in == [(80, Term("3S1")), (80, Term("3S1"))]
        assert pair_out == [(80, Term("3P2")), (79, Term("3P2"))]
        with pytest.raises(argparse.ArgumentTypeError):
            cli.pair_channel("80 3S1 + 80 3S1")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.pair_channel("80 3S1 -> 80 3P2 + 79 3P2")


class TestExitCodes:
    def test_unitless_argument_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trap-depth", "--power", "9", "--n", "40"])
        assert exc.value.code == 1

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 1

    def test_power_and_depth_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trap-depth", "--power", "9mW",
                      "--ground-depth", "12MHz", "--n", "40"])
        assert exc.value.code == 1

    def test_negative_time_start_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                      "--depth", "2MHz", "--t1", "108us", "--n", "10",
                      "--times=-5us:5us:5us", "--format", "csv"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["trap-depth", "--power", "1e400mW", "--n", "40"],
        ["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
         "--t1", "1e400us", "--n", "10"],
        ["trap-depth", "--power", "9mW", "--n", "40",
         "--axis-angle", "1e400deg"],
        ["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
         "--t1", "108us", "--n", "10", "--times", "0:1e400us:1us"],
    ], ids=["power", "time", "angle", "times"])
    def test_non_finite_quantity_is_usage_error(self, argv, capsys):
        # 1e400 overflows to inf; the error names the text
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "'1e400" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["ritz-fit", "--ionization-cm1", "inf"], "'inf'"),
        (["ritz-fit", "--rydberg-cm1=-inf"], "'-inf'"),
        (["threshold-fit", "--rydberg-cm1", "nan", "--range", "60:80"],
         "'nan'"),
    ], ids=["ionization-inf", "rydberg-minus-inf", "rydberg-nan"])
    def test_non_finite_fit_constant_is_usage_error(self, argv, text,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "%s is not a finite number" % text in capsys.readouterr().err

    @pytest.mark.parametrize("lone", ["--trap-freq-radial",
                                      "--trap-freq-axial"])
    def test_lone_trap_frequency_is_usage_error(self, lone, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["echo-sim", "--dnu", "90kHz", "--temp", "13uK",
                      "--depth", "2MHz", "--t1", "108us", "--n", "10",
                      lone, "30kHz"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "pass both --trap-freq-radial and --trap-freq-axial" \
            in captured.err
        assert captured.out == ""

    def test_missing_input_file_is_data_error(self, capsys):
        assert cli.main(["pi-fit", "--input", "/no/such/file.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_species_without_ground_polarizability_is_data_error(
            self, capsys):
        # rb87 has no ground-state polarizability, so no depth ratio
        assert cli.main(["trap-depth", "--species", "rb87", "--power", "9mW",
                         "--series", "2S1/2", "--n", "60"]) == 2
        assert "no ground-state polarizability" in capsys.readouterr().err

    def test_too_few_rows_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("power_mw,lifetime_us\n3.0,75.0\n6.0,64.0\n")
        assert cli.main(["pi-fit", "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        # 1/tau near 1e166 per s: the squared residuals overflow to inf
        "power_mw,lifetime_us\n2,1e-160\n4,2e-160\n6,5e-160\n",
        # tau^2 underflows to 0.0, so every weight is 0
        "power_mw,lifetime_us,sigma_us\n"
        "2,1e-160,1e-161\n4,2e-160,1e-161\n6,5e-160,1e-161\n",
        # the squared power sums overflow to inf
        "power_mw,lifetime_us\n2e160,70\n4e160,60\n6e160,50\n",
    ], ids=["huge-rates", "underflowed-weights", "huge-powers"])
    def test_out_of_range_lifetime_fit_is_data_error(self, rows, tmp_path,
                                                     capsys):
        path = tmp_path / "extreme.csv"
        path.write_text(rows)
        assert cli.main(["pi-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_non_finite_lifetime_row_is_data_error(self, tmp_path, capsys):
        # refused when the row is read, not when the JSON is written
        path = tmp_path / "nan.csv"
        path.write_text("power_mw,lifetime_us\n2,73.2\nnan,64.5\n"
                        "6,57.7\n9,49.8\n")
        assert cli.main(["pi-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: lifetime file line 3: power_mw must be finite, got nan\n"
        assert captured.out == ""

    def test_non_finite_energy_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("# n = 41 unmeasured\nn,energy_cm1\n40,50350.0\n"
                        "41,nan\n42,50360.0\n")
        assert cli.main(["ritz-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: energy file line 4: energy_cm1 must be finite, got nan\n"
        assert captured.out == ""

    def test_non_numeric_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "text.csv"
        path.write_text("power_mw,lifetime_us\n2,73.2\n4,n/a\n6,57.7\n")
        assert cli.main(["pi-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: lifetime file line 3: lifetime_us " \
            "must be a number, got 'n/a'\n"
        assert captured.out == ""

    def test_non_integer_energy_n_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "half.csv"
        path.write_text("n,energy_cm1\n40,50350.0\n40.5,50350.0\n"
                        "42,50360.0\n")
        assert cli.main(["ritz-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == \
            "error: energy file line 3: n must be an integer, got 40.5\n"
        assert captured.out == ""

    def test_single_cell_row_is_data_error(self, tmp_path, capsys):
        # the error names the physical line, comment lines counted
        path = tmp_path / "short_row.csv"
        path.write_text("power_mw,lifetime_us\n# 4 mW lost\n2,73.2\n4\n"
                        "6,57.7\n9,49.8\n12,43.8\n")
        assert cli.main(["pi-fit", "--input", str(path)]) == 2
        assert "line 4 has one cell, '4'" in capsys.readouterr().err

    def test_single_cell_energy_row_is_data_error(self, tmp_path, capsys):
        # the same reader as the lifetimes: no IndexError, the line named
        path = tmp_path / "short_row.csv"
        path.write_text("# n = 41 lost\nn,energy_cm1\n40,50350.0\n41\n"
                        "42,50360.0\n")
        assert cli.main(["ritz-fit", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "energy file line 4 has one cell, '41'" in captured.err
        assert captured.out == ""

    def test_nonconvergence_maps_to_exit_3(self, monkeypatch, capsys):
        def boom(scenario, times):
            raise QuadratureConvergenceError("did not converge")
        monkeypatch.setattr(coherence, "ramsey_contrast", boom)
        rc = cli.main(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                       "--depth", "2MHz", "--t1", "108us", "--n", "10"])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err

    def test_fit_nonconvergence_exits_3(self, lmder_exit, capsys):
        # MINPACK's maxfev exit: one error line, no traceback, no output
        lmder_exit(5)
        assert cli.main(["ritz-fit"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Ritz fit did not converge: "
                                       "MINPACK info 5 (")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_oracle_nonconvergence_exits_3(self, monkeypatch, capsys):
        # one doubling per angle, and a tol below rounding
        monkeypatch.setattr("rydtrap.beam._MAX_DOUBLINGS", 1)
        monkeypatch.setattr("rydtrap.beam._ORACLE_TOL", 1e-20)
        rc = cli.main(["oracle-check", "--power", "9mW", "--series", "1D2",
                       "--n", "60"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "3D quadrature not converged in " in captured.err
        assert captured.out == ""

    def test_n_past_the_radial_cap_is_data_error(self, capsys):
        # n_b = 151 at offset 1: its 3P2 bracket needs the integer n = 151
        rc = cli.main(["magic-scan", "--power", "9mW", "--n-range",
                       "150:153", "--offset", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "n* = 149.560 at l=1 needs integer n up to 151, past the " \
            "hydrogenic cap n <= 150" in captured.err
        assert captured.out == ""

    def test_oracle_check_refuses_past_cap_n_before_any_oracle(
            self, monkeypatch, capsys):
        # the valid 60 and 95 come first; no oracle may run for them
        def forbidden(*args, **kwargs):
            raise AssertionError("an oracle ran")
        monkeypatch.setattr(rydtrap.beam, "brute_force_average", forbidden)
        rc = cli.main(["oracle-check", "--power", "9mW",
                       "--n", "60", "95", "100000000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "past the hydrogenic cap n <= 150" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        # a billion n would make a command that lists its n values first
        # allocate that list before any guard below could stop it
        ["trap-depth", "--n-min", "30", "--n-max", "1000000"],
        ["magic-scan", "--n-range", "100:1000000000"],
        ["tensor-shift", "--n", "100000000", "--series", "3P2"],
    ], ids=["trap-depth", "magic-scan", "tensor-shift"])
    def test_past_the_cap_exits_before_it_allocates(self, argv, monkeypatch,
                                                    capsys):
        # no grid is built, and no more states than the cap lets through:
        # a command that built either first fails here instead of running
        built = []

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        def counted(*args, **kwargs):
            built.append(args)
            if len(built) > 1000:
                raise AssertionError("more than 1,000 states built")
            return RydbergState(*args, **kwargs)
        monkeypatch.setattr(RadialGrid, "default", no_grid)
        monkeypatch.setattr(potential, "RydbergState", counted)
        assert cli.main(argv + ["--power", "9mW"]) == 2
        captured = capsys.readouterr()
        assert "past the hydrogenic cap n <= 150" in captured.err
        assert captured.out == ""

    def test_refused_allocation_is_data_error(self, monkeypatch, capsys):
        # a draw asking for 2^45 atoms x 3 motional energies, 768 TiB, past
        # a 47-bit address space, is refused whatever the overcommit setting
        def refused_draw(scenario, rows, phases=False):
            yield np.empty((1 << 45, 3))
        monkeypatch.setattr(coherence, "_ensemble_blocks", refused_draw)
        rc = cli.main(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                       "--depth", "2MHz", "--t1", "108us", "--n", "1000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "allocate" in captured.err
        assert captured.out == ""

    def test_backwards_n_range_is_data_error(self, capsys):
        rc = cli.main(["trap-depth", "--power", "9mW", "--n-min", "40",
                       "--n-max", "30"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "backwards n range: --n-min 40 is above --n-max 30" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n_args", [
        ["--n", "75", "--n-min", "30", "--n-max", "32"],
        ["--n-min", "30"],
        ["--n-max", "32"],
        [],
    ], ids=["n-and-range", "lone-min", "lone-max", "no-n"])
    def test_malformed_n_selection_is_usage_error(self, n_args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trap-depth", "--power", "9mW"] + n_args)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "pass --n alone or both --n-min and --n-max" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, named", [
        (["autoion", "--n", "75", "--core-depth=-5MHz"],
         "core trap depth must be >= 0, got -5e+06 Hz"),
        (["pi-fit", "--input", "tau.csv", "--at-power=-5mW"],
         "trap power must be >= 0, got -0.005 W"),
    ], ids=["core-depth", "at-power"])
    def test_negative_loss_input_is_data_error(self, argv, named, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tau.csv").write_text(
            "power_mw,lifetime_us\n2,73.2\n4,64.5\n6,57.7\n9,49.8\n")
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["trap-depth", "--power", "9mW", "--n", "5"],
        ["autoion", "--power", "9mW", "--n", "5"],
    ], ids=["trap-depth", "autoion"])
    def test_n_below_ritz_range_is_data_error(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "n=5 is outside the range of the 3S1 Ritz model" in captured.err
        assert "[35, 80]" in captured.err
        assert captured.out == ""

    def test_trap_on_a_core_line_is_data_error(self, capsys):
        # zero detuning from the 369 nm Yb+ line raised ZeroDivisionError
        assert cli.main(["autoion", "--power", "9mW", "--n", "70",
                         "--wavelength", "3.69e-7m"]) == 2
        captured = capsys.readouterr()
        assert "on the yb174 core line at 3.69e-07 m" in captured.err
        assert captured.out == ""

    def test_non_half_integer_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["trap-depth", "--power", "9mW", "--n", "60",
                      "--series", "1D2", "--m", "1/3"])
        assert exc.value.code == 1
        assert "bad sublevel '1/3'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--terms", "3X1"], "orbital letter 'X' not supported"),
        (["--ranks", "0", "-2"], "--ranks must be >= 0, got -2"),
        # a repeated rank gave the CSV two k2 columns and the JSON one key
        (["--ranks", "2", "0", "2"], "--ranks repeats a rank: 2 0 2"),
    ], ids=["terms", "ranks", "repeated-ranks"])
    def test_malformed_angular_table_input_is_usage_error(self, argv, named,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["angular-table"] + argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--cache-dir", "--threads"])
    def test_removed_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["angular-table", flag, "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["trap-depth", "--power", "0mW", "--n", "40"],
        ["trap-depth", "--ground-depth", "0MHz", "--n", "40"],
        ["oracle-check", "--power", "0mW", "--n", "40"],
    ], ids=["trap-depth-power", "trap-depth-ground-depth", "oracle-check"])
    def test_zero_power_is_data_error(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "power must be positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code", [
        # the Ritz slope at n = 10^43 underflows to 0 rather than overflowing
        (["autoion", "--power", "9mW", "--n", str(10 ** 43)], 0),
        (["trap-depth", "--power", "9mW", "--n", "75", "--waist", "1e200m"],
         2),
        (["pi-fit", "--input", "LIFETIMES", "--waist", "1e200m"], 2),
        (["echo-sim", "--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
          "--t1", "108us", "--n", "10", "--waist", "1e200m"], 2),
        (["forster", "--channel",
          "%d 3P2 + 80 3S1 -> 80 3P2 + 79 3P2" % 10 ** 200], 2),
        (["autoion", "--power", "9mW", "--series", "3P2",
          "--n", str(10 ** 200)], 2),
    ], ids=["autoion-n-1e43", "trap-depth-waist", "pi-fit-waist",
            "echo-sim-waist", "forster-n-1e200", "autoion-n-1e200"])
    def test_overflow_is_data_error(self, argv, code, tmp_path, capsys):
        lifetimes = tmp_path / "lifetimes.csv"
        lifetimes.write_text(
            "power_mw,lifetime_us\n2,73.2\n4,64.5\n6,57.7\n9,49.8\n")
        argv = [str(lifetimes) if a == "LIFETIMES" else a for a in argv]
        assert cli.main(argv + ["--output", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: a value overflowed")
        else:
            assert err == ""

    @pytest.mark.parametrize("argv, named", [
        (["trap-depth", "--power", "9mW", "--n", "75", "--alpha-core", "0au"],
         "alpha_core"),
        (["trap-depth", "--power", "9mW", "--n", "75", "--alpha-core=-50au"],
         "alpha_core"),
        (["autoion", "--power", "9mW", "--n", "75", "--alpha-core=-50au"],
         "alpha_core"),
        (["trap-depth", "--power", "9mW", "--n", "75",
          "--alpha-ground=-50au"], "alpha_ground"),
        (["trap-depth", "--power", "9mW", "--n", "75",
          "--alpha-ground", "0au"], "alpha_ground"),
        (["trap-depth", "--ground-depth", "12MHz", "--n", "75",
          "--alpha-ground", "0au"], "alpha_ground"),
        (["tensor-shift", "--ground-depth", "12MHz", "--n", "74",
          "--series", "3P2", "--alpha-ground", "0au"], "alpha_ground"),
        (["autoion", "--power", "9mW", "--n", "75", "--alpha-ground", "0au"],
         "alpha_ground"),
        # the waist squares to 0.0: the peak intensity, and echo's derived
        # trap frequencies, divide by it
        (["trap-depth", "--power", "9mW", "--n", "75", "--waist", "1e-300m"],
         "divided by zero"),
        (["echo-sim", "--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
          "--t1", "108us", "--n", "10", "--waist", "1e-300m"],
         "divided by zero"),
    ], ids=["trap-depth-core-0", "trap-depth-core-negative",
            "autoion-core-negative", "trap-depth-ground-negative",
            "trap-depth-ground-0", "trap-depth-ground-depth-ground-0",
            "tensor-shift-ground-depth-ground-0", "autoion-ground-0",
            "trap-depth-waist-1e-300", "echo-sim-waist-1e-300"])
    def test_unusable_input_is_data_error(self, argv, named, capsys):
        # a zero polarizability or waist would divide by zero, and a
        # negative polarizability would give an anti-trapping number
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, term", [
        (["forster", "--channel", "80 3S1 + 80 3S1 -> 80 3P2 + 79 3D1"],
         "3D1"),
        (["magic-scan", "--power", "9mW", "--n-range", "70:72",
          "--series-b", "2S1/2"], "2S1/2"),
    ], ids=["forster", "magic-scan"])
    def test_missing_defect_model_is_data_error(self, argv, term, capsys):
        # str() of a KeyError is the repr of its message, quotes and all
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: no quantum-defect model for term %s in species yb174"
            % term]
        assert captured.out == ""

    def test_time_range_past_float_steps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                      "--depth", "2MHz", "--t1", "108us",
                      "--times", "0:1us:1e-320s"])
        assert exc.value.code == 1
        assert "time range '0:1us:1e-320s'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ramsey-sim", "echo-sim"])
    def test_time_range_past_the_cap_is_usage_error(self, command,
                                                    monkeypatch, capsys):
        # 1e9 times would need about 455 GB (about 455 B per time), so the
        # range is refused as it is parsed, before any grid is built
        def no_grid(times):
            raise AssertionError("a time grid was built")
        monkeypatch.setattr(cli, "_time_grid", no_grid)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--dnu", "90kHz", "--temp", "1uK",
                      "--depth", "1MHz", "--t1", "1us",
                      "--times", "0:1s:1ns"])
        assert exc.value.code == 1
        assert re.search(r"time range '0:1s:1ns' holds 10{8}\d times, more "
                         r"than the cap of 1048576", capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["ramsey-sim", "echo-sim"])
    def test_ensemble_past_the_cap_is_usage_error(self, command,
                                                  monkeypatch, capsys):
        # streamed, 1e13 atoms would not run out of memory but would run
        # for days, so --n is refused as it is parsed, before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("the ensemble was drawn")
        monkeypatch.setattr(coherence, "_ensemble_blocks", no_draw)
        for n in ("1073741825", "10000000000000"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--dnu", "90kHz", "--temp", "13uK",
                          "--depth", "2MHz", "--t1", "108us", "--n", n])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert "argument --n: %s atoms is more than the cap of " \
                "1073741824" % n in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["ramsey-sim", "echo-sim"])
    def test_ensemble_cap_admits_two_to_the_thirty(self, command,
                                                   monkeypatch, capsys):
        # the cap itself reaches the contrast; a stand-in returns at once
        seen = []

        def contrast(scenario, times, *more):
            seen.append(scenario.n_atoms)
            return coherence.ContrastCurve(times, np.ones(len(times)))
        monkeypatch.setattr(coherence, "ramsey_contrast", contrast)
        monkeypatch.setattr(coherence, "echo_contrast", contrast)
        assert cli.main([command, "--dnu", "90kHz", "--temp", "13uK",
                         "--depth", "2MHz", "--t1", "108us",
                         "--n", "1073741824", "--times", "0:2us:1us"]) == 0
        assert seen == [2 ** 30] == [cli._MAX_ATOMS]
        assert '"n": 1073741824' in capsys.readouterr().out

    def test_time_range_cap_admits_ten_ms_at_ten_ns(self):
        start, stop, step = cli.time_range("0:10ms:10ns")
        assert cli._time_count(start, stop, step) == 1000001 <= cli._MAX_TIMES

    def test_non_finite_result_is_data_error(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["angular-table", "--format", "json", "--output",
             str(tmp_path / "o")])
        with pytest.raises(ValueError):
            cli._emit(args, {"value": float("nan")})
        assert not (tmp_path / "o").exists()

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestAngularTable:
    def test_json_envelope_matches_library(self, tmp_path):
        doc = run_json(["angular-table"], tmp_path)
        assert doc["command"] == "angular-table"
        prov = doc["provenance"]
        assert prov["package"] == "rydtrap"
        assert prov["version"] == __version__
        assert prov["constants_sha256"] == constants_hash()
        rows = doc["data"]["rows"]
        assert len(rows) == len(TABLE_TERMS)
        expected = dict(angular_table(tuple(TABLE_TERMS), (0, 2, 4)))
        for row in rows:
            k0, k2, k4 = expected[row["term"]]
            assert Fraction(row["k0"]) == k0
            assert Fraction(row["k2"]) == k2
            assert Fraction(row["k4"]) == k4

    def test_csv_layout(self, capsys):
        assert cli.main(["angular-table"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# command: angular-table")
        assert lines[1].startswith("# config:")
        assert lines[2].startswith("# provenance: rydtrap")
        assert lines[3] == "term,M,k0,k2,k4"
        assert len(lines) == 4 + len(TABLE_TERMS)

    def test_subset_of_terms_and_ranks(self, tmp_path):
        doc = run_json(["angular-table", "--terms", "3S1", "1D2",
                        "--ranks", "0", "2"], tmp_path)
        rows = doc["data"]["rows"]
        assert [r["term"] for r in rows] == ["3S1", "1D2"]
        assert set(rows[0]) == {"term", "M", "k0", "k2"}


class TestFieldGrid:
    """The radial grid of the field commands and the element rows on it."""

    @pytest.mark.parametrize("n_max", [3, 30, 148])
    def test_rows_meet_the_accuracy_target(self, beam9, n_max):
        # every integer-n row, l <= 2, that a command on this grid can
        # bracket, against the rows at 40 points per n: within 1e-9 of e_0,
        # and for n >= 30 each element within 5e-10 of itself
        fine = RadialGrid.default(n_max + 3, npoints=40 * (n_max + 3))
        levels = [(n + 0.5, l) for l in range(3)
                  for n in range(l + 2, min(n_max, _N_MAX - 2) + 1)]
        memos = []
        coarse_grid = RadialGrid.default(n_max + 3, npoints=10 * (n_max + 3))
        for grid in (coarse_grid, fine):
            field = decompose(beam9, grid, k_max=4)
            _fill_element_memo(field, levels)
            memos.append(field.element_cache)
        coarse, reference = memos
        assert coarse.keys() == reference.keys()
        assert max(n for n, _ in reference) == min(n_max + 2, _N_MAX)
        for key, want in reference.items():
            err = np.abs(coarse[key] - want)
            assert np.all(err <= 1e-9 * abs(want[0])), key
            if key[0] >= 30:
                assert np.all(err <= 5e-10 * np.abs(want)), key

    @pytest.mark.parametrize("argv", [
        ["trap-depth", "--n-min", "30", "--n-max", "140"],
        ["trap-depth", "--n", "75", "--series", "1D2"],
        ["tensor-shift", "--n", "74", "--series", "3P2"],
        ["magic-scan", "--n-range", "40:80", "--series-b", "1D2"],
    ], ids=["trap-depth-range", "trap-depth-1D2", "tensor-shift",
            "magic-scan"])
    def test_each_row_computed_once(self, argv, monkeypatch, tmp_path):
        # the kernel sees each (n, l) row once, in blocks of at most 16
        # rows, all before field_for returns; the states' brackets then
        # only read the memo
        kernel, original = rydtrap.radial._laguerre_block, potential.field_for
        rows, sizes, fields = [], [], []

        def recording_kernel(k, alpha, x):
            sizes.append(len(k))
            rows.extend((int(k_i) + (alpha + 1) // 2, (alpha - 1) // 2)
                        for k_i in k)
            return kernel(k, alpha, x)

        def recording_field_for(beam, states):
            field = original(beam, states)
            fields.append((states, len(rows)))
            return field

        monkeypatch.setattr("rydtrap.radial._laguerre_block",
                            recording_kernel)
        monkeypatch.setattr(potential, "field_for", recording_field_for)
        run_json(argv + ["--power", "9mW"], tmp_path)
        (states, filled), = fields
        assert filled == len(rows)
        assert len(rows) == len(set(rows))
        assert max(sizes) <= 16
        assert set(rows) == {(n, s.l) for s in states for n in range(
            int(s.n_star) - 1, int(s.n_star) + 3)}


class TestFieldCommands:
    def test_trap_depth_row_matches_library(self, tmp_path, beam9):
        doc = run_json(["trap-depth", "--power", "9mW", "--n", "40"],
                       tmp_path)
        row = doc["data"]["rows"][0]
        assert row["n"] == 40
        assert doc["config"]["power_w"] == pytest.approx(9e-3)
        # the library decomposition must reproduce the emitted numbers
        field = decompose(beam9, RadialGrid.default(43, npoints=430), k_max=4)
        state = RydbergState(yb174(), 40, Term("3S1"))
        u_total = core_shift(yb174(), beam9) \
            + ponderomotive_shift(state, field, 0.0)
        assert row["u_total_hz"] == pytest.approx(u_total, rel=1e-12)
        assert row["depth_hz"] == pytest.approx(-u_total, rel=1e-12)
        assert row["ratio_to_ground"] == pytest.approx(
            -u_total / ground_depth(yb174(), beam9), rel=1e-12)

    def test_tensor_shift_symmetry(self, tmp_path):
        doc = run_json(["tensor-shift", "--power", "9mW", "--n", "40",
                        "--series", "3P2", "--axis-angle", "90deg"],
                       tmp_path)
        shifts = doc["data"]["shifts_hz"]
        assert set(shifts) == {"-2", "-1", "0", "1", "2"}
        assert sum(shifts.values()) == pytest.approx(
            0.0, abs=1e-9 * abs(shifts["2"]))
        assert shifts["2"] == pytest.approx(shifts["-2"], rel=1e-12)
        assert shifts["1"] == pytest.approx(shifts["-1"], rel=1e-12)
        assert doc["data"]["spread_hz"] == pytest.approx(
            max(shifts.values()) - min(shifts.values()), rel=1e-12)

    @pytest.mark.parametrize("argv, rank", [
        (["trap-depth", "--n", "40"], 0),
        (["trap-depth", "--n", "40", "--series", "3P2"], 2),
        (["trap-depth", "--n", "40", "--series", "1D2"], 4),
        (["tensor-shift", "--n", "40", "--series", "1D2"], 4),
        (["magic-scan", "--n-range", "40:41"], 0),
        (["magic-scan", "--n-range", "40:41", "--series-b", "1D2"], 4),
        (["oracle-check", "--n", "40"], 0),
    ], ids=["trap-depth-3S1", "trap-depth-3P2", "trap-depth-1D2",
            "tensor-shift-1D2", "magic-scan-3S1-3P0", "magic-scan-3S1-1D2",
            "oracle-check-3S1"])
    def test_field_rank_is_the_series_max_rank(self, argv, rank,
                                                monkeypatch, capsys):
        seen = []

        def recording(*args, k_max, **kwargs):
            seen.append(k_max)
            return decompose(*args, k_max=k_max, **kwargs)
        monkeypatch.setattr(rydtrap.beam, "decompose", recording)
        assert cli.main(argv + ["--power", "9mW"]) == 0
        assert seen == [rank]

    def test_cache_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RYDTRAP_CACHE_DIR", str(tmp_path / "cache"))
        run_json(["trap-depth", "--power", "9mW", "--n", "20"], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_magic_scan_rows(self, tmp_path):
        doc = run_json(["magic-scan", "--power", "9mW",
                        "--n-range", "39:40", "--offset", "-1"],
                       tmp_path)
        rows = doc["data"]["rows"]
        assert [r["n_a"] for r in rows] == [39, 40]
        assert [r["n_b"] for r in rows] == [38, 39]
        assert all(np.isfinite(r["differential_hz"]) for r in rows)


class TestSpectroscopyCommands:
    def test_ritz_fit(self, tmp_path):
        doc = run_json(["ritz-fit", "--range", "35:80"], tmp_path)
        assert doc["data"]["parameters"][0] == pytest.approx(4.4384, abs=1e-3)
        assert doc["data"]["rms_residual_mhz"] < 2.0
        assert doc["data"]["parameter_names"][0] == "d0"

    def test_threshold_fit(self, tmp_path):
        doc = run_json(["threshold-fit", "--range", "60:80"], tmp_path)
        off_mhz = (doc["data"]["ionization_cm1"] - 50443.07074) * 29979.2458
        assert abs(off_mhz) < 10.0
        assert doc["data"]["ionization_sigma_mhz"] > 0.0

    def test_forster(self, tmp_path):
        doc = run_json(["forster", "--channel",
                        "80 3S1 + 80 3S1 -> 80 3P2 + 79 3P2"], tmp_path)
        assert doc["data"]["defect_mhz"] == pytest.approx(-330.2, abs=1.0)
        assert [s["n"] for s in doc["data"]["out_states"]] == [80, 79]


class TestLossCommands:
    def test_pi_fit(self, tmp_path):
        path = tmp_path / "tau.csv"
        lines = ["power_mw,lifetime_us"]
        for p_mw in (2.0, 4.0, 6.0, 9.0, 12.0):
            tau_us = 1e6 / (GAMMA0 + GAMMA_PI * p_mw * 1e-3)
            lines.append("%g,%.9f" % (p_mw, tau_us))
        path.write_text("\n".join(lines) + "\n")
        doc = run_json(["pi-fit", "--input", str(path)], tmp_path)
        assert doc["data"]["zero_power_lifetime_us"] == pytest.approx(
            83.0, rel=1e-6)
        assert doc["data"]["reduction_at_power_mw"]["9"] == pytest.approx(
            0.2165, abs=5e-3)

    def test_autoion(self, tmp_path):
        doc = run_json(["autoion", "--power", "9mW", "--n", "75"], tmp_path)
        assert doc["data"]["lifetime_s"] == pytest.approx(6.42e-3, rel=1e-3)
        assert doc["data"]["coefficient_per_s"] == pytest.approx(
            54.7e6, rel=1e-3)

    @pytest.mark.parametrize("argv, reference, scale", [
        # the measured anchor is a 12 MHz ground depth at 9 mW in a 650 nm
        # waist: naming that depth gives the anchor's rate, a given depth
        # scales the rate linearly, and the anchor scales by I0 ~ P/w0^2
        (["--ground-depth", "12MHz"], ["--power", "9mW"], 1.0),
        (["--ground-depth", "6MHz"], ["--ground-depth", "12MHz"], 0.5),
        (["--power", "9mW", "--waist", "1000nm"], ["--power", "9mW"],
         0.4225),
    ], ids=["ground-depth-anchor", "ground-depth-half", "waist"])
    def test_autoion_core_depth_routes(self, argv, reference, scale,
                                       tmp_path):
        def rate(depth_args):
            doc = run_json(["autoion", "--n", "75"] + depth_args, tmp_path)
            return doc["data"]["rate_per_s"]
        assert rate(argv) == pytest.approx(scale * rate(reference), rel=1e-12)

    def test_autoion_zero_rate_has_null_lifetime(self, tmp_path):
        argv = ["autoion", "--n", "40", "--core-depth", "0MHz",
                "--output", str(tmp_path / "out.json")]
        assert cli.main(argv) == 0

        def reject(name):
            raise AssertionError("non-JSON constant %s" % name)
        doc = json.loads((tmp_path / "out.json").read_text(),
                         parse_constant=reject)
        assert doc["data"]["rate_per_s"] == 0.0
        assert doc["data"]["lifetime_s"] is None

    def test_autoion_core_depth_needs_no_beam_depth(self, tmp_path):
        # the set depth is the whole calibration; the wavelength still
        # sets the detunings from the core lines
        def run(extra):
            return run_json(["autoion", "--n", "75", "--core-depth", "4MHz"]
                            + extra, tmp_path)
        doc = run([])
        assert doc["data"]["rate_per_s"] == pytest.approx(
            133.47695784066667, rel=1e-12)
        assert doc["config"]["waist_m"] is None
        assert doc["config"]["alpha_core_au"] is None
        assert run(["--wavelength", "800nm"])["data"]["rate_per_s"] \
            != doc["data"]["rate_per_s"]

    @pytest.mark.parametrize("extra", [
        ["--power", "9mW"], ["--ground-depth", "3MHz"],
        ["--waist", "650nm"], ["--alpha-core", "50au"],
        ["--alpha-ground", "300au"],
    ], ids=["power", "ground-depth", "waist", "alpha-core", "alpha-ground"])
    def test_autoion_core_depth_refuses_what_it_overrides(self, extra,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["autoion", "--n", "75", "--core-depth", "4MHz"]
                     + extra)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "argument %s: not allowed with argument --core-depth" \
            % extra[0] in captured.err
        assert captured.out == ""

    def test_autoion_needs_a_depth_route(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["autoion", "--n", "75"])
        assert exc.value.code == 1
        assert "one of the arguments --power --ground-depth --core-depth " \
            "is required" in capsys.readouterr().err


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its path: perfbench is no
    package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_anchors_match_the_benchmark_reference(capsys):
    # the check the quick-cli workload makes of every ritz-fit,
    # threshold-fit, forster and autoion anchor against reference.json
    workloads = _perfbench_workloads()
    argvs = workloads.quick_anchor_argvs()
    assert len(argvs) == 146
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        envelope = json.loads(capsys.readouterr().out)
        assert workloads._matches_reference(argv)(envelope) == [], argv


def traced_run(argv, tmp_path):
    """The spans and names perfbench/traced.py records for one command in
    a new process, with its `missing` names checked."""
    traced = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    env = dict(os.environ,
               PYTHONPATH=str(Path(rydtrap.__file__).resolve().parents[1]))
    argv = argv + ["--output", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, str(traced),
                           str(tmp_path / "spans.json"), "--"] + argv,
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "spans.json").read_text())
    # these three no longer exist in the package; no other name may join
    # them
    assert set(trace["missing"]) <= {"beam.TensorField.from_json",
                                     "beam.TensorField.to_json",
                                     "radial._element_at_integer_n"}
    names = [name for name, *_ in trace["spans"]]
    assert names.count("cli.main") == 1
    return trace, names


@pytest.mark.parametrize("command, span", [
    ("ramsey-sim", "coherence.ramsey_contrast"),
    ("echo-sim", "coherence.echo_contrast")], ids=["ramsey", "echo"])
def test_perfbench_traced_mode_records_the_contrast(command, span, tmp_path):
    # perfbench/traced.py wraps each contrast by name and reads
    # scenario.n_atoms and the positional (scenario, times) of its call
    trace, names = traced_run(
        [command, "--format", "json", "--dnu", "90kHz", "--temp", "13uK",
         "--depth", "2MHz", "--t1", "108us", "--n", "2000",
         "--times", "0:60us:1us"], tmp_path)
    assert names.count(span) == 1
    extra = trace["spans"][names.index(span)][4]
    assert extra["computed_bytes"] == 2000 * 61 * 16
    assert 0 < extra["traced_peak_bytes"] < 4e6


@pytest.mark.parametrize("argv, span", [
    (["angular-table"], "angular.angular_table"),
    (["trap-depth", "--power", "9mW", "--n", "40"], "beam.decompose")],
    ids=["angular-table", "trap-depth"])
def test_perfbench_traced_mode_spans_a_lazy_module(argv, span, tmp_path):
    # traced.py finds each module in sys.modules after `import
    # rydtrap.cli`, not yet run, and its own lookup runs it
    _, names = traced_run(argv, tmp_path)
    assert names.count(span) == 1


@pytest.mark.parametrize("seed", range(6))
def test_oracle_check_rounds_meet_the_test_02_bound(seed, capsys):
    # the oracle-check workload's calls, held to test_02's 1e-6 rather than
    # to the workload's own, looser output check
    for call in _perfbench_workloads().WORKLOADS["oracle-check"].round(seed):
        assert cli.main(call.argv) == 0, call.argv
        envelope = json.loads(capsys.readouterr().out)
        assert call.check(envelope) == [], call.argv
        for comparison in envelope["data"]["comparisons"]:
            assert comparison["relative_difference"] < 1e-6, \
                (call.argv, comparison)


class TestCoherenceCommands:
    ARGS = ["--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
            "--t1", "108us", "--n", "5000", "--seed", "3",
            "--times", "0:30us:2us"]

    def test_ramsey_deterministic(self, tmp_path):
        doc1 = run_json(["ramsey-sim"] + self.ARGS, tmp_path, name="a.json")
        doc2 = run_json(["ramsey-sim"] + self.ARGS, tmp_path, name="b.json")
        assert doc1 == doc2
        assert doc1["data"]["contrast"][0] == pytest.approx(1.0, abs=1e-12)
        assert doc1["data"]["one_over_e_time_us"] == pytest.approx(22.0,
                                                                   rel=0.1)

    def test_ramsey_at_a_hundred_thousand_times(self, tmp_path):
        doc = run_json(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                        "--depth", "2MHz", "--t1", "108us", "--n", "200",
                        "--times", "0:1ms:10ns"], tmp_path)
        assert len(doc["data"]["contrast"]) == 100001
        assert doc["data"]["contrast"][0] == 1

    def test_config_keeps_the_time_range_not_the_grid(self, tmp_path):
        doc = run_json(["ramsey-sim", "--dnu", "90kHz", "--temp", "13uK",
                        "--depth", "2MHz", "--t1", "108us", "--n", "20",
                        "--times", "0:1ms:10ns"], tmp_path)
        assert doc["config"]["times_s"] == pytest.approx([0.0, 1e-3, 1e-8],
                                                         rel=1e-15)
        assert len(doc["data"]["times_us"]) == 100001
        assert doc["data"]["times_us"][-1] == pytest.approx(1000.0)

    def test_echo_with_explicit_frequencies(self, tmp_path):
        doc = run_json(["echo-sim"] + self.ARGS +
                       ["--trap-freq-radial", "33kHz",
                        "--trap-freq-axial", "6kHz"], tmp_path)
        contrast = np.array(doc["data"]["contrast"])
        assert contrast[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(contrast <= 1.0 + 1e-12)

    def test_echo_derived_and_explicit_frequencies_agree(self, tmp_path):
        species = yb174()
        beam = TweezerBeam(532e-9, 650e-9, 1.0)
        radial, _, axial = trap_frequencies_hz(beam, species.mass_kg, 2e6)
        derived = run_json(["echo-sim"] + self.ARGS, tmp_path, name="d.json")
        explicit = run_json(["echo-sim"] + self.ARGS
                            + ["--trap-freq-radial", "%rHz" % radial,
                               "--trap-freq-axial", "%rHz" % axial],
                            tmp_path, name="e.json")
        assert explicit["config"]["trap_freq_radial_hz"] == radial
        assert np.max(np.abs(np.subtract(derived["data"]["contrast"],
                                         explicit["data"]["contrast"]))) \
            <= 1e-12

    def test_trap_frequencies_are_in_the_config(self, tmp_path):
        # two runs that differ in their results differ in their config
        docs = [run_json(["echo-sim"] + self.ARGS
                         + ["--trap-freq-radial", radial,
                            "--trap-freq-axial", axial],
                         tmp_path, name="%s.json" % radial)
                for radial, axial in (("30kHz", "5kHz"), ("60kHz", "9kHz"))]
        assert docs[0]["data"] != docs[1]["data"]
        assert docs[0]["config"] != docs[1]["config"]
        assert docs[1]["config"]["trap_freq_radial_hz"] == 60e3
        assert docs[1]["config"]["trap_freq_axial_hz"] == 9e3


# every command whose default output is a CSV table, at small sizes
SIM_ARGS = ["--dnu", "90kHz", "--temp", "13uK", "--depth", "2MHz",
            "--t1", "108us", "--n", "200", "--times", "0:10us:2us"]
CSV_COMMANDS = {
    "angular-table": ["angular-table"],
    "trap-depth": ["trap-depth", "--power", "9mW", "--n", "20"],
    "tensor-shift": ["tensor-shift", "--power", "9mW", "--n", "20",
                     "--series", "3P2"],
    "magic-scan": ["magic-scan", "--power", "9mW", "--n-range", "20:21"],
    "ramsey-sim": ["ramsey-sim"] + SIM_ARGS,
    "echo-sim": ["echo-sim"] + SIM_ARGS,
}


def json_table(data):
    """A command's JSON data as the columns and rows of its CSV table."""
    if "rows" in data:
        columns = list(data["rows"][0])
        assert all(list(row) == columns for row in data["rows"])
        return columns, [list(row.values()) for row in data["rows"]]
    if "shifts_hz" in data:
        items = sorted(data["shifts_hz"].items(),
                       key=lambda kv: Fraction(kv[0]))
        return ["M", "shift_hz"], [list(kv) for kv in items]
    return ["time_us", "contrast"], [list(pair) for pair in
                                     zip(data["times_us"], data["contrast"])]


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_csv_table_matches_json_data(command, tmp_path):
    argv = CSV_COMMANDS[command]
    doc = run_json(argv, tmp_path)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# command: %s" % command
    assert lines[1] == "# config: %s" % json.dumps(doc["config"],
                                                    sort_keys=True)
    columns, rows = json_table(doc["data"])
    assert lines[3].split(",") == columns
    assert len(lines) == 4 + len(rows)
    for line, row in zip(lines[4:], rows):
        assert line.split(",") == [cli._cell(value) for value in row]


def readme_commands():
    """argv of every `rydtrap ...` line in README's Command line block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("rydtrap ")]


def test_readme_command_lines_parse():
    parser = cli.build_parser()
    commands = readme_commands()
    for argv in commands:
        parser.parse_args(argv)
    # the block shows every command
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)


# A fresh process per command: importing rydtrap.cli and running any of
# these must load no scipy module. Only ritz-fit and threshold-fit load
# scipy, inside the fits: its top-level package, to find the compiled
# MINPACK core, which they load by file without any scipy.optimize module.
NO_SCIPY_COMMANDS = {
    "version": ["--version"],
    "angular-table": ["angular-table"],
    "trap-depth-single": ["trap-depth", "--power", "9mW", "--n", "20"],
    "trap-depth-range": ["trap-depth", "--power", "9mW", "--n-min", "30",
                         "--n-max", "33"],
    "tensor-shift": CSV_COMMANDS["tensor-shift"],
    "magic-scan": CSV_COMMANDS["magic-scan"],
    "forster": ["forster", "--channel", "60 3S1 + 60 3S1 -> 60 3P2 + 59 3P2"],
    "autoion": ["autoion", "--power", "9mW", "--n", "60"],
    "pi-fit": ["pi-fit", "--input", "tau.csv", "--at-power", "9mW"],
    "ramsey-sim": CSV_COMMANDS["ramsey-sim"],
    "echo-sim": CSV_COMMANDS["echo-sim"],
    "oracle-check": ["oracle-check", "--power", "9mW", "--n", "40"],
}

# A fresh process per command: these do no array math, so they must load
# no numpy module either. rydtrap's np is a lazy module that loads numpy on
# first attribute use, so the "numpy" entry alone does not count.
NO_NUMPY_COMMANDS = {
    "version": (["--version"], 0),
    "help": (["--help"], 0),
    "angular-table": (["angular-table"], 0),
    "forster": (NO_SCIPY_COMMANDS["forster"], 0),
    "autoion": (NO_SCIPY_COMMANDS["autoion"], 0),
    "pi-fit": (NO_SCIPY_COMMANDS["pi-fit"], 0),
    "usage-error": (["trap-depth", "--power", "9", "--n", "60"], 1),
}

LIST_MODULES = """
print(json.dumps({"result": result, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy": sorted(m for m in sys.modules if m.startswith("numpy.")),
    "importlib_metadata": "importlib.metadata" in sys.modules,
    "rydtrap": sorted(n for n, m in sys.modules.items()
                      if n.startswith("rydtrap.") and type(m) is type(sys)),
    "rydtrap_listed": sorted(n for n in sys.modules
                             if n.startswith("rydtrap."))}))
"""

MODULE_PROBE = """
import json, sys
from rydtrap import cli
try:
    result = cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    result = exc.code
""" + LIST_MODULES

def probe_report(script, argv, tmp_path):
    """The result of a probe in a new process, the scipy and numpy modules
    it loaded, whether it loaded importlib.metadata, the rydtrap modules
    that ran and those in sys.modules. A lazy module that no attribute
    lookup has run is still a _LazyModule, so it does not count as run."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(rydtrap.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(argv, tmp_path):
    """The probe report of one command in a new process."""
    (tmp_path / "tau.csv").write_text(
        "power_mw,lifetime_us\n2,73.2\n4,64.5\n6,57.7\n9,49.8\n12,43.8\n")
    argv = argv + ([] if argv == ["--version"] else
                   ["--output", str(tmp_path / "out")])
    return probe_report(MODULE_PROBE, argv, tmp_path)


@pytest.mark.parametrize("name", sorted(NO_SCIPY_COMMANDS))
def test_command_loads_no_scipy(name, tmp_path):
    report = modules_after(NO_SCIPY_COMMANDS[name], tmp_path)
    assert report["result"] == 0
    assert report["scipy"] == []


def test_scipy_probe_sees_a_fit_import(tmp_path):
    # the probe is not blind: both fits load scipy when they run, and they
    # load MINPACK's core with no scipy.optimize module
    for command in ("ritz-fit", "threshold-fit"):
        report = modules_after([command], tmp_path)
        assert report["result"] == 0
        assert "scipy" in report["scipy"]
        assert [m for m in report["scipy"]
                if m.startswith("scipy.optimize")] == []


@pytest.mark.parametrize("name", sorted(NO_NUMPY_COMMANDS))
def test_command_loads_no_numpy(name, tmp_path):
    argv, code = NO_NUMPY_COMMANDS[name]
    report = modules_after(argv, tmp_path)
    assert report["result"] == code
    assert report["numpy"] == []


@pytest.mark.parametrize("argv", [NO_SCIPY_COMMANDS["trap-depth-single"],
                                  ["ritz-fit"]], ids=["trap-depth", "ritz-fit"])
def test_numpy_probe_sees_array_math(argv, tmp_path):
    # the probe is not blind: commands that do array math load numpy
    report = modules_after(argv, tmp_path)
    assert report["result"] == 0
    assert report["numpy"] != []


def test_version_loads_no_importlib_metadata(tmp_path):
    # __version__ is a literal, so --version looks up no distribution; the
    # control shows the probe sees importlib.metadata when it is loaded
    control = probe_report("import json, sys, importlib.metadata\n"
                           "result = 0" + LIST_MODULES, [], tmp_path)
    assert control["importlib_metadata"] is True
    report = probe_report(MODULE_PROBE, ["--version"], tmp_path)
    assert report["result"] == 0
    assert report["importlib_metadata"] is False


def test_version_literal_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) \
        == __version__


# the modules of rydtrap, each registered in sys.modules by `import rydtrap`
LAZY_MODULES = ["rydtrap._tables", "rydtrap.angular", "rydtrap.beam",
                "rydtrap.coherence", "rydtrap.constants", "rydtrap.loss",
                "rydtrap.potential", "rydtrap.radial", "rydtrap.spectroscopy"]


# what building and parsing the command line runs besides cli and _numpy:
# a command's parser reads the --species choices from constants
PARSER_RUNS = {"version": [], "help": [], "usage-error": ["rydtrap.constants"]}


@pytest.mark.parametrize("name", sorted(PARSER_RUNS))
def test_parser_runs_no_module_a_command_uses(name, tmp_path):
    # and every module is still in sys.modules for perfbench/traced.py
    argv, code = NO_NUMPY_COMMANDS[name]
    report = modules_after(argv, tmp_path)
    assert report["result"] == code
    assert report["rydtrap"] == sorted(
        ["rydtrap._numpy", "rydtrap.cli"] + PARSER_RUNS[name])
    assert report["rydtrap_listed"] == sorted(
        LAZY_MODULES + ["rydtrap._numpy", "rydtrap.cli"])


COMMAND_NAMES = ["angular-table", "trap-depth", "tensor-shift", "magic-scan",
                 "ritz-fit", "threshold-fit", "forster", "pi-fit", "autoion",
                 "ramsey-sim", "echo-sim", "oracle-check"]


@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_named_command_gets_the_options_of_the_full_parser(name, capsys):
    # main builds only the named command's options; its help, which lists
    # every option, is that of the parser built with all of them
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([name, "--help"])
    full = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main([name, "--help"])
    assert capsys.readouterr().out == full
    assert "--output" in full


def test_every_command_is_checked():
    assert [name for name, *_ in cli._COMMANDS] == COMMAND_NAMES


def test_parser_for_one_command_leaves_the_others_empty(capsys):
    argv = ["trap-depth", "--power", "9mW", "--n", "60"]
    assert cli.build_parser(argv).parse_args(argv).n == 60
    with pytest.raises(SystemExit):
        cli.build_parser(["forster"]).parse_args(argv)
    assert "unrecognized arguments: --power 9mW --n 60" \
        in capsys.readouterr().err


FIELD_CODE = ("rydtrap.beam", "rydtrap.radial")
# modules that each command must leave unrun
NOT_RUN = {
    "angular-table": (["angular-table"], FIELD_CODE + (
        "rydtrap.potential", "rydtrap.spectroscopy", "rydtrap.loss",
        "rydtrap.coherence")),
    "forster": (NO_SCIPY_COMMANDS["forster"],
                FIELD_CODE + ("rydtrap.loss", "rydtrap.coherence")),
    "ritz-fit": (["ritz-fit"],
                 FIELD_CODE + ("rydtrap.loss", "rydtrap.coherence")),
    "threshold-fit": (["threshold-fit"],
                      FIELD_CODE + ("rydtrap.loss", "rydtrap.coherence")),
    "ramsey-sim": (NO_SCIPY_COMMANDS["ramsey-sim"],
                   FIELD_CODE + ("rydtrap.potential",)),
    **{name: (NO_SCIPY_COMMANDS[name], ("rydtrap.loss", "rydtrap.coherence"))
       for name in ("trap-depth-single", "trap-depth-range", "tensor-shift",
                    "magic-scan", "oracle-check")},
}


@pytest.mark.parametrize("name", sorted(NOT_RUN))
def test_command_runs_only_the_modules_it_uses(name, tmp_path):
    argv, unused = NOT_RUN[name]
    report = modules_after(argv, tmp_path)
    assert report["result"] == 0
    assert sorted(set(unused) & set(report["rydtrap"])) == []


def test_module_probe_sees_the_field_code_run(tmp_path):
    # the probe is not blind: trap-depth runs the field code
    report = modules_after(NO_SCIPY_COMMANDS["trap-depth-single"], tmp_path)
    assert report["result"] == 0
    assert set(FIELD_CODE) <= set(report["rydtrap"])
