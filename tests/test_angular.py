"""Wigner symbols, coupling terms, and the rank-k angular factors."""

from fractions import Fraction

import numpy as np
import pytest

from rydtrap.angular import (Term, UnsupportedTermError, _wigner_3j_twice,
                             _wigner_6j_twice, angular_factor,
                             angular_factor_exact, angular_table, max_rank,
                             reference_m, wigner_3j, wigner_6j, TABLE_TERMS)


def halfints_upto(jmax):
    return [Fraction(t, 2) for t in range(0, 2 * jmax + 1)]


class TestWignerValues:
    def test_3j_closed_form_zero_coupling(self):
        # (j j 0; m -m 0) = (-1)^(j-m)/sqrt(2j+1)
        for j in halfints_upto(5):
            for twice_m in range(-int(2 * j), int(2 * j) + 1, 2):
                m = Fraction(twice_m, 2)
                got = wigner_3j(j, j, 0, m, -m, 0)
                sign = -1.0 if (j - m) % 2 else 1.0
                want = sign / np.sqrt(float(2 * j + 1))
                assert got == pytest.approx(want, abs=1e-15)

    def test_3j_stretched(self):
        # (j j 2j; j j -2j) = (-1)^(2j)/sqrt(4j+1)
        for j in halfints_upto(4):
            got = wigner_3j(j, j, 2 * j, j, j, -2 * j)
            sign = -1.0 if (2 * j) % 2 else 1.0
            assert got == pytest.approx(sign / np.sqrt(float(4 * j + 1)),
                                        abs=1e-15)

    def test_6j_with_zero(self):
        # {a b c; 0 c b} = (-1)^(a+b+c)/sqrt((2b+1)(2c+1))
        cases = [(1, 1, 1), (2, 1, 2), (Fraction(3, 2), Fraction(1, 2), 1),
                 (3, 2, 4), (2, Fraction(5, 2), Fraction(3, 2))]
        for a, b, c in cases:
            got = wigner_6j(a, b, c, 0, c, b)
            assert (a + b + c).denominator == 1
            sign = -1.0 if (a + b + c) % 2 else 1.0
            want = sign / np.sqrt(float((2 * b + 1) * (2 * c + 1)))
            assert got == pytest.approx(want, abs=1e-14)

    def test_selection_rules_zero(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0      # triangle violated
        assert wigner_3j(1, 1, 1, 1, 1, -1) == 0.0     # projections sum to 1
        assert wigner_3j(1, 2, 2, 2, -1, -1) == 0.0    # |m1| > j1
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_exact_against_sympy_grid(self):
        sympy = pytest.importorskip("sympy")
        from sympy.physics.wigner import wigner_3j as s3j, wigner_6j as s6j
        rng = np.random.default_rng(11)

        def rational(twice):
            return sympy.Rational(twice, 2)

        def signed_square(symbol):
            # sign * symbol^2 is rational for a 3j or 6j symbol r*sqrt(q)
            square = sympy.sign(symbol) * symbol ** 2
            assert square.is_Rational
            return Fraction(int(square.p), int(square.q))

        checked = 0
        while checked < 60:
            tj1, tj2 = (int(t) for t in rng.integers(0, 7, size=2))
            tj3 = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
            tm1 = int(rng.integers(-tj1, tj1 + 1))
            tm2 = int(rng.integers(-tj2, tj2 + 1))
            tm3 = -tm1 - tm2
            # keep half-integer projections consistent with their j
            if (tj1 + tj2 + tj3) % 2 or (tm1 - tj1) % 2 or (tm2 - tj2) % 2 \
                    or abs(tm3) > tj3:
                continue
            want = signed_square(s3j(
                rational(tj1), rational(tj2), rational(tj3),
                rational(tm1), rational(tm2), rational(tm3)))
            assert _wigner_3j_twice(tj1, tj2, tj3, tm1, tm2, tm3) == want
            checked += 1

        checked = 0
        while checked < 40:
            tj1, tj2, tj4, tj5 = (int(t) for t in rng.integers(0, 6, size=4))
            tj3_opts = [t for t in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                        if abs(tj4 - tj5) <= t <= tj4 + tj5
                        and (tj4 + tj5 + t) % 2 == 0]
            tj6_opts = [t for t in range(abs(tj1 - tj5), tj1 + tj5 + 1, 2)
                        if abs(tj4 - tj2) <= t <= tj4 + tj2
                        and (tj4 + tj2 + t) % 2 == 0]
            if not tj3_opts or not tj6_opts:
                continue
            tj3 = int(rng.choice(tj3_opts))
            tj6 = int(rng.choice(tj6_opts))
            want = signed_square(s6j(
                rational(tj1), rational(tj2), rational(tj3),
                rational(tj4), rational(tj5), rational(tj6)))
            assert _wigner_6j_twice(tj1, tj2, tj3, tj4, tj5, tj6) == want
            checked += 1


class TestWignerProperties:
    def test_3j_orthogonality(self):
        # sum_{j3} (2j3+1) 3j(j1 j2 j3; m1 m2 -m1-m2)^2 = 1
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        total = 0.0
                        for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                            if abs(tm1 + tm2) > tj3:
                                continue
                            w = wigner_3j(Fraction(tj1, 2),
                                          Fraction(tj2, 2),
                                          Fraction(tj3, 2),
                                          Fraction(tm1, 2),
                                          Fraction(tm2, 2),
                                          Fraction(-tm1 - tm2, 2))
                            total += (tj3 + 1) * w * w
                        assert total == pytest.approx(1.0, abs=1e-12)

    def test_3j_even_permutation_and_reflection(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 40:
            tj = rng.integers(0, 9, size=2)
            tj3 = rng.integers(abs(tj[0] - tj[1]), tj[0] + tj[1] + 1)
            if (tj[0] + tj[1] + tj3) % 2:
                continue
            j1, j2, j3 = (Fraction(int(t), 2) for t in (*tj, tj3))
            tm1 = rng.integers(-tj[0], tj[0] + 1)
            tm1 -= (tm1 - tj[0]) % 2
            tm2 = rng.integers(-tj[1], tj[1] + 1)
            tm2 -= (tm2 - tj[1]) % 2
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            m1, m2, m3 = (Fraction(int(t), 2) for t in (tm1, tm2, tm3))
            base = wigner_3j(j1, j2, j3, m1, m2, m3)
            cyc = wigner_3j(j2, j3, j1, m2, m3, m1)
            assert cyc == pytest.approx(base, abs=1e-14)
            swap = wigner_3j(j2, j1, j3, m2, m1, m3)
            phase = -1.0 if (j1 + j2 + j3) % 2 else 1.0
            assert swap == pytest.approx(phase * base, abs=1e-14)
            neg = wigner_3j(j1, j2, j3, -m1, -m2, -m3)
            assert neg == pytest.approx(phase * base, abs=1e-14)
            done += 1

    def test_6j_column_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            tj = [int(t) for t in rng.integers(0, 7, size=6)]
            vals = [Fraction(t, 2) for t in tj]
            base = wigner_6j(*vals)
            # columns of {j1 j2 j3; j4 j5 j6} may be permuted freely
            perm = wigner_6j(vals[1], vals[0], vals[2],
                             vals[4], vals[3], vals[5])
            assert perm == pytest.approx(base, abs=1e-14)
            # swap upper and lower entries of any two columns
            flip = wigner_6j(vals[3], vals[4], vals[2],
                             vals[0], vals[1], vals[5])
            assert flip == pytest.approx(base, abs=1e-14)


class TestTerm:
    def test_parsing(self):
        t = Term("3P2")
        assert (t.S, t.L, t.J) == (1, 1, 2)
        d = Term("2D5/2")
        assert (d.S, d.L, d.J) == (Fraction(1, 2), 2, Fraction(5, 2))
        assert all(type(v) is Fraction for v in (t.S, t.J, d.S, d.J))
        assert Term(t) is t or Term(t).label == t.label

    def test_bad_labels(self):
        for label in ("P3", "3X1", "3S", "weird", "3P9"):
            with pytest.raises(UnsupportedTermError):
                Term(label)

    def test_reference_m(self):
        assert reference_m("3S1") == 0
        assert reference_m("2D5/2") == Fraction(1, 2)
        # the labels the CLI writes, as the old half-integer type wrote them
        assert [str(m) for m in (reference_m("2D5/2"), Fraction(-1, 2),
                                 Fraction(0), Fraction(-2))] \
            == ["1/2", "-1/2", "0", "-2"]


class TestAngularFactor:
    def test_rank0_is_unity_for_all_sublevels(self):
        for label in TABLE_TERMS:
            term = Term(label)
            for twice_m in range(-int(2 * term.J), int(2 * term.J) + 1, 2):
                val = angular_factor_exact(label, 0, Fraction(twice_m, 2))
                assert val == Fraction(1)

    def test_odd_and_high_ranks_vanish(self):
        assert angular_factor_exact("3P2", 1, 0) == 0
        assert angular_factor_exact("3P2", 3, 0) == 0
        assert angular_factor_exact("3S1", 2, 0) == 0       # k > 2L
        assert angular_factor_exact("3P2", 4, 0) == 0       # k > 2L
        assert angular_factor_exact("1D2", 6, 0) == 0       # k > 2J

    def test_zero_trace_over_sublevels(self):
        for label in TABLE_TERMS:
            term = Term(label)
            for k in (2, 4):
                total = sum(
                    angular_factor_exact(label, k, Fraction(t, 2))
                    for t in range(-int(2 * term.J), int(2 * term.J) + 1, 2))
                assert total == 0

    def test_m_reflection_symmetry(self):
        for label in ("3P2", "2D5/2", "1D2", "3D3"):
            term = Term(label)
            start = int(2 * term.J) % 2
            for k in (0, 2, 4):
                for t in range(start, int(2 * term.J) + 1, 2):
                    m = Fraction(t, 2)
                    assert angular_factor_exact(label, k, m) == \
                        angular_factor_exact(label, k, -m)

    def test_invalid_m_raises(self):
        with pytest.raises(ValueError):
            angular_factor_exact("3S1", 0, 2)
        with pytest.raises(ValueError):
            angular_factor_exact("3S1", 0, Fraction(1, 2))

    @pytest.mark.parametrize("m", [Fraction(1, 4), 0.75, "1/3"],
                             ids=["quarter", "float", "third-text"])
    def test_non_half_integer_m_raises(self, m):
        with pytest.raises(ValueError, match="not a half-integer"):
            angular_factor_exact("2D5/2", 2, m)

    def test_float_wrapper_matches_exact(self):
        for label in ("3P1", "1D2"):
            for k in (0, 2):
                m = reference_m(label)
                assert angular_factor(label, k, m) == float(
                    angular_factor_exact(label, k, m))

    def test_explicit_uncoupling_oracle(self):
        # rebuild A_k by uncoupling |J M> into |L mL>|S mS> and summing the
        # single-electron orbital factors <L mL|C_k0|L mL>
        for label in ("3P2", "2D5/2", "3D2", "1P1"):
            term = Term(label)
            for k in (2, 4):
                want = angular_factor(label, k, reference_m(label))
                m = reference_m(label)
                total = 0.0
                for t_ml in range(-2 * term.L, 2 * term.L + 1, 2):
                    t_ms = int(2 * m) - t_ml
                    if abs(t_ms) > int(2 * term.S):
                        continue
                    cg = wigner_3j(term.L, term.S, term.J,
                                   Fraction(t_ml, 2),
                                   Fraction(t_ms, 2), -m)
                    weight = (int(2 * term.J) + 1) * cg * cg
                    ml = Fraction(t_ml, 2)
                    # <L mL|C_k0|L mL> relative to the k=0 normalization;
                    # phase (-1)^(L-mL) x (-1)^L = (-1)^mL for integer mL
                    sign = -1.0 if (abs(t_ml) // 2) % 2 else 1.0
                    orb = (sign * (2 * term.L + 1)
                           * wigner_3j(term.L, k, term.L, -ml, 0, ml)
                           * wigner_3j(term.L, k, term.L, 0, 0, 0))
                    total += weight * orb
                assert total == pytest.approx(want, abs=1e-12)


def _sympy_angular_factor(term, k, twice_m):
    """A_k(term, M) from sympy's Wigner symbols with the phases of the
    angular module docstring; no rank rule of its own."""
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_3j as s3j, wigner_6j as s6j
    S, L, J, M = (sympy.Rational(t, 2) for t in
                  (int(2 * term.S), 2 * term.L, int(2 * term.J), twice_m))
    return ((-1) ** (J - M) * s3j(J, k, J, -M, 0, M)
            * (-1) ** (S + L + J + k) * (2 * J + 1) * s6j(L, J, S, J, L, k)
            * (-1) ** L * (2 * L + 1) * s3j(L, k, L, 0, 0, 0))


@pytest.mark.parametrize("label", TABLE_TERMS + (
    "3F2", "3F3", "3F4", "1F3", "2F5/2", "2F7/2"))
def test_max_rank_is_the_highest_coupled_rank(label):
    term = Term(label)
    rank = max_rank(term)
    twice_ms = range(-int(2 * term.J), int(2 * term.J) + 1, 2)
    for k in range(rank + 2, 9, 2):
        assert all(_sympy_angular_factor(term, k, t) == 0
                   for t in twice_ms), k
    assert any(_sympy_angular_factor(term, rank, t) != 0 for t in twice_ms)


def test_angular_table_shape_and_reference_row():
    rows = angular_table()
    assert len(rows) == len(TABLE_TERMS)
    by_term = {label: vals for label, vals in rows}
    assert by_term["3S1"] == [Fraction(1), Fraction(0), Fraction(0)]
    assert by_term["1D2"] == [Fraction(1), Fraction(2, 7), Fraction(2, 7)]
