"""Angular-momentum algebra for diagonal tensor light shifts.

Angular momenta and their projections are Fractions: integers or halves of
odd integers. Wigner 3j and 6j symbols are evaluated exactly with the Racah
single-sum formula on twice-integer arguments, which avoids the
catastrophic cancellation of naive factorial formulas. A symbol is r*sqrt(q)
with r and q rational, so each kernel returns its signed square,
sign * r^2 * q, as one Fraction; the product of the three squares in an
angular factor is the square of a rational, whose exact root is A_k.

The angular factor A_k(term, M) is the coefficient multiplying the rank-k
radial integral in the diagonal matrix element of the intensity operator:

    <term, M| I |term, M> = sum_k A_k(term, M) * e_k(n*, L)

with e_k = Int r^2 R^2 f_k0 dr. It combines the Wigner-Eckart geometry
factor, the fine-structure (or LS) reduction 6j, and the orbital reduced
element:

    A_k = (-1)^(J-M) 3j(J k J; -M 0 M)
        * (-1)^(S+L+J+k) (2J+1) 6j{L J S; J L k}
        * (-1)^L (2L+1) 3j(L k L; 0 0 0)

For two-electron states with a closed-shell core in LS coupling the same
expression applies with the total quantum numbers (S, L, J, M); for a single
valence electron it applies with (1/2, l, j, m). A_0 = 1 for every state:
the monopole term is state independent.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache


class UnsupportedTermError(ValueError):
    """Raised when a term symbol is outside the implemented coupling schemes."""


def _twice(value):
    """2*value as an int for an integer or half-integer value (an int,
    Fraction, float or string like "3/2"); ValueError for 1/3 or 0.75."""
    twice = 2 * Fraction(value)
    if twice.denominator != 1:
        raise ValueError("not a half-integer: %r" % (value,))
    return twice.numerator


def _sublevel(J, M):
    """M as a Fraction, once it is a sublevel of J: |M| <= J with M - J an
    integer, so a half-integer of J's parity; ValueError otherwise."""
    M = Fraction(M)
    if (M - J).denominator != 1 or abs(M) > J:
        raise ValueError("M=%s invalid for J=%s%s" % (
            M, J, "" if (2 * M).denominator == 1 else ": not a half-integer"))
    return M


def _triangle_ok(ta, tb, tc):
    # triangle inequality plus integer perimeter, on twice-integer arguments
    if (ta + tb + tc) % 2 != 0:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _delta_fraction(ta, tb, tc):
    # Delta(abc) = (a+b-c)! (a-b+c)! (-a+b+c)! / (a+b+c+1)!, from 2a, 2b, 2c
    return Fraction(
        math.factorial((ta + tb - tc) // 2)
        * math.factorial((ta - tb + tc) // 2)
        * math.factorial((-ta + tb + tc) // 2),
        math.factorial((ta + tb + tc) // 2 + 1),
    )


@lru_cache(maxsize=100000)
def _wigner_3j_twice(tj1, tj2, tj3, tm1, tm2, tm3):
    """Signed square of the 3j symbol, from twice its arguments."""
    pairs = ((tj1, tm1), (tj2, tm2), (tj3, tm3))
    if tm1 + tm2 + tm3 != 0:
        return Fraction(0)
    for tj, tm in pairs:
        if abs(tm) > tj or (tj + tm) % 2 != 0:
            return Fraction(0)
    if not _triangle_ok(tj1, tj2, tj3):
        return Fraction(0)

    # all of these are integers when the selection rules above hold
    jjj = (tj1 + tj2 - tj3) // 2          # j1+j2-j3
    j1m1 = (tj1 - tm1) // 2               # j1-m1
    j2m2 = (tj2 + tm2) // 2               # j2+m2
    a1 = (tj3 - tj2 + tm1) // 2           # j3-j2+m1
    a2 = (tj3 - tj1 - tm2) // 2           # j3-j1-m2

    total = Fraction(0)
    for t in range(max(0, -a1, -a2), min(jjj, j1m1, j2m2) + 1):
        den = (math.factorial(t) * math.factorial(jjj - t)
               * math.factorial(j1m1 - t) * math.factorial(j2m2 - t)
               * math.factorial(a1 + t) * math.factorial(a2 + t))
        total += Fraction((-1) ** t, den)

    radicand = _delta_fraction(tj1, tj2, tj3)
    for tj, tm in pairs:
        radicand *= (math.factorial((tj + tm) // 2)
                     * math.factorial((tj - tm) // 2))
    phase = 1 if ((tj1 - tj2 - tm3) // 2) % 2 == 0 else -1
    return phase * total * abs(total) * radicand


@lru_cache(maxsize=100000)
def _wigner_6j_twice(tj1, tj2, tj3, tj4, tj5, tj6):
    """Signed square of the 6j symbol, from twice its arguments."""
    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6),
              (tj4, tj5, tj3))
    for a, b, c in triads:
        if not _triangle_ok(a, b, c):
            return Fraction(0)

    radicand = Fraction(1)
    for a, b, c in triads:
        radicand *= _delta_fraction(a, b, c)

    a_sums = [(a + b + c) // 2 for a, b, c in triads]
    b_sums = [
        (tj1 + tj2 + tj4 + tj5) // 2,
        (tj2 + tj3 + tj5 + tj6) // 2,
        (tj3 + tj1 + tj6 + tj4) // 2,
    ]
    total = Fraction(0)
    for t in range(max(a_sums), min(b_sums) + 1):
        den = Fraction(1)
        for a in a_sums:
            den *= math.factorial(t - a)
        for b in b_sums:
            den *= math.factorial(b - t)
        total += Fraction((-1) ** t * math.factorial(t + 1), den)
    return total * abs(total) * radicand


def _root(square):
    """The float symbol sign * sqrt(|square|) of a signed square."""
    return math.copysign(math.sqrt(abs(square)), square)


def wigner_3j(j1, j2, j3, m1, m2, m3):
    """Wigner 3j symbol as a float.

    Invalid angular-momentum combinations (triangle violation, projection
    mismatch, |m| > j, parity mismatch) give exactly zero, not an error.
    """
    args = [_twice(x) for x in (j1, j2, j3, m1, m2, m3)]
    if min(args[:3]) < 0:
        return 0.0
    return _root(_wigner_3j_twice(*args))


def wigner_6j(j1, j2, j3, j4, j5, j6):
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6} as a float; zero for any
    violated triangle."""
    args = [_twice(x) for x in (j1, j2, j3, j4, j5, j6)]
    if min(args) < 0:
        return 0.0
    return _root(_wigner_6j_twice(*args))


_L_LETTERS = "SPDF"
_TERM_RE = re.compile(r"^(\d+)([A-Z])(\d+(?:/2)?)$")


class Term:
    """Parsed coupling-scheme label: multiplicity, L letter, J.

    Two conventions are supported and distinguished by the multiplicity:
    odd multiplicity (1, 3) with integer J is a two-electron LS term like
    "3P2"; multiplicity 2 with half-integer J is a single-valence-electron
    fine-structure term like "2D5/2". In both cases the angular factors use
    the same reduction with (S, L, J); S and J are Fractions, L an int.
    """

    __slots__ = ("label", "S", "L", "J")

    def __init__(self, label):
        if isinstance(label, Term):
            label, parsed = label.label, label
            self.label = label
            self.S, self.L, self.J = parsed.S, parsed.L, parsed.J
            return
        match = _TERM_RE.match(str(label).strip())
        if not match:
            raise UnsupportedTermError("cannot parse term symbol %r" % (label,))
        mult = int(match.group(1))
        letter = match.group(2)
        if letter not in _L_LETTERS:
            raise UnsupportedTermError(
                "orbital letter %r not supported (S, P, D, F only)" % letter)
        L = _L_LETTERS.index(letter)
        if mult < 1:
            raise UnsupportedTermError("bad multiplicity in %r" % (label,))
        S, J = Fraction(mult - 1, 2), Fraction(match.group(3))
        # J must be consistent with |L-S| <= J <= L+S and integer parity of S
        if not _triangle_ok(2 * L, _twice(S), _twice(J)):
            raise UnsupportedTermError(
                "J=%s incompatible with S=%s, L=%d in %r" % (J, S, L, label))
        self.label = str(label).strip()
        self.S, self.L, self.J = S, L, J

    def __repr__(self):
        return "Term(%r)" % self.label

    def __eq__(self, other):
        try:
            other = Term(other)
        except UnsupportedTermError:
            return NotImplemented
        return (self.S, self.L, self.J) == (other.S, other.L, other.J)

    def __hash__(self):
        return hash((self.S, self.L, self.J))


def max_rank(term):
    """Highest rank k the term couples to: the largest even k <= min(2J, 2L).

    Above it the geometry 3j (k > 2J) or the orbital 3j (k > 2L) vanishes,
    and every odd k is zero by the parity of the orbital 3j.
    """
    term = Term(term)
    k = min(_twice(term.J), 2 * term.L)
    return k - k % 2


def angular_factor_exact(term, k, M):
    """Exact rational angular factor A_k(term, M).

    Returns the coefficient multiplying the rank-k radial integral e_k in
    the diagonal shift of sublevel M. Zero (exact) when k is odd or above
    max_rank(term); raises UnsupportedTermError for unparseable terms and
    ValueError for an invalid M.
    """
    term = Term(term)
    k = int(k)
    if k < 0:
        raise ValueError("rank k must be >= 0")
    tS, tL, tJ = _twice(term.S), 2 * term.L, _twice(term.J)
    tM = _twice(_sublevel(term.J, M))
    if k % 2 == 1 or k > max_rank(term):
        return Fraction(0)

    # the signed square of 3j(J k J; -M 0 M) 6j{L J S; J L k} 3j(L k L; 0 0 0)
    square = (_wigner_3j_twice(tJ, 2 * k, tJ, -tM, 0, tM)
              * _wigner_6j_twice(tL, tJ, tS, tJ, tL, 2 * k)
              * _wigner_3j_twice(tL, 2 * k, tL, 0, 0, 0))
    root = Fraction(math.isqrt(abs(square.numerator)),
                    math.isqrt(square.denominator))
    if root * root != abs(square):
        raise ValueError("A_%d(%s, M=%s) is irrational: its square is %s"
                         % (k, term.label, Fraction(tM, 2), square))
    # phase (-1)^(J-M) * (-1)^(S+L+J+k) * (-1)^L; the exponent sum is an integer
    phase_twice = (tJ - tM) + (tS + tL + tJ + 2 * k) + tL
    phase = 1 if (phase_twice // 2) % 2 == 0 else -1
    if square < 0:
        phase = -phase
    return phase * root * (tJ + 1) * (tL + 1)


def angular_factor(term, k, M):
    """Angular factor A_k(term, M) as a float."""
    return float(angular_factor_exact(term, k, M))


# The 15 low-L terms tabulated for quick reference: 5 single-valence
# fine-structure terms and 10 two-electron LS terms.
TABLE_TERMS = (
    "2S1/2", "2P1/2", "2P3/2", "2D3/2", "2D5/2",
    "1S0", "3S1", "1P1", "3P0", "3P1", "3P2", "1D2", "3D1", "3D2", "3D3",
)


def reference_m(term):
    """Reference sublevel for tabulation: M=0 for integer J, else M=1/2."""
    return Fraction(0) if Term(term).J.denominator == 1 else Fraction(1, 2)


def angular_table(terms=TABLE_TERMS, ranks=(0, 2, 4)):
    """Rows (term, [A_k for k in ranks]) at the reference M, exact rationals."""
    rows = []
    for label in terms:
        m_ref = reference_m(label)
        rows.append((label, [angular_factor_exact(label, k, m_ref) for k in ranks]))
    return rows
