"""The Legendre helpers of numpy.polynomial.legendre that rydtrap uses.

leggauss, legval, legder and legvander are ported from numpy 2.4
(numpy/polynomial/legendre.py; copyright (c) 2005-2025 NumPy Developers,
BSD 3-clause licence) for the cases the package needs: a 1-D coefficient
list, float points and rules of two or more nodes. Each does numpy's
operations in numpy's order, so its results are bit-equal to numpy's:
tests/test_beam.py checks every rule the oracle can reach, and P_k,
k <= 12, at the axial rule's nodes and at the cosines of tilted axes.
Taking them from here spares every field command the import of
numpy.polynomial; the eigenvalue solver leggauss needs, numpy.linalg, is
loaded with numpy.
"""

from ._numpy import np


def legval(x, c):
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, for a float or an array
    x and a sequence c of floats."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = (c[nd - 2] - c1 * ((nd - 1) / nd),
                  c0 + c1 * x * ((2 * nd - 1) / nd))
    return c0 + c1 * x


def legder(c):
    """The coefficients of the derivative of the series c, len(c) >= 2."""
    c = list(c)
    n = len(c) - 1
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * c[j]
        c[j - 2] += c[j]
    if n > 1:
        der[1] = 3 * c[2]
    der[0] = c[1]
    return der


def legvander(x, deg):
    """The (points, deg + 1) matrix of P_0(x), ..., P_deg(x), by the upward
    recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)."""
    x = np.array(x, dtype=float, ndmin=1) + 0.0
    v = np.empty((deg + 1,) + x.shape)
    v[0] = x * 0 + 1
    if deg > 0:
        v[1] = x
        for i in range(2, deg + 1):
            v[i] = (v[i - 1] * x * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return np.moveaxis(v, 0, -1)


def leggauss(n):
    """The n-node Gauss-Legendre rule on [-1, 1], (nodes, weights), n >= 2.

    The nodes are the eigenvalues of P_n's symmetric companion matrix, each
    improved by one Newton step. The weights are 1/(P_(n-1) P_n') at the
    nodes, each factor first scaled by its largest magnitude, so that no
    product overflows; both are symmetrised about 0, and the weights
    rescaled to sum to 2.
    """
    c = [0.0] * n + [1.0]
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    companion = np.zeros((n, n))
    off_diagonal = np.arange(1, n) * scale[:n - 1] * scale[1:n]
    companion.reshape(-1)[1::n + 1] = off_diagonal
    companion.reshape(-1)[n::n + 1] = off_diagonal
    x = np.linalg.eigvalsh(companion)
    dy = legval(x, c)
    df = legval(x, legder(c))
    x -= dy / df
    fm = legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w
