"""Hydrogenic radial wavefunctions, grids, and radial integrals.

Integer-n wavefunctions are evaluated from the closed-form generalized
Laguerre representation with a dynamically rescaled three-term recurrence
(everything assembled in log space), which is stable to n well above 100;
n is capped at _N_MAX = 150. One kernel, _laguerre_block, runs the
recurrence on a block of rows of one l sorted by n: step m updates only
the contiguous suffix of rows whose degree is above m, over the whole grid,
in reused buffers, with an overflow test every 8 steps; far out, exp
underflows R to 0.0.
hydrogen_radial is a block of one row.
Fractional effective quantum numbers n* are handled two ways: the production
path interpolates the radial integrals across integer n (they vary slowly
with n), and a Numerov integrator for the radial equation at arbitrary n*
serves as the independent oracle.

The production path memoizes one row of elements e_k(n, l), k = 0, 2, ...,
k_max, per (n, l) on the TensorField: the integral of r^2 R_nl^2 against
the field's stack of even-rank profiles, divided by the same quadrature of
r^2 R_nl^2 alone, the wavefunction's norm on the grid, so that the grid's
error in the norm cancels. _fill_element_memo computes the rows that a
set of states needs, one l at a time in blocks of _BLOCK = 16 rows, each
row once; potential.field_for fills every row before the first state is
evaluated. The cubic through the four integer-n rows around n* gives the
row at n*, with closed-form Lagrange weights.

The grid of potential.field_for covers n_max + 3 at 10 points per n, the
fewest that meet this target against rows at 40 points per n: every
integer-n row of n <= 150 and l <= 2 within 1e-9 of its e_0
(3.8e-11 at most), and each rank-2 and rank-4 element of n >= 30 within
5e-10 of itself (4.3e-10 at most). RadialGrid.default keeps 4000 points
unless told otherwise.

Every radial integral is a dot product with the grid's composite-Simpson
weight vector, built once per grid; it reproduces scipy.integrate.simpson
on the same points (with its last-interval correction for an even point
count) without importing scipy.

All radii are in Bohr radii (a0) and the wavefunctions satisfy
Int r^2 R_nl(r)^2 dr = 1.
"""

import math

from ._numpy import np

# largest integer n of a hydrogenic wavefunction
_N_MAX = 150
# rescaling threshold of the recurrences, a power of two so that dividing
# by it is exact, and how many Laguerre steps run between checks
_HUGE = 2.0 ** 498
_LOG_HUGE = math.log(_HUGE)
_CHECK_EVERY = 8
# rows of one l that _fill_element_memo hands the Laguerre kernel at once
_BLOCK = 16


class GridMismatchError(ValueError):
    """Raised when a radial profile does not live on the wavefunction's grid."""


def _simpson_weights(x):
    """Weights w such that w @ y is the composite Simpson integral of y(x).

    The same rule as scipy.integrate.simpson(y, x=x) in scipy 1.17:
    parabolic panels over points (0, 1, 2), (2, 3, 4), ...; for an even
    point count the panels stop at the second-to-last point and the last
    interval gets Cartwright's three-point correction. The per-panel
    coefficients are scipy's expressions, so the two agree to rounding.
    """
    npts = len(x)
    h = np.diff(x)
    stop = npts - 2 if npts % 2 else npts - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    w = np.zeros(npts)
    w[0:stop:2] += hsum / 6.0 * (2.0 - 1.0 / h0divh1)
    w[1:stop + 1:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:stop + 2:2] += hsum / 6.0 * (2.0 - h0divh1)
    if npts % 2 == 0:
        a, b = h[-2], h[-1]
        w[-1] += (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        w[-2] += (b ** 2 + 3.0 * a * b) / (6 * a)
        w[-3] -= b ** 3 / (6 * a * (a + b))
    return w


class RadialGrid:
    """Monotone radial grid in Bohr radii."""

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or len(points) < 8:
            raise ValueError("grid needs at least 8 points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if points[0] < 0:
            raise ValueError("radii must be nonnegative")
        self.points = points
        self.weights = _simpson_weights(points)

    @classmethod
    def default(cls, n_max, npoints=4000):
        """Square-root-spaced grid from 1e-3 a0 to the 2.5 n_max^2 outer bound.

        Square-root spacing equidistributes the radial oscillations of
        high-n states, so a fixed point count resolves both the inner
        oscillations and the outer turning point.
        """
        r_max = 2.5 * n_max**2
        u = np.linspace(np.sqrt(1e-3), np.sqrt(r_max), npoints)
        return cls(u * u)

    @property
    def r_max(self):
        return self.points[-1]

    def covers(self, n):
        # tolerate float roundoff of the squared outer bound
        return self.r_max >= 2.5 * n * n * (1.0 - 1e-12)

    def integrate(self, values):
        """Composite Simpson quadrature of samples along their last axis."""
        return values @ self.weights

    def __len__(self):
        return len(self.points)


class RadialWavefunction:
    """Sampled radial wavefunction R(r) with its quantum numbers."""

    def __init__(self, n, l, n_star, samples, grid):
        self.n = n
        self.l = l
        self.n_star = n_star
        self.samples = samples
        self.grid = grid

    def density(self):
        """Radial probability density r^2 R^2 on the grid."""
        return self.grid.points**2 * self.samples**2

    def norm(self):
        return self.grid.integrate(self.density())

    def node_count(self):
        """Sign changes of R(r), ignoring the numerically dead outer tail."""
        s = self.samples
        scale = np.max(np.abs(s))
        live = np.abs(s) > 1e-12 * scale
        signs = np.sign(s[live])
        return int(np.sum(signs[1:] * signs[:-1] < 0))


def _laguerre_block(k, alpha, x):
    """log|L_(k_i)^alpha(x_i)| and sign for a block of rows, via the rescaled
    recurrence.

    Row i of the (rows, W) array x >= 0 holds the arguments of degree
    k[i]. The degrees must not decrease down the block, so the rows with
    k > m form a contiguous suffix, and step m of the three-term
    recurrence in the degree,
    (m+1) L_(m+1) = (2m+1+alpha-x) L_m - (m+alpha) L_(m-1),
    runs on that suffix alone, over the whole grid. A row whose degree is
    reached keeps L_k, and its log-scale offset, in a result buffer; the
    steps rotate three reused buffers through out= ufuncs and compute,
    point by point, the same expression in the same order as the plain
    recurrence.

    The values overflow for the k ~ n seen here, so each point carries a
    log-scale offset. Every _CHECK_EVERY = 8 steps, a point where |L_m| or
    |L_(m-1)| exceeds _HUGE = 2^498 has both divided by _HUGE. Dividing by
    a power of two is exact and the recurrence is linear, so the carried
    values are the unscaled ones times a power of two wherever the check
    runs; only the split of log|L| between log|value| and the offset, and
    so the rounding of their sum, can depend on it.

    Eight unchecked steps cannot overflow. For 0 <= x <= X one step gives
    |L_(m+1)| <= g max(|L_m|, |L_(m-1)|) with
    g = (|2m+1+alpha-x| + m+alpha)/(m+1) <= (3m+1+2 alpha+X)/(m+1)
    < 3 + alpha + X/2 for m >= 1. Right after a check (and at the start,
    |L_1| = |1+alpha-x| <= 1+alpha+X) every value is at most 2^498, so
    eight steps later it is at most 2^498 g^8, finite while g < 2^65; a
    rescaled value is then at most g^8 <= 2^498 again. _radial_rows passes
    x = rho = 2r/n <= 2 r_max/n, bounded by the grid alone: on
    RadialGrid.default(303), r_max = 2.5 * 303^2, so rho <= 459,045 for
    every n >= 1, and for n <= 303, alpha = 2l+1 < 606, that gives
    g < 2^18, so every value stays below 2^642. The bound does not depend
    on _N_MAX.
    """
    value = np.ones_like(x)                    # L_0
    offset = np.zeros_like(x)
    value_offset = np.zeros_like(x)
    prev = np.ones_like(x)
    cur = 1.0 + alpha - x                      # L_1
    nxt = np.empty_like(x)
    tmp = np.empty_like(x)
    done = int(np.searchsorted(k, 0, side="right"))
    stop = int(np.searchsorted(k, 1, side="right"))
    value[done:stop] = cur[done:stop]
    for m in range(1, k[-1]):
        start = stop
        t = tmp[start:]
        np.subtract(2 * m + 1 + alpha, x[start:], out=t)
        np.multiply(t, cur[start:], out=t)
        q = nxt[start:]
        np.multiply(m + alpha, prev[start:], out=q)
        np.subtract(t, q, out=q)
        np.divide(q, m + 1, out=q)
        prev, cur, nxt = cur, nxt, prev
        if m % _CHECK_EVERY == 0:
            c, p = cur[start:], prev[start:]
            big = (np.abs(c) > _HUGE) | (np.abs(p) > _HUGE)
            if big.any():
                c[big] /= _HUGE
                p[big] /= _HUGE
                offset[start:][big] += _LOG_HUGE
        stop = int(np.searchsorted(k, m + 1, side="right"))
        value[start:stop] = cur[start:stop]
        value_offset[start:stop] = offset[start:stop]
    sign = np.where(value >= 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(value)) + value_offset
    return logmag, sign


def _radial_rows(ns, l, grid):
    """R_nl on the grid for n in ns (nondecreasing), one row per n.

    Stable at high n: the Laguerre polynomial, the r^l power and the
    exponential are combined in log space point by point. Far past the
    outer turning point the sum falls below -745.2 and exp underflows to
    exactly 0.0.
    """
    lognorm = [0.5 * (3 * np.log(2.0 / n) + math.lgamma(n - l)
                      - np.log(2.0 * n) - math.lgamma(n + l + 1)) for n in ns]
    ns = np.asarray(ns)
    rho = 2.0 * grid.points / ns[:, None]
    loglag, sign = _laguerre_block(ns - l - 1, 2 * l + 1, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpow = l * np.log(rho) if l > 0 else np.zeros_like(rho)
        samples = sign * np.exp(np.asarray(lognorm)[:, None] + logpow
                                - rho / 2.0 + loglag)
    return np.where(np.isfinite(samples), samples, 0.0)


def hydrogen_radial(n, l, grid):
    """Normalized hydrogen R_nl sampled on grid (atomic units): a block of
    one row of _radial_rows."""
    n, l = int(n), int(l)
    if not 1 <= n <= _N_MAX:
        raise ValueError("n out of supported range [1, %d]" % _N_MAX)
    if not 0 <= l < n:
        raise ValueError("require 0 <= l < n, got l=%d n=%d" % (l, n))
    return RadialWavefunction(n, l, float(n), _radial_rows([n], l, grid)[0],
                              grid)


def numerov_radial(n_star, l, grid):
    """Coulomb-potential radial wavefunction at fractional n* via Numerov.

    Solves u'' = f(r) u for u = r R with E = -1/(2 n*^2), transformed to
    x = sqrt(r) where the grid is uniform: v'' = G(x) v with u = sqrt(x) v
    and G = 4 x^2 f(x^2) + 3/(4 x^2). Integration runs inward from the
    classically forbidden outer region. For non-integer n* the solution is
    irregular at the origin; it is cut inside half the inner turning point,
    where the density r^2 R^2 is negligible for the states of interest.
    """
    n_star = float(n_star)
    l = int(l)
    if n_star <= l:
        raise ValueError("require n* > l")
    x = np.sqrt(grid.points)
    dx = np.diff(x)
    if not np.allclose(dx, dx[0], rtol=1e-8):
        raise GridMismatchError("Numerov integration needs a sqrt-spaced grid")
    h = dx[0]
    r = grid.points

    with np.errstate(divide="ignore"):
        f = l * (l + 1) / r**2 - 2.0 / r + 1.0 / n_star**2
        g = 4.0 * r * f + 3.0 / (4.0 * r)      # G(x) with r = x^2

    # the recurrence runs on Python floats, which take the same IEEE
    # double steps in the same order as numpy scalars at a fraction of
    # the cost per element
    npts = len(x)
    v = [0.0] * npts
    v[-2] = 1e-12
    w = (1.0 - (h * h / 12.0) * g).tolist()
    # Numerov: v_{i-1} = ((12 - 10 w_i) v_i - w_{i+1} v_{i+1}) / w_{i-1}
    for i in range(npts - 2, 0, -1):
        v[i - 1] = ((12.0 - 10.0 * w[i]) * v[i] - w[i + 1] * v[i + 1]) / w[i - 1]
        if abs(v[i - 1]) > _HUGE:
            # rescale every finished sample so the outer ones stay on the
            # same scale as the still-running inner ones; those inside
            # are still 0.0
            v[i - 1:] = [value / _HUGE for value in v[i - 1:]]
    u = np.sqrt(x) * np.array(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.where(r > 0, u / r, 0.0)

    # Inward integration amplifies the irregular solution near the origin,
    # and the uniform-in-x step cannot resolve the centrifugal 1/x^2 term
    # there (h^2 G >> 1). Cut the unresolved inner region and, for
    # non-integer n*, everything inside half the inner turning point; the
    # density r^2 R^2 is negligible in both for the high-n states used here.
    r_cut = 0.0
    unresolved = np.nonzero(h * h * np.abs(g) > 0.3)[0]
    if len(unresolved) and unresolved[0] == 0:
        last = np.nonzero(np.diff(unresolved) > 1)[0]
        stop = unresolved[-1] if not len(last) else unresolved[last[0]]
        r_cut = r[stop + 1]
    if abs(n_star - round(n_star)) > 1e-9 and l > 0:
        # inner turning point r- = n*^2 (1 - sqrt(1 - l(l+1)/n*^2))
        arg = 1.0 - l * (l + 1) / n_star**2
        r_in = n_star**2 * (1.0 - np.sqrt(max(arg, 0.0)))
        r_cut = max(r_cut, 0.5 * r_in)
    if r_cut > 0.0:
        R = np.where(r < r_cut, 0.0, R)

    norm = grid.integrate(r**2 * R**2)
    R = R / np.sqrt(norm)
    return RadialWavefunction(None, l, n_star, R, grid)


def radial_integral(wf, profile):
    """Int r^2 R(r)^2 f(r) dr for a diagonal wavefunction.

    The profile is sampled on the wavefunction's own grid along its last
    axis; a (K, npts) stack of profiles gives K integrals at once. Radial
    profiles from an intensity decomposition already carry the grid they
    were built on.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.shape[-1:] != wf.samples.shape:
        raise GridMismatchError("profile shape %s does not end in the grid "
                                "length %d" % (profile.shape, len(wf.samples)))
    return wf.grid.integrate(wf.density() * profile)


def _bracket(n_star, l):
    """n0 = floor(n*), once the integer-n rows n0 - 1 .. n0 + 2 of the
    cubic at n* are known to exist: above l + 1 and within the cap."""
    if n_star <= l:
        raise ValueError("require n* > l")
    n_lo = math.floor(n_star)
    if n_lo - 1 < l + 1:
        raise ValueError("n* = %.3f too low for a 4-point bracket at l=%d"
                         % (n_star, l))
    if n_lo + 2 > _N_MAX:
        raise ValueError("n* = %.3f at l=%d needs integer n up to %d, past "
                         "the hydrogenic cap n <= %d"
                         % (n_star, l, n_lo + 2, _N_MAX))
    return n_lo


def _fill_element_memo(field, levels):
    """Put in field.element_cache every integer-n row e_k(n, l) that the
    cubics at levels, (n*, l) pairs, need; each missing row is computed
    once, one l at a time, in blocks of _BLOCK rows sorted by n.

    Row (n, l) is the integral of r^2 R_nl^2 against the field's profile
    stack, divided by the same quadrature of r^2 R_nl^2 alone: the
    wavefunction's norm on the grid. A level whose bracket fails raises
    the ValueError that interpolated_reduced_element would, before any
    row is computed.
    """
    missing = {}
    for n_star, l in levels:
        n_star, l = float(n_star), int(l)
        n_lo = _bracket(n_star, l)
        if not field.grid.covers(n_lo + 2):
            raise ValueError("field grid does not cover the n=%d bracket"
                             % (n_lo + 2))
        missing.setdefault(l, set()).update(
            n for n in range(n_lo - 1, n_lo + 3)
            if (n, l) not in field.element_cache)
    density_weights = field.grid.points ** 2 * field.grid.weights
    for l, ns in sorted(missing.items()):
        ns = sorted(ns)
        for i in range(0, len(ns), _BLOCK):
            block = ns[i:i + _BLOCK]
            samples = _radial_rows(block, l, field.grid)
            weighted = samples * samples * density_weights
            rows = weighted @ field.profiles.T
            for n, row, norm in zip(block, rows, weighted.sum(axis=1)):
                field.element_cache[n, l] = row / norm


def interpolated_reduced_element(n_star, l, field):
    """Row e_k over even k at fractional n*, interpolated across integer n.

    The integer-n integrals vary slowly with n, so the cubic through the
    four surrounding integer-n rows n0 - 1 .. n0 + 2, n0 = floor(n*),
    reproduces the fractional-n* elements. It is evaluated in Lagrange form
    at t = n* - n0; at integer n* the weights are exactly (0, 1, 0, 0), so
    the integer-n row comes back unchanged. The rows come from
    field.element_cache; _fill_element_memo computes those it lacks.
    """
    n_star, l = float(n_star), int(l)
    _fill_element_memo(field, [(n_star, l)])
    n_lo = math.floor(n_star)
    t = n_star - n_lo
    weights = (-t * (t - 1.0) * (t - 2.0) / 6.0,
               (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
               -(t + 1.0) * t * (t - 2.0) / 2.0,
               (t + 1.0) * t * (t - 1.0) / 6.0)
    return sum(w * field.element_cache[n, l]
               for w, n in zip(weights, range(n_lo - 1, n_lo + 3)))
