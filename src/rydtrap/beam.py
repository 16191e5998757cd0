"""Gaussian tweezer intensity and its Legendre decomposition about the focus.

The trap light is the paraxial Gaussian solution propagating along z, with
its focus at the origin. About the focus the intensity does not depend on
the azimuth about the beam axis and is even under z -> -z, so it expands
in even Legendre polynomials only,

    I(r) = sum_(k even) f_k(r) P_k(cos theta),

theta measured from the beam axis. decompose gets the profiles f_k,
k = 0, 2, ..., k_max, at every grid radius from a Gauss-Legendre rule in
cos(theta), with an automatic refinement check; a TensorField keeps them
as one (k_max/2 + 1, npts) stack, together with the TweezerBeam they were
decomposed from. The tensor path reads only these profiles and rotates
them onto a tilted quantization axis by P_k(cos beta).

brute_force_average is the independent oracle: the direct 3D quadrature of
the wavefunction-averaged intensity over a (theta, phi) product rule that
refines each angle by doubling until two levels agree. The angular rule
runs at nested Chebyshev-Lobatto radii, not at every radius of the
wavefunction's grid: the angular sum is smooth in sqrt(r) on the scale of
the waist, so its interpolant through 17, 33, 65, ... radii, refined the
same way, is integrated against the density by the grid's own Simpson
rule, with per-node weights from the density's Chebyshev moments
(_chebyshev_moments, _lobatto_weights), so its cost does not grow with
the grid. It assumes no symmetry and does not branch on the axis; it uses
nothing of the tensor path (no profiles, Legendre projection, angular
factors or n* interpolation), so a fault there cannot cancel in the
comparison. The |Y_lm| helper _ylm_theta builds the densities it is
handed; the tensor path does not use it.

Both the axial rule and the oracle sum the intensity over their nodes
through one kernel, _intensity_sums, which works along each node's ray in
scaled coordinates and in fixed-size blocks, so that memory does not grow
with the radial grid: two matrix products form each block's coordinates
from [r^2, r, 1] and per-node coefficients. It evaluates the intensity by
_gaussian_profile, the formula TweezerBeam.intensity also uses, so the
package has one intensity formula. Besides numpy's Gauss-Legendre rules,
which both read from _gauss_legendre, built once per node count, the
kernel is the one piece the oracle shares with the tensor path; the tests
check it against the textbook Gaussian in extended precision, and in
every blocking against the direct sum of TweezerBeam.intensity over the
whole point array.
"""

import functools
import itertools
import math
import warnings

from ._numpy import np
from .constants import A0, C

# brute_force_average's rule: its first theta and phi node counts and
# radial degree, the phi offset in rad, and the doublings of any of the
# three before it gives up
_THETA_START, _PHI_START, _RADIAL_START = 32, 8, 16
_PHI_OFFSET = math.sqrt(2.0) - 1.0
_MAX_DOUBLINGS = 5
# largest profile move, over I0, decompose allows from 32 to 48 nodes
_DECOMPOSE_TOL = 1e-6
# largest relative move of brute_force_average's result per doubling
_ORACLE_TOL = 1e-10
# most (radius, node) points _intensity_sums evaluates in one block
_NODE_CHUNK = 1 << 15


class ParaxialValidityWarning(UserWarning):
    """Waist within ~2 wavelengths: the paraxial profile is approximate."""


class QuadratureConvergenceError(RuntimeError):
    """Refining the angular rule moved a profile by more than tolerance."""


class TweezerBeam:
    """Focused Gaussian beam along z: wavelength, 1/e^2 waist, power.

    The focus is the origin of the lab frame.
    """

    def __init__(self, wavelength, waist, power):
        if not (0 < wavelength < math.inf and 0 < waist < math.inf):
            raise ValueError("wavelength and waist must be positive and "
                             "finite, got %g m and %g m" % (wavelength, waist))
        if not 0 <= power < math.inf:
            raise ValueError("power must be nonnegative and finite, got %g W"
                             % power)
        self.wavelength = float(wavelength)
        self.waist = float(waist)
        self.power = float(power)
        if waist < 2 * wavelength:
            warnings.warn(
                "waist %.3g m is within two wavelengths of %.3g m; the "
                "paraxial Gaussian profile is approximate at this focusing"
                % (waist, wavelength), ParaxialValidityWarning, stacklevel=2)

    @property
    def rayleigh_range(self):
        return math.pi * self.waist**2 / self.wavelength

    @property
    def peak_intensity(self):
        return 2.0 * self.power / (math.pi * self.waist**2)

    @property
    def angular_frequency(self):
        return 2.0 * math.pi * C / self.wavelength

    def with_power(self, power):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParaxialValidityWarning)
            return TweezerBeam(self.wavelength, self.waist, power)

    def intensity(self, points):
        """Paraxial intensity at lab-frame points, shape (..., 3) in m."""
        points = np.asarray(points, dtype=float)
        rho2 = np.asarray((points[..., 0]**2 + points[..., 1]**2)
                          * (2.0 / self.waist**2))
        neg_q = np.asarray(-1.0 - (points[..., 2] / self.rayleigh_range)**2)
        return -self.peak_intensity * _gaussian_profile(rho2, neg_q)


def _gaussian_profile(rho2, neg_q):
    """-I/I0 of the paraxial Gaussian, written over rho2 and returned.

    In scaled coordinates, rho2 = 2 rho^2/w0^2 off the axis and
    q = 1 + (z/z_R)^2 along it, I/I0 = exp(-rho2/q)/q. The caller passes
    -q, which folds the sign into the divisions. The three passes, divide,
    exp and divide, are in place and make no temporary; the caller
    multiplies by -I0 once.
    """
    np.divide(rho2, neg_q, out=rho2)
    np.exp(rho2, out=rho2)
    np.divide(rho2, neg_q, out=rho2)
    return rho2


def _ylm_theta(l, m, cos_theta):
    """The theta factor of Y_lm, without the Condon-Shortley phase.

    sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!) P_l^|m|(cos theta): the density
    |Y_lm(theta, phi)|^2 is its square at every phi, for either sign of m,
    and it is zero for |m| > l. P_l^|m| comes from the upward recurrence in
    l, (l-|m|) P_l = (2l-1) x P_(l-1) - (l+|m|-1) P_(l-2), started at
    P_|m|^|m| = (2|m|-1)!! (1-x^2)^(|m|/2) with no (-1)^m, so no phase is
    built in to cancel and no scipy module is needed.
    """
    am = abs(m)
    x = np.asarray(cos_theta, dtype=float)
    if am > l:
        return np.zeros_like(x)
    lognorm = 0.5 * (np.log((2 * l + 1) / (4.0 * np.pi))
                     + math.lgamma(l - am + 1) - math.lgamma(l + am + 1))
    p = math.prod(range(1, 2 * am, 2)) * np.sqrt((1.0 - x) * (1.0 + x)) ** am
    prev = 0.0
    for j in range(am + 1, l + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j + am - 1) * prev) / (j - am)
    return np.exp(lognorm) * p


class TensorField:
    """Even-rank Legendre profiles f_k(r) of the intensity about the focus.

    profiles is the contiguous (k_max/2 + 1, npts) stack, and its row
    profiles[k // 2] is f_k on the grid's radii. beam is the
    TweezerBeam they were decomposed from. refinement_residual is the
    largest profile move, over peak intensity, that decompose's refinement
    check saw. element_cache maps (n, l) to the row of radial elements
    e_k(n, l) against profiles, each divided by the wavefunction's norm on
    the grid, filled by the radial module.
    """

    def __init__(self, grid, profiles, beam, refinement_residual):
        self.grid = grid
        self.profiles = profiles
        self.beam = beam
        self.refinement_residual = refinement_residual
        self.element_cache = {}

    @property
    def k_max(self):
        return 2 * (len(self.profiles) - 1)


def _product_nodes(cos_theta, phi):
    """Flattened (cos theta, phi) product nodes and their (3, nodes) unit
    vectors, one contiguous row per Cartesian component."""
    ct = np.repeat(cos_theta, len(phi))
    ph = np.tile(phi, len(cos_theta))
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    return ct, ph, np.stack([st * np.cos(ph), st * np.sin(ph), ct])


def _intensity_sums(beam, position, r_m, nhat, weights):
    """I(position + r nhat) @ weights at every radius, in bounded chunks.

    nhat is (3, nodes) and weights is (nodes,) or (nodes, columns). The
    axial decomposition and the oracle both sum through here, and so
    through _gaussian_profile, the formula TweezerBeam.intensity uses.
    No point is formed: along the ray of a node, 2 rho^2/w0^2 and
    -q = -1 - (z/z_R)^2 are quadratics in r. Each is one matrix product
    of a (radii, 3) table of [r^2, r, 1] with a (3, nodes) table of its
    per-node coefficients, both built once per call. The zero off-axis
    terms of a ray on the axis are computed like any other, so nothing
    branches on the position.

    The points go in blocks of at most _NODE_CHUNK = 2^15 (radius, node)
    pairs, whole radii at a time when a radius has fewer nodes than that.
    Each block is two contiguous (radii, nodes) arrays cut from two
    reused 256 kB buffers, which stay in L2: two matrix products write
    them, _gaussian_profile takes three passes over them in place, and
    one product with weights sums them. The sums are scaled by -I0 once
    at the end. So memory does not grow with the grid: on grids of 430,
    1,430 and 12,120 radii an on-axis decompose traces a 0.58, 0.67 and
    1.53 MB peak, and an on-axis oracle call for an s state 0.72 MB on
    its 4,000-point grid and 0.78 MB on 5,720 points.
    """
    n_nodes = nhat.shape[1]
    node_step = min(n_nodes, _NODE_CHUNK)
    radius_step = max(1, _NODE_CHUNK // node_step)
    scale = 2.0 / beam.waist**2
    px, py, pz = position
    nx, ny, nz = nhat
    a_z = nz / beam.rayleigh_range
    b_z = pz / beam.rayleigh_range
    powers = np.stack([r_m * r_m, r_m, np.ones_like(r_m)], axis=1)
    rho2_rows = np.stack([scale * (nx * nx + ny * ny),
                          (2.0 * scale) * (px * nx + py * ny),
                          np.full(n_nodes, scale * (px * px + py * py))])
    neg_q_rows = np.stack([-(a_z * a_z), (-2.0 * b_z) * a_z,
                           np.full(n_nodes, -1.0 - b_z * b_z)])
    rho2_buf = np.empty(radius_step * node_step)
    neg_q_buf = np.empty(radius_step * node_step)
    out = np.zeros((len(r_m),) + weights.shape[1:])
    for j in range(0, n_nodes, node_step):
        cols = slice(j, j + node_step)
        width = min(node_step, n_nodes - j)
        for i in range(0, len(r_m), radius_step):
            rows = powers[i:i + radius_step]
            size = len(rows) * width
            rho2 = np.matmul(rows, rho2_rows[:, cols],
                             out=rho2_buf[:size].reshape(len(rows), width))
            neg_q = np.matmul(rows, neg_q_rows[:, cols],
                              out=neg_q_buf[:size].reshape(len(rows), width))
            out[i:i + radius_step] += _gaussian_profile(rho2, neg_q) \
                @ weights[cols]
    out *= -beam.peak_intensity
    return out


@functools.cache
def _gauss_legendre(n):
    """numpy's n-node Gauss-Legendre rule on [-1, 1], (nodes, weights),
    built once per n and handed out read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for array in rule:
        array.flags.writeable = False
    return rule


def _axial_profiles(beam, r_m, k_max, n_theta):
    """The (k_max/2 + 1, radii) stack of even-rank profiles about the focus.

    There the intensity does not depend on phi, so, by Gauss-Legendre,
    f_k(r) = (2k+1)/2 sum_i w_i I(r, x_i) P_k(x_i) with x = cos(theta).
    """
    ct, w_theta = _gauss_legendre(n_theta)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    nhat = np.stack([st, np.zeros_like(ct), ct])
    wmat = np.polynomial.legendre.legvander(ct, k_max)[:, ::2] \
        * w_theta[:, None] * (np.arange(0, k_max + 1, 2) + 0.5)
    return np.ascontiguousarray(
        _intensity_sums(beam, np.zeros(3), r_m, nhat, wmat).T)


def decompose(beam, grid, k_max):
    """Expand the intensity about the focus into even-rank Legendre profiles.

    k_max must be even. The profiles come from a Gauss-Legendre rule in
    cos(theta), exact for harmonics up to its order. A coarse pass of 32
    nodes is compared with the returned pass of 48; if a profile moved by
    more than _DECOMPOSE_TOL of I0, QuadratureConvergenceError is raised,
    and otherwise the largest move over I0 is kept as the field's
    refinement_residual. Radii on the grid are in Bohr radii.
    """
    k_max = int(k_max)
    if k_max % 2 or not 0 <= k_max <= 12:
        raise ValueError("k_max must be even and in [0, 12], got %d" % k_max)
    r_m = grid.points * A0
    fine = _axial_profiles(beam, r_m, k_max, 48)
    coarse = _axial_profiles(beam, r_m, k_max, 32)
    residual = np.max(np.abs(fine - coarse)) \
        / max(beam.peak_intensity, 1e-300)
    if not residual <= _DECOMPOSE_TOL:  # a NaN residual fails too
        raise QuadratureConvergenceError(
            "angular quadrature not converged: refinement moved a "
            "profile by %.3g of peak intensity (tol %.3g)"
            % (residual, _DECOMPOSE_TOL))
    return TensorField(grid, fine, beam, residual)


def _chebyshev_moments(x, mass):
    """mass @ T_k(x) for k = 0, 1, 2, ..., one per next(), by the
    three-term recurrence T_(k+1) = 2 x T_k - T_(k-1); no (points, k)
    array is formed, and the first M + 1 moments do not depend on how many
    more are drawn."""
    previous, current = np.ones_like(x), x
    yield mass.sum()
    while True:
        yield mass @ current
        previous, current = current, 2.0 * x * current - previous


def _lobatto_weights(moments):
    """Weights W_j of the Chebyshev-Lobatto nodes x_j = cos(j pi/M),
    M = len(moments) - 1: sum_j W_j f(x_j) is the integral of f's
    degree-M interpolant against the measure whose Chebyshev moments are
    given. That interpolant is sum_k'' c_k T_k with
    c_k = (2/M) sum_j'' f(x_j) cos(jk pi/M), the primes halving the end
    terms, so W is one (M+1)^2 cosine transform of the moments; jk is
    reduced mod 2M before it meets pi."""
    m = len(moments) - 1
    j = np.arange(m + 1)
    half = np.ones(m + 1)
    half[[0, m]] = 0.5
    cosines = np.cos(np.outer(j, j) % (2 * m) * (np.pi / m))
    return (2.0 / m) * half * (cosines @ (half * np.asarray(moments)))


def brute_force_average(beam, wf, position, angular_density):
    """Direct 3D quadrature of the wavefunction-averaged intensity.

    Computes Int |R_nl(r)|^2 rho(theta, phi) I(position + r) d3r without
    any tensor expansion; this is the oracle for the decomposed path. wf
    gives the radial density and angular_density(cos_theta, phi) gives
    rho, normalized to integrate to 1 over the sphere: for psi = R_nl Y_lm
    it is _ylm_theta(l, m, cos_theta)**2 at every phi.

    The angular integral is a (theta, phi) product rule that refines
    itself and assumes no symmetry of the beam, the position or the
    density. In theta it is Gauss-Legendre in cos(theta), from 32 nodes,
    doubling. At each theta rule phi is a trapezoid rule from 8 nodes,
    doubling; each doubling evaluates only the midpoints and adds them to
    the sums kept from the earlier nodes. The phi nodes are offset by
    sqrt(2) - 1 rad, not a rational multiple of pi, so none lies on a
    mirror plane of a symmetric beam or density. Harmonics in phi below
    order 8 are exact at 8 nodes, and one of order 8, which 8 nodes alias,
    moves the first check (8 against 16 nodes). On the beam axis the rule
    stops at 32 -> 64 theta and 8 -> 16 phi nodes, 1,536 evaluations per
    radius.

    The angular rule runs only at a few radii, not at every radius of the
    wavefunction's grid. Its result A(r) = sum rho I(position + r nhat)
    varies on the scale of the waist, not of the wavefunction's nodes, so
    in s = sqrt(r/r_max) it is a smooth function that a polynomial of a
    few dozen degrees reproduces to rounding. The radii are the
    Chebyshev-Lobatto points r_j = r_max s_j^2, s_j = (1 + cos(j pi/M))/2,
    of degree M = 16, doubling, which nest as Clenshaw-Curtis rules do.
    Each A(r_j) meets the weight W_j = sum_i w_i D_i l_j(s_i): the grid's
    Simpson weights w_i and radial density D_i times the Lagrange basis
    polynomial of node j, so the radial integral is the grid's Simpson
    rule applied to the density times the degree-M interpolant of A. W
    is the cosine transform (_lobatto_weights) of the Chebyshev moments
    sum_i w_i D_i T_k(2 s_i - 1), which the recurrence
    (_chebyshev_moments) gives one grid pass at a time, degree M's being
    a prefix of degree 2M's; no (grid, node) array is formed, and the
    number of intensity evaluations does not depend on the grid's size.
    At each degree the whole (theta, phi) rule refines again.

    r, theta and phi refine through one loop, converged, which draws a
    variable's estimates, one per doubling, from a generator of (value,
    rule) pairs and returns the first value within _ORACLE_TOL relative
    of the one before it; if _MAX_DOUBLINGS doublings do not get there,
    QuadratureConvergenceError names the variable, the rule and the
    residual reached. The generators nest: each radial degree's value is
    the converged theta estimate at its radii, and each theta rule's the
    converged phi estimate at its nodes.

    Every value is the paraxial intensity at a quadrature point, from
    _intensity_sums, summed against the density and the weights. The
    radial nodes and weights come from the wavefunction's grid alone, and
    the Chebyshev helpers serve only the oracle: the tensor path takes
    its profiles at every radius of the field's grid and interpolates
    nothing in r. Nothing here uses the tensor path's profiles, its
    Legendre projection, its angular factors or its n* interpolation, so
    the oracle shares none of the shortcuts it checks.
    """
    position = np.asarray(position, dtype=float)
    grid = wf.grid
    moments = _chebyshev_moments(
        2.0 * np.sqrt(grid.points / grid.r_max) - 1.0,
        grid.weights * wf.density())
    floor = max(beam.peak_intensity * 1e-12, 1e-300)

    def converged(estimates, name):
        """The first of the (value, rule) estimates, one per doubling, that
        lies within _ORACLE_TOL of the one before it."""
        residual = np.inf
        value, rule = next(estimates)
        for estimate, rule in itertools.islice(estimates, _MAX_DOUBLINGS):
            previous, value = value, estimate
            residual = abs(value - previous) / max(abs(value), floor)
            if residual <= _ORACLE_TOL:
                return value
        raise QuadratureConvergenceError(
            "3D quadrature not converged in %s: %s moved the average by "
            "%.3g relative (tol %.3g)" % (name, rule, residual, _ORACLE_TOL))

    def doublings(start):
        return (start << k for k in itertools.count())

    def radial_estimates():
        known = []
        for degree in doublings(_RADIAL_START):
            known.extend(itertools.islice(moments, degree + 1 - len(known)))
            s = 0.5 + 0.5 * np.cos(np.pi * np.arange(degree + 1) / degree)
            r_m = (grid.r_max * A0) * s * s
            yield (converged(theta_estimates(_lobatto_weights(known), r_m),
                             "theta"), "%d radial nodes" % (degree + 1))

    def theta_estimates(radial, r_m):
        for n_theta in doublings(_THETA_START):
            yield (converged(phi_estimates(radial, r_m, n_theta), "phi"),
                   "%d theta nodes" % n_theta)

    def phi_estimates(radial, r_m, n_theta):
        cos_theta, w_theta = _gauss_legendre(n_theta)
        sums, new = 0.0, np.arange(_PHI_START)
        for n_phi in doublings(_PHI_START):
            ct, ph, nhat = _product_nodes(
                cos_theta, _PHI_OFFSET + 2.0 * np.pi * new / n_phi)
            weights = np.repeat(w_theta, len(new)) * angular_density(ct, ph)
            sums += _intensity_sums(beam, position, r_m, nhat, weights)
            yield ((radial @ sums) * (2.0 * np.pi / n_phi),
                   "at %d theta nodes, %d phi nodes" % (n_theta, n_phi))
            new = np.arange(1, 2 * n_phi, 2)  # the midpoints

    return converged(radial_estimates(), "r")
