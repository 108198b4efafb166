"""Numerical certification of the uniform-data model in two dimensions.

The population objective under study is

    F(w) = eps/2 * ||w||^2 + E[ L(w1 * r + w2 * x2) ],
    r ~ U(0, 1),  x2 ~ U(-1, 1),

with L the ramp loss.  Because L is piecewise affine, the expectation splits
the rectangle [0,1] x [-1,1] along the two lines w1*r + w2*x2 = 0 and = 1:
the loss is constant 1 below the first line, affine in between, and 0 above
the second.  Clipping the rectangle against those half-planes and applying
the shoelace moment formulas integrates each piece exactly, which is what
lets the stationarity residuals be resolved to 1e-8 and beyond (Monte Carlo
or fixed quadrature cannot get close).  The clip works on arrays of w:
each polygon's segment ends are (u, v) pairs of arrays, one row per
coordinate and one column per segment (see ``_clip``), and w = 0 needs no
special case.

Away from the origin the gradient of F is the residual eps*w - m(w)/2, where
m(w) is the integral of x = (u, v) over the band {0 <= w.x <= 1} of the
rectangle (x has density 1/2 there).

The stationary-point scan is an exclusion certificate.  For each eps it
proves that F has exactly one stationary point in the plane and reports it,
or reports no point.  Four facts, derived in ``scan_stationary_points``,
carry the proof: no stationary point has w1 <= 0; none lies beyond
R(eps) = (sqrt(5)/(2 eps))^(1/3); inside the disk ||w|| <= 1/sqrt(2) a
closed-form lemma leaves only (1/(2 eps), 0), there exactly when
eps >= 1/sqrt(2); and elsewhere a quadtree on eps's own root square
[-B(eps), B(eps)]^2, which spans R(eps), drops every cell on which a proved
bound shows the residual cannot vanish.  Each cut allows for a proved bound
on its rounding.  The tree stops as soon as one box around its live cells,
holding the disk point where there is one, provably holds exactly one root:
by Krawczyk's interval Newton test on a rigorous enclosure of the Jacobian
over the box, or, where the residual is not smooth in the box (the kink at
eps = 1/2's root), by strong monotonicity.  Where no cell survives, the
disk point is the one root, by the lemma.  The same tests, run again on
the proved box, contract it about the root, and the contracted box's
midpoint is the reported point, if its residual is at most 1e-8.  An eps
whose tree finds no such box reports no point.

Known closed forms certified here: the objective restricted to the first
axis, the unique stationary point w1 = (2 eps)^(-1/3) (for eps <= 1/2) or
1/(2 eps) (for eps > 1/2) with w2 = 0, the minimum value 3*(eps/32)^(1/3) or
1 - 1/(8 eps), and the origin's one-sided derivatives -1/2 along +e1 and 0
along -e1, which have a closed form of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformModel",
    "f_epsilon",
    "stationarity_residual",
    "origin_directional_derivative",
    "origin_directional_derivatives",
    "outer_radius",
    "root_half_width",
    "scan_stationary_points",
    "closed_form_minimizer",
]

# the rectangle [0,1] x [-1,1] as its CCW boundary segments p -> q, each
# end a (u, v) pair of rows (see ``_clip``)
_RECT_P = np.array([(0.0, 1.0, 1.0, 0.0), (-1.0, -1.0, 1.0, 1.0)])
_RECT_Q = np.roll(_RECT_P, -1, axis=1)

# the rectangle's diameter (its longest chord), and the radius within which
# w.x <= 1 on all of it, so that the band is a half-plane
_RECT_DIAMETER = math.sqrt(5.0)
_INNER_RADIUS = math.sqrt(0.5)

# exclusion tree: the quadtree stops at this half-width, cells are evaluated
# at most this many at a time, and an eps whose live cells at one level
# exceed the cap is given up rather than filling memory
_LEAF_HALF_WIDTH = 1e-7
_CHUNK_CELLS = 512
_MAX_LIVE_CELLS = 1_000_000
_CHILD_I = np.array([0.0, 1.0, 0.0, 1.0])
_CHILD_J = np.array([0.0, 0.0, 1.0, 1.0])

# the rectangle's corners in counterclockwise order, as (u, v) floats
_CORNERS = [(0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0)]

# the unit roundoff of a double
_UNIT_ROUNDOFF = 2.0**-53

# the relative margin by which the radius cuts widen R(eps) and sqrt(0.5),
# far above their rounding (see "Rounding" in ``scan_stationary_points``)
_CUT_MARGIN = 2.0**-44

# a reported point is accepted when its residual essentially vanishes
_ACCEPT_RESIDUAL = 1e-8


@dataclass(frozen=True)
class UniformModel:
    epsilon: float

    def __post_init__(self):
        if not 0.0 < float(self.epsilon) < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def _clip(p, q, a, b, c):
    # Keep the part of a convex polygon with a*u + b*v <= c.  The polygon is
    # its directed boundary segments p -> q.  Each of p and q is a (u, v)
    # pair: one array of shape (2, ..., segments), or for the rectangle
    # (2, segments), whose rows 0 and 1 are the u and the v coordinates.
    # Arrays made here are stored segment-major (the segments axis varies
    # slowest), so that a sum over the segments adds whole rows of cells.
    # Each segment is trimmed to the half-plane, to zero length at the
    # origin when wholly outside, and one closing segment, last, runs along
    # the line from the exit to the entry point (zero length when nothing
    # crosses).
    a, b, c = a[..., None], b[..., None], np.asarray(c)[..., None]
    cells, n = np.shape(a)[:-1], np.shape(p)[-1]
    sp, sq = np.empty((2, n) + cells).swapaxes(1, -1)
    np.multiply(a, p[0], out=sp)
    sp += b * p[1]
    sp -= c
    np.multiply(a, q[0], out=sq)
    sq += b * q[1]
    sq -= c
    p_in, q_in = sp <= 0.0, sq <= 0.0
    # the rectangle's (2, segments) pair gains the cells' axes
    grow = (slice(None),) + (None,) * (sp.ndim + 1 - np.ndim(p))
    p, q = p[grow], q[grow]
    with np.errstate(divide="ignore", invalid="ignore"):  # x is used only where p_in != q_in
        x = (q - p) * (sp / (sp - sq))
        x += p
    x_q, x_p = np.where(q_in, x, 0.0), np.where(p_in, x, 0.0)
    clipped_p, clipped_q = np.empty((2, 2, n + 1) + cells).swapaxes(2, -1)
    clipped_p[..., :n] = np.where(p_in, p, x_q)
    clipped_q[..., :n] = np.where(q_in, q, x_p)
    np.where(q_in, 0.0, x_p).sum(axis=-1, out=clipped_p[..., n])  # the exit point
    np.where(p_in, 0.0, x_q).sum(axis=-1, out=clipped_q[..., n])  # the entry point
    return clipped_p, clipped_q


def _moments(p, q):
    # area and the integrals of (u, v) over a polygon given by its segments
    cross = p[0] * q[1]
    cross -= q[0] * p[1]
    m = p + q
    m *= cross
    return 0.5 * cross.sum(axis=-1), m.sum(axis=-1) / 6.0


def _band(w1, w2):
    """The rectangle clipped to {s >= 0}, and that polygon clipped to the band
    {0 <= s <= 1}, each as its segments (see ``_clip``); s = w1*u + w2*v, w1
    and w2 broadcast against each other.  The band polygon's last two
    segments are its chords on s = 0 and s = 1.
    """
    # beyond 2^1000 the clip's sums could overflow, so (w, 1) is scaled by
    # 2^-24 there: the same lines, exactly unless a product is subnormal
    scale = np.where(np.maximum(np.abs(w1), np.abs(w2)) > 2.0**1000, 2.0**-24, 1.0)
    upper = _clip(_RECT_P, _RECT_Q, -scale * w1, -scale * w2, 0.0)
    return upper, _clip(*upper, scale * w1, scale * w2, scale)


def _residual(epsilon, w1, w2):
    # gradient components of F away from the origin, from the band's moments
    mu, mv = _moments(*_band(w1, w2)[1])[1]
    return epsilon * w1 - 0.5 * mu, epsilon * w2 - 0.5 * mv


def _two_entries(x, name):
    x = np.asarray(x, dtype=float).ravel()
    if x.size != 2:
        raise ValueError(f"{name} must have 2 entries, got {x.size}")
    return float(x[0]), float(x[1])


def _finite_point(w):
    w1, w2 = _two_entries(w, "w")
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError(f"w must be finite, got ({w1}, {w2})")
    return w1, w2


def f_epsilon(model: UniformModel, w) -> float:
    """Population objective by exact piecewise integration, at a finite w."""
    w1, w2 = _finite_point(w)
    reg = 0.5 * model.epsilon * (w1 * w1 + w2 * w2)
    upper, band = _band(w1, w2)
    area_band, (mu, mv) = _moments(*band)
    expected = 0.5 * (2.0 - _moments(*upper)[0] + area_band - w1 * mu - w2 * mv)
    return reg + float(expected)


def stationarity_residual(model: UniformModel, w) -> np.ndarray:
    """Gradient of F at w != 0, via the same exact integration.

    Components: (eps*w1 - E[1(0 < s < 1) r], eps*w2 - E[1(0 < s < 1) x2])
    where s = w1*r + w2*x2.  The origin is rejected: the population loss is
    not differentiable there.  So is a non-finite w.
    """
    w1, w2 = _finite_point(w)
    if w1 == 0.0 and w2 == 0.0:
        raise ValueError("stationarity residual is undefined at w = 0")
    return np.array(_residual(model.epsilon, w1, w2), dtype=float)


def origin_directional_derivative(direction) -> float:
    """One-sided derivative of F at the origin along ``direction``, in closed form.

    For 0 < t <= 1/(sqrt(2) ||u||), t*u.x <= 1 on the whole rectangle, so
    the loss is 1 - t*u.x on the half-plane {u.x >= 0} and 1 elsewhere:
    F(t u) = eps t^2 ||u||^2 / 2 + 1 - (t/2) u.m(u/||u||), with m the
    half-plane moment.  The derivative at t = 0+ is therefore
    -u.m(u/||u||)/2, whatever eps; m is read from one band-moment evaluation
    at radius 1/2, where the band is that half-plane.  A zero or non-finite
    direction, or one without 2 entries, raises ``ValueError``.
    """
    d1, d2 = _two_entries(direction, "direction")
    # beyond 2^1000 the norm and the dot product could overflow, so u is
    # scaled by 2^-24 there and the derivative, linear in u, scaled back
    scale = 2.0**-24 if max(abs(d1), abs(d2)) > 2.0**1000 else 1.0
    u1, u2 = scale * d1, scale * d2
    norm = math.hypot(u1, u2)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction must be finite and nonzero, got ({d1}, {d2})")
    _, (mu, mv) = _moments(*_band(0.5 * u1 / norm, 0.5 * u2 / norm)[1])
    # adding 0.0 turns the -0.0 of an empty half-plane into 0.0
    return -0.5 * (u1 * float(mu) + u2 * float(mv)) / scale + 0.0


def origin_directional_derivatives():
    """Derivatives along (1, 0) and (-1, 0); the certified values are -1/2, 0."""
    return origin_directional_derivative((1.0, 0.0)), origin_directional_derivative((-1.0, 0.0))


def outer_radius(epsilon: float) -> float:
    """R(eps) = (sqrt(5)/(2 eps))^(1/3): F has no stationary point beyond it.

    See ``scan_stationary_points`` for the derivation.  It is 2.24 at
    eps = 0.1 and 10.4 at eps = 0.001.  The quotient is formed as
    (sqrt(5)/2)/eps, the same bits as sqrt(5)/(2 eps) wherever 2 eps is
    finite, and still positive beyond.
    """
    return (0.5 * _RECT_DIAMETER / epsilon) ** (1.0 / 3.0)


def root_half_width(epsilons) -> float:
    """The smallest power of two above every R(eps) rounded up (``_CUT_MARGIN``), if below 2^28 (eps > ~5.8e-26)."""
    eps = [float(e) for e in epsilons]
    radius = max((outer_radius(e) for e in eps), default=0.0)
    reach = radius * (1.0 + _CUT_MARGIN)
    if not reach < 2.0**28:
        raise ValueError(f"epsilon {min(eps)} is too small: its outer radius {radius} is not below {2.0**28}")
    return math.ldexp(1.0, math.frexp(reach)[1])


def _exclusion_bound(eps, r_min, h):
    """(eps + sqrt(5)/r_min) h sqrt(2): no residual in a cell of half-width
    h, whose nearest point to the origin lies at r_min > 0, is farther than
    this from the residual at the cell's centre.  eps bounds the derivative
    of eps w, and sqrt(5)/||w|| that of m(w)/2 (see ``scan_stationary_points``).
    The float is rounded up by 16 units of roundoff, which covers its own
    seven roundings and those of the norm it is compared with.
    """
    return (eps + _RECT_DIAMETER / r_min) * (h * math.sqrt(2.0)) * (1.0 + 16.0 * _UNIT_ROUNDOFF)


def _residual_rounding(eps, r_max):
    """delta = u (640 + 4 eps r_max), u = 2^-53: a bound on the 2-norm of
    the rounding error of ``_residual`` at any float w with ||w|| <= r_max
    and |w1|, |w2| <= 2^1000 (see "Rounding" in ``scan_stationary_points``).
    The exclusion test and both box tests allow for it.
    """
    return _UNIT_ROUNDOFF * (640.0 + 4.0 * eps * r_max)


_nextafter = math.nextafter


class _Interval:
    """A closed interval [lo, hi] of reals.  Each operation rounds its ends
    outward by one ulp, which covers the half-ulp rounding of a float
    operation, so the result holds every real result; a float operand is
    the thin interval [x, x].  A divisor must exclude 0.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __add__(self, other):
        other = _thin(other)
        return _Interval(_nextafter(self.lo + other.lo, -math.inf), _nextafter(self.hi + other.hi, math.inf))

    __radd__ = __add__

    def __neg__(self):
        return _Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -_thin(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _thin(other)
        a, b, c, d = self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi
        return _Interval(_nextafter(min(a, b, c, d), -math.inf), _nextafter(max(a, b, c, d), math.inf))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _thin(other)
        a, b, c, d = self.lo / other.lo, self.lo / other.hi, self.hi / other.lo, self.hi / other.hi
        return _Interval(_nextafter(min(a, b, c, d), -math.inf), _nextafter(max(a, b, c, d), math.inf))

    def __rtruediv__(self, other):
        return _thin(other) / self

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        return -self if self.hi <= 0.0 else _Interval(0.0, max(-self.lo, self.hi))

    def sq(self):
        # x^2, which unlike x * x knows that both factors are one x
        low = 0.0 if self.lo <= 0.0 <= self.hi else min(abs(self.lo), abs(self.hi))
        high = max(abs(self.lo), abs(self.hi))
        return _Interval(max(0.0, _nextafter(low * low, -math.inf)), _nextafter(high * high, math.inf))


def _thin(x):
    return x if type(x) is _Interval else _Interval(x, x)


def _chord_edges(lo, hi):
    """Where the band's chords end over the box [lo, hi] (each a (w1, w2)
    pair), or None where that changes in the box or the box is not in
    w1 > 0: whether the chord on s = 0 is shallow (|w2| < w1), and the
    edges, as corner pairs, that hold the ends of the chord on s = 1 (none
    where that line misses the rectangle).  The tests are exact.
    """
    if not lo[0] > 0.0:
        return None
    # the chord on s = 0 runs from the origin to the bottom or top edge
    # while |w2| < w1, and to the right edge while |w2| > w1
    shallow = max(abs(lo[1]), abs(hi[1])) < lo[0]
    if not (shallow or lo[1] > hi[0] or -hi[1] > hi[0]):
        return None
    # the chord on s = 1 keeps its edges while w.x - 1 keeps its sign at
    # every corner; w.x - 1 is linear in w, so its extremes over the box lie
    # at the box's corners, and fsum gives their signs exactly
    above = []
    for u, v in _CORNERS:
        w2_low, w2_high = (lo[1], hi[1]) if v > 0.0 else (hi[1], lo[1])
        if math.fsum((u * lo[0], v * w2_low, -1.0)) > 0.0:
            above.append(True)
        elif math.fsum((u * hi[0], v * w2_high, -1.0)) < 0.0:
            above.append(False)
        else:
            return None
    corners = list(zip(_CORNERS, _CORNERS[1:] + _CORNERS[:1], above, above[1:] + above[:1]))
    return shallow, [(a, b) for a, b, a_above, b_above in corners if a_above != b_above]


def _band_jacobian(eps, lo, hi):
    """J = eps I - Dm/2 over the box [lo, hi] (each a (w1, w2) pair) as
    ``_Interval``s (J11, J12, J22) (J is symmetric), or None where
    ``_chord_edges`` is None.

    A chord from p to q adds (|v_q - v_p| / (12 w1)) [p p^T + q q^T +
    (p + q)(p + q)^T] to Dm/2: Simpson's rule, with length/||w|| =
    |v_q - v_p|/w1 (see "Uniqueness" in ``scan_stationary_points``).
    """
    edges = _chord_edges(lo, hi)
    if edges is None:
        return None
    shallow, crossed = edges
    w1, w2 = _Interval(lo[0], hi[0]), _Interval(lo[1], hi[1])
    # the chord on s = 0 ends at the origin and at (|w2|/w1, -sign w2), one
    # formula on both sides of the axis, or at (1, -w1/w2).  Each entry has
    # w1 and w2 once, so that its interval is its range, to rounding
    if shallow:
        low = (w2.sq() / (w1 * w1 * w1), -w2 / w1.sq(), 1.0 / w1)
    else:
        a2 = abs(w2)
        low = (1.0 / a2, -w1 / (w2 * a2), w1.sq() / (a2 * a2 * a2))
    high = (0.0, 0.0, 0.0)
    if crossed:
        # on an edge v = v0, u = (1 - w2 v0)/w1; on an edge u = u0, v = (1 - w1 u0)/w2
        (pu, pv), (qu, qv) = (
            ((1.0 - w2 * v0) / w1, _thin(v0)) if v0 == v1 else (_thin(u0), (1.0 - w1 * u0) / w2)
            for (u0, v0), (u1, v1) in crossed
        )
        weight = abs(qv - pv) / (12.0 * w1)
        high = (
            weight * (pu.sq() + qu.sq() + (pu + qu).sq()),
            weight * (pu * pv + qu * qv + (pu + qu) * (pv + qv)),
            weight * (pv.sq() + qv.sq() + (pv + qv).sq()),
        )
    return eps - low[0] / 6.0 + high[0], high[1] - low[1] / 6.0, eps - low[2] / 6.0 + high[2]


def _mid_inverse(jac):
    """The float inverse of the midpoint of J's enclosure ``jac``, (J11, J12,
    J22) as from ``_band_jacobian``, as rows ((y11, y12), (y21, y22)), or
    None where jac is None or that matrix is singular in floating point.
    """
    if jac is None:
        return None
    a, b, d = (0.5 * (entry.lo + entry.hi) for entry in jac)
    det = a * d - b * b
    if not (math.isfinite(det) and det != 0.0):
        return None
    return (d / det, -b / det), (-b / det, a / det)


def _krawczyk(lo, hi, f, delta, jac):
    """Krawczyk's test of the box [lo, hi] (each a (w1, w2) pair) for a map
    whose value at the box's centre c is f to within delta in each
    component, and whose Jacobian at every point of the box lies in ``jac``,
    the intervals (J11, J12, J22) of ``_band_jacobian`` (None: no test).

    With Y the float inverse of jac's midpoint (``_mid_inverse``), K =
    c - Y (f +- delta) + (I - Y J)(X - c), over X the box, is formed in
    interval arithmetic.  If K lies in the open box, the map has exactly one
    zero in the box, and it lies in K (Krawczyk, Computing 1969; Rump,
    "Verification methods", Acta Numerica 2010).  Returns K as (lo, hi), or
    None.
    """
    y = _mid_inverse(jac)
    if y is None:
        return None
    j11, j12, j22 = jac
    c = [0.5 * (lo[k] + hi[k]) for k in range(2)]
    # X - c, and f(c) to within the rounding bound delta
    offset = [_Interval(lo[k], hi[k]) - c[k] for k in range(2)]
    values = [f[k] + _Interval(-delta, delta) for k in range(2)]
    images = []
    for i, (y0, y1) in enumerate(y):
        image = c[i] - (y0 * values[0] + y1 * values[1])
        # the contraction term, the sum over J's columns j of (I - Y J)_ij (X_j - c_j)
        for j, (a, b) in enumerate(((j11, j12), (j12, j22))):
            image += (float(i == j) - (y0 * a + y1 * b)) * offset[j]
        if not (lo[i] < image.lo and image.hi < hi[i]):
            return None
        images.append(image)
    return tuple(k.lo for k in images), tuple(k.hi for k in images)


def _monotonicity(eps, lo, hi):
    """mu > 0 with (f(w) - f(w')).(w - w') >= mu ||w - w'||^2 for w and w'
    in the box [lo, hi] (each a (w1, w2) pair), where it lies in |w2| < w1,
    else None (see "Uniqueness" in ``scan_stationary_points``):
    mu = eps - ||w||^2/(6 w1^3) at the box's corner of least w1 and
    greatest |w2|, rounded down.
    """
    top = max(abs(lo[1]), abs(hi[1]))
    if not top < lo[0]:
        return None
    w1 = _thin(lo[0])
    mu = (eps - (w1.sq() + _thin(top).sq()) / (6.0 * (w1 * w1 * w1))).lo
    return mu if mu > 0.0 else None


def _monotone_image(eps, lo, hi, f, delta, mu):
    """A box around the one root in the box [lo, hi] if strong monotonicity
    with constant mu proves that it holds exactly one root, else None; f is
    the residual at the box's centre c to within delta.

    Every root w* in the box lies within rho = ||f(c)||/mu of c, as
    mu ||w* - c||^2 <= (f(w*) - f(c)).(w* - c) <= ||f(c)|| ||w* - c||.  If
    the disk of radius rho about c lies in the box, f(w).(w - c) >= 0 on
    its edge, so the disk holds a root (the acute-angle lemma, a consequence
    of Brouwer's fixed-point theorem; Ortega & Rheinboldt 1970, section
    6.3).  The same bound about the Newton point c - Y f(c), Y the float
    inverse of J(c)'s midpoint (``_mid_inverse``), then gives a box that
    shrinks quadratically, as Krawczyk's does.
    """

    def around(point, value):
        # the box of half-width ||f(point)||/mu about point, rounded outward
        reach = ((_thin(_nextafter(math.hypot(*value), math.inf)) + delta) / mu).hi
        return (
            tuple((_thin(x) - reach).lo for x in point),
            tuple((_thin(x) + reach).hi for x in point),
        )

    c = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
    box = around(c, f)
    if not all(lo[k] < box[0][k] and box[1][k] < hi[k] for k in range(2)):
        return None
    y = _mid_inverse(_band_jacobian(eps, c, c))
    if y is None:
        return box
    point = tuple(c[i] - (y[i][0] * f[0] + y[i][1] * f[1]) for i in range(2))
    if not all(lo[k] <= point[k] <= hi[k] for k in range(2)):
        return box
    tighter = around(point, tuple(float(x) for x in _residual(eps, *point)))
    return tighter if tighter[1][0] - tighter[0][0] < box[1][0] - box[0][0] else box


def _one_root(eps, lo, hi):
    """An enclosure (lo, hi) of the one root in the box [lo, hi] (each a
    (w1, w2) pair of floats) if a test proves that the box holds exactly
    one root of the residual, else None.  Krawczyk's test runs on J's
    enclosure (``_band_jacobian``), and where it has none (the kink at
    eps = 1/2's root) or fails, strong monotonicity (``_monotone_image``)
    may prove it.  Both read the residual at the box's centre, to within
    ``_residual_rounding``.
    """
    jac = _band_jacobian(eps, lo, hi)
    mu = _monotonicity(eps, lo, hi)
    if jac is None and mu is None:
        return None
    f = tuple(float(x) for x in _residual(eps, 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])))
    # every point of the box has ||w|| <= hi1 + max |w2|
    delta = _residual_rounding(eps, hi[0] + max(abs(lo[1]), abs(hi[1])))
    image = _krawczyk(lo, hi, f, delta, jac)
    if image is None and mu is not None:
        image = _monotone_image(eps, lo, hi, f, delta, mu)
    return image


def _cell_box(i, j, h, root):
    # the closed box around the lattice cells (i, j) of half-width h, whose
    # ends are exact, as (lo, hi) pairs of floats
    lo = (float(i.min()) * (2.0 * h) - root, float(j.min()) * (2.0 * h) - root)
    hi = (float(i.max() + 1.0) * (2.0 * h) - root, float(j.max() + 1.0) * (2.0 * h) - root)
    return lo, hi


def _disk_box(eps):
    """The disk point m(0)/(2 eps) = (0.5/eps, 0), m(0) = (1, 0) exactly, as
    the box ((w1 - r, -r), (w1 + r, r)), r = ulp(w1), where it lies in the
    inner disk, else None.  The division's one rounding leaves the true w1
    within ulp(w1) (subnormal w1 too); w2 = 0, w1 - r, w1 + r and their mean
    are exact.  Rounding is monotone, so every eps >= 1/sqrt(2) has a disk
    point; an eps an ulp short of it may too, and its box only adds a region.
    """
    w1 = 0.5 / eps
    r = math.ulp(w1)
    return ((w1 - r, -r), (w1 + r, r)) if w1 <= _INNER_RADIUS else None


def _holds(box, inner):
    # whether the open box (lo, hi) holds the closed box inner, if there is one
    if inner is None:
        return True
    (lo, hi), (inner_lo, inner_hi) = box, inner
    return all(lo[k] < inner_lo[k] and inner_hi[k] < hi[k] for k in range(2))


def _proved_box(eps: float):
    """A box (lo, hi) proved to hold F's one stationary point for eps, or
    None (see ``scan_stationary_points``): ``_one_root``'s enclosure from
    the first box around the live cells of eps's annulus exclusion tree
    that holds the disk point, if any, and passes it; or, where no cell
    survives, ``_disk_box``.  The root cell is [-B, B]^2, B =
    ``root_half_width([eps])``, and each level halves the cells' half-width
    h while h > 1e-7.  A cell is an integer pair (i, j) with centre
    (i + 1/2, j + 1/2) * 2h - B, held as float64, exact below 2^52, so that
    no step casts integers to floats (each cast takes a 64 KB buffer, which
    shows in peak memory).  None where no box passes down to the leaf width
    or once the live cells of one level exceed ``_MAX_LIVE_CELLS``.
    """
    root = root_half_width([eps])
    radius = outer_radius(eps) * (1.0 + _CUT_MARGIN)
    inner = _INNER_RADIUS * (1.0 - _CUT_MARGIN)
    disk = _disk_box(eps)

    def survivors(i, j, h):
        # at most _CHUNK_CELLS cells: drop the half-plane w1 <= 0, the inner
        # disk and the cells beyond R(eps), then those whose residual bound
        # excludes them
        c1, c2 = (i + 0.5) * (2.0 * h) - root, (j + 0.5) * (2.0 * h) - root
        # a kept cell has r_min <= R(eps), and its centre lies within h sqrt(2) of that
        delta = _residual_rounding(eps, radius + h * math.sqrt(2.0))
        a1, a2 = np.abs(c1), np.abs(c2)
        r_min = np.hypot(np.maximum(a1 - h, 0.0), np.maximum(a2 - h, 0.0))
        keep = (r_min <= radius) & (c1 + h > 0.0) & (np.hypot(a1 + h, a2 + h) > inner)
        i, j, c1, c2, r_min = i[keep], j[keep], c1[keep], c2[keep], r_min[keep]
        # a cell touching the origin (r_min = 0) is never excluded.  Nothing
        # overflows: eps * B(eps) is below 2.1 eps^(2/3), and r_min is 0 or
        # at least 2h
        with np.errstate(divide="ignore"):
            keep = ~(np.hypot(*_residual(eps, c1, c2)) - delta > _exclusion_bound(eps, r_min, h))
        return i[keep], j[keep]

    h = root
    i, j = survivors(np.zeros(1), np.zeros(1), h)
    step = _CHUNK_CELLS // 4
    while i.size:
        # stop once one box around the live cells provably holds exactly one
        # root; it stands for the certificate's one root only if it holds the
        # disk point, where there is one
        box = _cell_box(i, j, h, root)
        proof = _one_root(eps, *box) if _holds(box, disk) else None
        if proof is not None:
            return proof
        if not h > _LEAF_HALF_WIDTH:
            return None
        h *= 0.5
        kept_i, kept_j, live = [np.empty(0)], [np.empty(0)], 0
        for start in range(0, i.size, step):
            parents = slice(start, start + step)
            child_i, child_j = survivors(
                (2.0 * i[parents, None] + _CHILD_I).ravel(),
                (2.0 * j[parents, None] + _CHILD_J).ravel(),
                h,
            )
            live += child_i.size
            if live > _MAX_LIVE_CELLS:
                return None
            kept_i.append(child_i)
            kept_j.append(child_j)
        i, j = np.concatenate(kept_i), np.concatenate(kept_j)
    return disk


def refine_candidate(epsilon: float, box):
    """Contract ``box``, (lo, hi) with each a (w1, w2) pair, proved to hold
    exactly one root of the residual at eps, about that root.

    The box is tested again with ``_one_root`` while each test shrinks it
    by a smaller ratio than the last: the enclosure shrinks quadratically
    until rounding stalls it.  Every box that passes holds the root, and
    the last is returned; a box at most two ulps of its largest coordinate
    wide (the disk point's) has nothing left to contract and is returned
    as it is.
    """
    eps = float(epsilon)

    def width(b):
        return max(b[1][0] - b[0][0], b[1][1] - b[0][1])

    ratio = 1.0
    while width(box) > 2.0 * math.ulp(max(abs(x) for corner in box for x in corner)):
        tighter = _one_root(eps, *box)
        if tighter is None:
            break
        last, ratio, box = ratio, width(tighter) / width(box), tighter
        if ratio >= last:
            break
    return box


def _certify(eps: float) -> np.ndarray:
    """One eps's stationary point, shape (1, 2), or shape (0, 2) where its
    certificate does not close (see ``scan_stationary_points``).
    """
    proof = _proved_box(eps)
    if proof is None:
        return np.empty((0, 2))
    (lo1, lo2), (hi1, hi2) = refine_candidate(eps, proof)
    point = (0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2))
    if max(abs(float(f)) for f in _residual(eps, *point)) <= _ACCEPT_RESIDUAL:
        return np.array([point])
    return np.empty((0, 2))


def scan_stationary_points(models) -> list[np.ndarray]:
    """Locate the one stationary point of F in the plane, for each model.

    Takes a sequence of ``UniformModel`` and returns one array per model, in
    the same order: shape (1, 2) where the model's certificate closes, else
    shape (0, 2).  What a reported point proves: F has exactly one
    stationary point, it lies in a box that passed a uniqueness test (or in
    the disk point's box, where no cell survives), and the reported point
    is the midpoint of that box contracted about the root, with residual
    <= 1e-8.  An eps gets no point where no box passes down to the leaf
    width, where the midpoint fails that test, or where one level has more than
    ``_MAX_LIVE_CELLS`` live cells; one too small for ``root_half_width``
    raises ``ValueError``.

    Write x = (u, v) on the rectangle [0,1] x [-1,1] and the residual
    res(w) = eps w - m(w)/2 with m(w) the integral of x over the band
    B(w) = {0 <= w.x <= 1}.

    Half-plane.  u >= 0, so m_u >= 0 and res_1 = eps w1 - m_u/2 <= 0 when
    w1 <= 0.  Equality needs w1 = 0 and m_u = 0; but for w = (0, w2) with
    w2 != 0 the band {0 <= w2 v <= 1} has positive area, so m_u > 0.  Hence
    every stationary point has w1 > 0, and cells with c1 + h <= 0 are
    dropped without evaluation.

    Outer radius.  On the band w.x <= 1, and the band is a strip of width
    1/||w|| whose chords in the rectangle are at most its diameter sqrt(5)
    long, so its area is at most sqrt(5)/||w||.  The radial residual is
    then w.res/||w|| = eps ||w|| - (integral of w.x over B)/(2 ||w||)
    >= eps ||w|| - sqrt(5)/(2 ||w||^2) > 0 for ||w|| > R(eps) =
    (sqrt(5)/(2 eps))^(1/3).  Cells whose nearest point lies beyond R(eps)
    are dropped for that eps.

    Inner disk.  For ||w|| <= 1/sqrt(2), w.x <= max(w1, 0) + |w2|
    <= sqrt(2) ||w|| <= 1 on the rectangle, so B(w) is the half-plane
    H(theta) = {e.x >= 0}, e = (cos theta, sin theta) the direction of w,
    and m = m(theta).  The residual vanishes at w = rho e exactly when
    g(theta) = e_perp.m(theta) = 0 (e_perp = (-sin theta, cos theta)) and
    rho = e.m(theta)/(2 eps) <= 1/sqrt(2); then w = m(theta)/(2 eps), and
    theta lies in (-pi/2, pi/2) by the half-plane fact.  Lemma: in that range
    g vanishes only at theta = 0.  For theta in (0, pi/2) let c = cot theta,
    so H is {v >= -c u}.  Its boundary leaves the rectangle through the
    bottom edge at u = 1/c when c >= 1, and through the right edge when
    c <= 1; integrating u and v over H gives
        m = (1 - 1/(6 c^2), 1/(3 c))      for c >= 1,
        m = (1/2 + c/3, 1/2 - c^2/6)      for c <= 1.
    So g = sin theta (c m_v - m_u), and c m_v - m_u is 1/(6 c^2) - 2/3
    <= -1/2 in the first case and (c - c^3)/6 - 1/2 <= 1/(9 sqrt(3)) - 1/2
    < -1/3 in the second: g(theta) <= -sin(theta)/3 < 0.  Reflecting
    v -> -v maps H(theta) to H(-theta) and m to (m_u, -m_v), so g is odd,
    and g(0) = 0 with m(0) = (1, 0), the whole rectangle's moment (exactly
    (1.0, 0.0) in floating point too).  Hence the only stationary point with
    ||w|| <= 1/sqrt(2) is m(0)/(2 eps) = (1/(2 eps), 0), and it exists
    exactly when it lies in the closed disk: eps >= 1/sqrt(2).  The scan
    gives it a disk whose radius covers only the rounding of 1/(2 eps).

    Annulus.  Each eps has its own quadtree, whose root cell is
    [-B(eps), B(eps)]^2, B(eps) = ``root_half_width([eps])``; each surviving
    cell splits into four, evaluated in chunks of at most 512, down to
    half-width 2^-24 unless a box test stops it first (see "Uniqueness").
    As B(eps) is a power of two at most 2^28, the cells lie on one
    origin-aligned lattice with exact centres and edges.  Cells
    wholly inside the inner disk are left to the lemma.  Where it is smooth,
    m has derivative Dm(w) = (M_0 - M_1)/||w||, M_s = integral over the
    chord {w.x = s} of x x^T, by moving the two band edges.  Each M_s is
    positive semidefinite, and ||M_s||_2 <= integral over the chord of
    ||x||^2 <= 2 sqrt(5), as ||x||^2 <= 2 on the rectangle and chords are at
    most sqrt(5) long.  For positive semidefinite A and B, -B <= A - B <= A
    in the Loewner order, so ||A - B||_2 <= max(||A||_2, ||B||_2); hence
    ||Dm(w)/2|| <= sqrt(5)/||w||.  m is continuous away from 0, so
    integrating along the segment from a cell's centre c gives
    ||res(w) - res(c)|| <= (eps + sqrt(5)/r_min) ||w - c|| in the cell, r_min
    the cell's smallest ||w||.  A cell is dropped for eps when ||res(c)||_2,
    less its rounding bound (see "Rounding"), exceeds
    (eps + sqrt(5)/r_min) * half-diagonal (``_exclusion_bound``).  On 1.7M
    random (cell, point) pairs, eps in [1e-3, 10] and cells of half-width
    1e-7 to 0.3 at r_min > 1e-3, ||res(w) - res(c)|| reached at most 0.98 of
    (eps + sqrt(5)/r_min) ||w - c||: the bound is tight to within 2 %, where
    eps r_min is large.  The moment part alone, ||m(w) - m(c)||/2, reached
    at most 0.44 of its term sqrt(5) ||w - c||/r_min.

    Rounding.  Cell centres are exact, so rounding is left in the computed
    residual and in the bound.  ``_exclusion_bound`` is rounded up by
    16 u (u = 2^-53), more than its own seven roundings and those of the
    norm it meets, and a cell is dropped only when ||res(c)|| - delta
    exceeds it, delta = u (640 + 4 eps ||w||) (``_residual_rounding``).
    The clip against w.x >= 0 classifies the rectangle's corners exactly
    (each level -w1 u - w2 v is one rounded sum), and places each crossing
    on its edge within 10 u.  So the computed polygon differs from the exact
    one by a sliver along the chord on s = 0 of width 10 u and length at
    most sqrt(5).  The clip against w.x <= 1 can matter only where
    ||w|| >= (1 - 1e-15)/sqrt(2), and computes each level w.x - 1 within
    E = u (15 ||w|| + 2).  A corner it misplaces lies within E/||w|| of the
    line; at most two corners of a rectangle can, and two only on one edge
    or one diagonal, so the kept vertices stay one run, with one exit and
    one entry.  Each crossing it computes lies on its segment, to 6 u,
    where |w.x - 1| <= u (13.2 ||w|| + 3.1).  So the computed band differs
    from the exact one by a region within u (13.2 + 4.4) of the line
    w.x = 1, of area at most 79 u in the rectangle and of winding number at
    most 4, plus two triangles of area 9 u.  With |x| <= sqrt(2), the
    moment m is off by at most 32 u + 447 u + 50 u from the clips and 57 u
    from the shoelace sums' roundings, and res = eps w - m/2 by half that
    plus u (2 eps ||w|| + sqrt(2)) from eps w and the subtraction: under
    u (297 + 2 eps ||w||), which delta doubles.  Underflow adds at most
    2^-1074 per operation, within that margin; w larger than 2^1000, where
    the clip rescales, lies outside every root square.  Against the same
    residual in exact rational arithmetic (``tests/oracles.py``), on 20,000
    lattice centres of the root squares B = 4 and 16 at half-widths 2^-24
    to 1/2 and eps in [1e-3, 10], and on 20,000 points within 1e-9 of the
    kink and within 1e-12 of the lines where a band edge passes a corner,
    the error never exceeded u (2 + 2 eps ||w||), at most 0.17 of delta.
    The radius cuts widen their floats by 2^-44 = 512 u (``_CUT_MARGIN``).
    Cell edges are exact; say pow and hypot err by at most k ulps (2 k u
    relative; C libraries' are within one ulp).  R(eps) is computed as
    (fl(sqrt(5))/2/eps) ** fl(1/3): the quotient's two roundings move the
    cube root by 2u/3, and fl(1/3) = (1 - 2^-54)/3 exactly scales x^(1/3)
    by x^(-2^-54/3) >= 1 - 9.8 u, as x < 2^84.  So the widened float, rounded
    once more, is at least R (1 + (500.5 - 2 k) u): for k <= 125 every cell
    with r_min <= R is kept, and ``root_half_width``'s power of two exceeds
    R.  The inner cut drops a cell only where its farthest corner's hypot is
    at most fl(fl(sqrt(0.5)) (1 - 512 u)) <= sqrt(0.5) (1 - 509 u), so for
    k <= 254 a dropped cell lies in the closed disk, which the lemma covers.
    The margins left every report on the 11 reference eps sets and at
    eps = 1e-4 as it was.
    At the default five eps the smallest relative margin by which an
    excluded cell clears its bound is 2.2e-5, far above delta's share.  On
    the 11 reference eps sets delta leaves every tree's leaves as they were;
    at eps = 1e-4 it keeps 2 more of 9,030 leaves, with the same report.

    Uniqueness.  Where each chord keeps its edges over a box in w1 > 0 (no
    band edge passes a corner of the rectangle there), the band polygon's
    vertices are fixed corners and chord ends, rational in w, so m is
    smooth and Dm = (M_0 - M_1)/||w||.  A chord from p to q of length l
    lies along (-w2, w1)/||w||, so l/||w|| = |v_q - v_p|/w1 and, by
    Simpson's rule, it adds (|v_q - v_p|/(12 w1)) [p p^T + q q^T +
    (p + q)(p + q)^T] to Dm/2 (``_band_jacobian``).  The chord on s = 0
    runs from the origin to (|w2|/w1, -sign w2) while |w2| < w1, so it
    adds q q^T/(6 w1): one formula on both sides of the axis, where the
    clip's zero-length chord is an artifact of the axis only (the band
    loses a triangle of area |w2|/(2 w1) at the bottom left or top left,
    whose v-moment is linear in w2).  An end on an edge v = v0 is
    u = (s - w2 v0)/w1, and on an edge u = u0 is v = (s - w1 u0)/w2.
    Written with w1 and w2 once, each entry of the s = 0 chord's term and
    each end is evaluated in interval arithmetic with outward rounding
    over the box, which gives its exact range; the rest are sums and
    products of those intervals (``_Interval``), which hold J entrywise
    over the box.  Near the roots, on 1,463 boxes of half-width 1e-6 to 0.1
    about them (eps in [1e-3, 10], off the kink), J's sampled range reached
    a median 0.74 of its interval's width in J11, 0.24 in J12 and 0.33 in
    J22 (J22 = eps - 1/(6 w1) + 1/(3 w1) on the axis: the two terms'
    intervals add), and at least 0.33 in one entry of every box.
    Krawczyk's test (``_krawczyk``) then forms, with Y the float inverse of
    the intervals' midpoint (``_mid_inverse``), K = c - Y f(c) +
    (I - Y J)(X - c) in interval arithmetic over those intervals, the
    residual at the centre taken to within delta.  If K lies in the open
    box X, the box holds exactly one root, and it lies in K (Krawczyk,
    Computing 1969; Rump, Acta Numerica 2010): f(x) - f(y) = integral of
    J along the segment, and J lies in the enclosure.  Testing K again
    shrinks it quadratically.

    At eps = 1/2's root (1, 0) the band edge w.x = 1 passes both right
    corners, J jumps, and no enclosure forms.  There each chord moment
    M_s is positive semidefinite and M_1 enters J with a plus sign, so
    J >= eps I - M_0/(2 ||w||) = eps I - q q^T/(6 w1) in the Loewner order,
    wherever J exists: everywhere in 0 <= |w2| < w1 but at (1, 0), since
    J is continuous across the lines where a chord passes a corner.  Hence
    (f(w) - f(w')).(w - w') >= mu ||w - w'||^2 on the box, with mu = eps -
    max ||w||^2/(6 w1^3) (``_monotonicity``), and for mu > 0 the box holds
    at most one root, within ||f(c)||/mu of any of its points c; if the
    disk of that radius about the centre lies in the box, it holds one
    (``_monotone_image``).  mu is exact wherever the chord on s = 1 misses
    the rectangle (the inner disk, left of the kink) and ignores that
    chord elsewhere: on 1,460 boxes about the roots for eps in [0.1, 10],
    it was a median 1.0 and at least 0.007 of the sampled least eigenvalue
    of J's symmetric part.  It is positive about the axis roots for eps
    above about 0.096.

    The tree tries the box around its live cells at each level, once the
    box holds the disk point if there is one, and stops at the first that
    passes; failed tries are cheap where the box meets w1 <= 0 or a chord
    changes edges.  At the default five eps the box passes at cell
    half-width 2^-5 for eps = 0.1 and 0.3 and 2^-6 for eps = 1/2, where
    the leaves were 2^-24; eps = 1 and 2 keep no cells.

    The proved box becomes a point.  The tree returns the passing test's
    enclosure of the root, or where no cell survives the disk point's box
    (``_proved_box``).  Each eps is certified on its own: one
    ``refine_candidate`` call tests that box again while each test shrinks
    it by a smaller ratio than the last, so that it contracts quadratically
    about the root until rounding stalls it; the disk point's box, two ulps
    wide, is left as it is.  Every box that passes holds the root.  The
    contracted box's midpoint is reported if its residual is <= 1e-8, and
    any other outcome reports no point.  The contracted boxes were 7.2e-13
    wide at eps = 0.1, 4.7e-11 at 0.001 and 4.7e-10 at 1e-4, and each held
    the closed form, on the 11 reference eps sets and at 1e-4 and 1e-5.
    """
    eps = [float(model.epsilon) for model in models]
    root_half_width(eps)  # every eps must fit the leaf lattice; the error names the smallest
    return [_certify(e) for e in eps]


def closed_form_minimizer(epsilon: float):
    """Global minimizer first coordinate and minimum value of F.

    (w1, F) = ((2 eps)^(-1/3), 3 (eps/32)^(1/3)) for eps <= 1/2, and
    (1/(2 eps), 1 - 1/(8 eps)) for eps > 1/2; w2 = 0 in both regimes.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon <= 0.5:
        return (2.0 * epsilon) ** (-1.0 / 3.0), 3.0 * (epsilon / 32.0) ** (1.0 / 3.0)
    # 0.5/eps is 1/(2 eps) rounded once, and stays positive where 2 eps overflows
    return 0.5 / epsilon, 1.0 - 0.125 / epsilon

