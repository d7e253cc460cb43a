"""Exact projective geometry of an embedded genus-2 curve: the product
map to P1 x P1 built from the canonical sections and the sections of the
cube of an even square-root class, its bidegree (2,3) implicit equation,
the Segre image in P3, the sheet involution as a projective matrix,
planes through point triples, degree-5 intersection divisors, and the
section-count certificates that tie collinearity of a triple to the
dimension jump of its associated twisted bundle.

Coordinate conventions: t = (t0, t1) are the first-factor coordinates
(square-root-cube sections), s = (s0, s1) the second-factor coordinates
(canonical sections); the Segre order is z_(2i+j) = t_i * s_j, so the
quadric is z0 z3 - z1 z2 = 0.  All plane and point coordinates are kept
as primitive integer vectors of ints with positive leading entry; every
other scalar is in the QQ normal form of ``exactalg.scalars`` (an int
when integral, else a Fraction with denominator above 1), and a
quotient goes through ``exact_quotient``.
"""

from __future__ import annotations

from fractions import Fraction

from . import VerificationError
from .exactalg import (
    MultiPoly,
    PolyRing,
    QQ,
    UPoly,
    nullspace,
    proportional,
    rational_content,
)
from .exactalg.scalars import exact_quotient, rational_normal
from .hyperell import (
    Divisor,
    FieldElem,
    HyperCurve,
    Place,
    branch_product,
    canonical_divisor,
    divisor_of,
    rational_divisor,
    rr_space,
    spin_power_divisor,
    standard_curve,
    theta_divisor,
)
from .thetachar import CharClass

TS_RING = PolyRing(QQ, ("t0", "t1", "s0", "s1"))

T_MONOS = ((2, 0), (1, 1), (0, 2))
S_MONOS = ((3, 0), (2, 1), (1, 2), (0, 3))

SEGRE_QUADRIC = (
    (0, 0, 0, Fraction(1, 2)),
    (0, 0, Fraction(-1, 2), 0),
    (0, Fraction(-1, 2), 0, 0),
    (Fraction(1, 2), 0, 0, 0),
)


def _normalize(vec):
    """Scale a rational vector to the primitive integer vector of ints
    with positive leading entry: with content g/l, each entry n/d
    becomes n (l/d) / g, an exact integer quotient."""
    content = rational_content(vec)
    if content == 0:
        raise ValueError("zero vector cannot be normalized")
    g, l = content.numerator, content.denominator
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v.numerator * (l // v.denominator) // g for v in vec)


def sigma_place(place: Place) -> Place:
    """Image of a place under the sheet involution y -> -y."""
    if place.kind == "branch":
        return place
    if place.kind == "inf":
        return place.curve.infinite_place(-place.key)
    x0, y0 = place.key
    return place.curve.split_place(x0, -y0)


def place_label(place: Place) -> str:
    if place.kind == "branch":
        return "branch x=%s" % (place.key,)
    if place.kind == "inf":
        return "inf%s" % ("+" if place.key == 1 else "-")
    return "split x=%s y=%s" % place.key


class PointTriple:
    """Three places of one curve, ordered; coincidences are allowed here
    and rejected by the operations that need distinct points."""

    __slots__ = ("places",)

    def __init__(self, places):
        places = tuple(places)
        if len(places) != 3:
            raise ValueError("exactly three places required")
        if any(p.curve != places[0].curve for p in places[1:]):
            raise ValueError("places must lie on one curve")
        self.places = places

    @property
    def distinct(self):
        return len(set(self.places)) == 3

    def apply_sigma(self):
        return PointTriple(tuple(sigma_place(p) for p in self.places))

    def labels(self):
        return tuple(place_label(p) for p in self.places)

    def __repr__(self):
        return "PointTriple(%s, %s, %s)" % self.labels()


class PlaneP3:
    """A plane in P3: four exact coefficients, stored as a primitive
    vector of ints with a positive leading entry so equality is
    literal."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = _normalize(coeffs)
        if len(coeffs) != 4:
            raise ValueError("a plane needs four coefficients")
        self.coeffs = coeffs

    def value(self, point):
        return sum(c * z for c, z in zip(self.coeffs, point))

    def __eq__(self, other):
        if not isinstance(other, PlaneP3):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return "PlaneP3(%s)" % (self.coeffs,)


class Collinear:
    """Verdict object: the three image points span a line, not a plane."""

    __slots__ = ("rank",)

    def __init__(self, rnk):
        self.rank = rnk


class EmbeddedCurve:
    """A genus-2 curve with its two section bases, the product-space
    map, the implicit bidegree (2,3) equation, and cached image data."""

    __slots__ = (
        "curve",
        "theta",
        "canonical_basis",
        "spin_cube_basis",
        "segre_functions",
        "implicit",
        "_cache",
    )

    def __init__(self, curve, theta, canonical_basis, spin_cube_basis, segre_functions, implicit):
        self.curve = curve
        self.theta = theta
        self.canonical_basis = tuple(canonical_basis)
        self.spin_cube_basis = tuple(spin_cube_basis)
        self.segre_functions = tuple(segre_functions)
        self.implicit = implicit
        self._cache = {"points": {}, "frame": None, "twist_base": None}


def _upoly_quotient(num: UPoly, den: UPoly) -> UPoly:
    q, r = num.divmod(den)
    if r:
        raise VerificationError("denominator fails to divide the cleared product")
    return q


def _degree_monos(deg):
    return tuple((deg - k, k) for k in range(deg + 1))


def _powers(fe: FieldElem, n: int):
    """[fe^0, ..., fe^n], each power one product from the one before."""
    out = [FieldElem(fe.curve, UPoly((1,)))]
    for _ in range(n):
        out.append(out[-1] * fe)
    return out


def _monomial_products(spin_cube_basis, canonical_basis, t_monos, s_monos):
    """t0^a0 t1^a1 s0^b0 s1^b1 composed with the section bases, for each
    (a0, a1) in t_monos and then each (b0, b1) in s_monos: one power
    table per section, then each t-part times each s-part.  FieldElem
    products cancel nothing, so any grouping gives the same a, b and
    den."""
    t0, t1 = (
        _powers(h, max(m[i] for m in t_monos)) for i, h in enumerate(spin_cube_basis)
    )
    s0, s1 = (
        _powers(h, max(m[i] for m in s_monos)) for i, h in enumerate(canonical_basis)
    )
    s_parts = [s0[b0] * s1[b1] for (b0, b1) in s_monos]
    return [t0[a0] * t1[a1] * s for (a0, a1) in t_monos for s in s_parts]


def _relation_kernel(funcs):
    """Exact linear relations among a list of curve functions: the
    kernel of the coefficient rows of a and b once every function is
    cleared to the lcm of the denominators.  Any common multiple gives
    the same kernel, and ``nullspace`` returns its canonical basis; the
    lcm keeps the cleared polynomials at the smallest degree (the twelve
    products of the implicit equation share one denominator)."""
    common = UPoly((1,))
    for fe in funcs:
        common = common * _upoly_quotient(fe.den, common.gcd(fe.den))
    cleared = []
    for fe in funcs:
        q = _upoly_quotient(common, fe.den)
        cleared.append((fe.a * q, fe.b * q))
    deg = max(max(a.degree, b.degree) for a, b in cleared)
    rows = []
    for k in range(deg + 1):
        rows.append([a.coeff(k) for a, _ in cleared])
        rows.append([b.coeff(k) for _, b in cleared])
    return nullspace(rows)


def bidegree_relation_count(E: EmbeddedCurve, t_deg: int, s_deg: int) -> int:
    """Number of independent bihomogeneous relations of the given
    bidegree satisfied by the two section bases; zero below (2,3)
    certifies that the implicit equation's bidegree is exact."""
    prods = _monomial_products(
        E.spin_cube_basis,
        E.canonical_basis,
        _degree_monos(t_deg),
        _degree_monos(s_deg),
    )
    return len(_relation_kernel(prods))


def _implicit_equation(curve, spin_cube_basis, canonical_basis):
    """Kernel of the coefficient matrix of all twelve bidegree (2,3)
    monomials composed with the section bases; must be a single line."""
    prods = _monomial_products(spin_cube_basis, canonical_basis, T_MONOS, S_MONOS)
    kernel = _relation_kernel(prods)
    if len(kernel) != 1:
        raise VerificationError(
            "implicit equation space has dimension %d" % len(kernel)
        )
    coeffs = _normalize(kernel[0])
    total = FieldElem(curve, UPoly())
    terms = {}
    k = 0
    for (a0, a1) in T_MONOS:
        for (b0, b1) in S_MONOS:
            total = total + coeffs[k] * prods[k]
            if coeffs[k]:
                terms[(a0, a1, b0, b1)] = coeffs[k]
            k += 1
    if total:
        raise VerificationError("implicit equation fails on the parametrization")
    return MultiPoly(TS_RING, terms)


def _lead_pair(funcs, place):
    """Leading Laurent coefficients of a pair of functions at their
    joint minimal order; the projective coordinates of the image.  Each
    order and lead is the closed form of ``FieldElem.leading_term``; a
    function of higher order contributes 0."""
    terms = [h.leading_term(place) for h in funcs]
    m = min(v for v, _ in terms)
    return m, [c if v == m else 0 for v, c in terms]


def _image_record(E: EmbeddedCurve, place: Place):
    """(mt, ms, coords) at a place, computed once: the minimal orders of
    the square-root-cube and canonical bases there and the normalized
    Segre coordinates of the image."""
    record = E._cache["points"].get(place)
    if record is None:
        if place.curve != E.curve:
            raise ValueError("place belongs to a different curve")
        mt, t_pair = _lead_pair(E.spin_cube_basis, place)
        ms, s_pair = _lead_pair(E.canonical_basis, place)
        coords = _normalize(
            [t_pair[i] * s_pair[j] for i in (0, 1) for j in (0, 1)]
        )
        record = E._cache["points"][place] = (mt, ms, coords)
    return record


def embed_point(E: EmbeddedCurve, place: Place):
    """Exact Segre coordinates of a place's image, normalized."""
    return _image_record(E, place)[2]


def embed(curve: HyperCurve, theta: CharClass) -> EmbeddedCurve:
    """Product embedding from the canonical system and the cube of an
    even square-root class; both section dimensions and the implicit
    equation are certified on the way.  That the class itself has no
    sections is certified once, by ``even_theta_obstruction``."""
    if curve.genus != 2:
        raise ValueError("the product embedding is a genus-2 construction")
    if not isinstance(theta, CharClass) or theta.g != 2:
        raise ValueError("theta must be a genus-2 square-root class")
    if theta.parity_bit != 0:
        raise ValueError("square-root class must be even")
    tset = theta.members
    rr_canonical = rr_space(curve, canonical_divisor(curve))
    if rr_canonical.dimension != 2:
        raise VerificationError(
            "canonical system has dimension %d" % rr_canonical.dimension
        )
    rr_cube = rr_space(curve, spin_power_divisor(curve, tset, 3))
    if rr_cube.dimension != 2:
        raise VerificationError(
            "square-root cube has dimension %d" % rr_cube.dimension
        )
    spin_cube = rr_cube.basis
    canon = rr_canonical.basis
    segre = tuple(spin_cube[i] * canon[j] for i in (0, 1) for j in (0, 1))
    implicit = _implicit_equation(curve, spin_cube, canon)
    E = EmbeddedCurve(curve, theta, canon, spin_cube, segre, implicit)
    _check_base_point_free(E)
    return E


def _check_base_point_free(E: EmbeddedCurve):
    """Neither linear system may vanish entirely at a distinguished
    place: joint section vanishing order must be zero there.  Fills the
    image cache at every distinguished place on the way."""
    theta_div = spin_power_divisor(E.curve, E.theta.members, 3)
    k_div = canonical_divisor(E.curve)
    for place in E.curve.all_standard_places():
        mt, ms, _ = _image_record(E, place)
        if mt + theta_div.coeff(place) > 0 or ms + k_div.coeff(place) > 0:
            raise VerificationError("unexpected base point at %r" % (place,))


def standard_embedding() -> EmbeddedCurve:
    return embed(standard_curve(), CharClass(2, (1, 2, 3)))


# ----------------------------------------------------------------------
# the involution as a projective matrix
# ----------------------------------------------------------------------


def _in_span(basis, func):
    """Exact coefficients writing func = a*basis[0] + b*basis[1], or
    None when func is outside the span."""
    b0, b1 = basis
    kernel = _relation_kernel((b0, b1, func))
    if len(kernel) != 1:
        return None
    v = kernel[0]
    if v[2] == 0:
        return None
    a, b = exact_quotient(-v[0], v[2]), exact_quotient(-v[1], v[2])
    if not func == a * b0 + b * b1:
        raise VerificationError("span solution failed its own certificate")
    return (a, b)


def involution_matrix(E: EmbeddedCurve):
    """The sheet involution on Segre coordinates: the Kronecker product
    of its action on the two section bases, certified pointwise at every
    distinguished place."""
    factor_actions = []
    for basis in (E.spin_cube_basis, E.canonical_basis):
        action = []
        for g in basis:
            coeffs = _in_span(basis, g.conjugate())
            if coeffs is None:
                raise VerificationError(
                    "involution does not preserve a section basis span"
                )
            action.append(coeffs)
        factor_actions.append(action)
    s_cube, s_canon = factor_actions
    M = [[0] * 4 for _ in range(4)]
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    entry = s_cube[i][k] * s_canon[j][l]
                    M[2 * i + j][2 * k + l] = rational_normal(entry)
    M = tuple(tuple(row) for row in M)
    for place in E.curve.all_standard_places():
        v = embed_point(E, place)
        w = embed_point(E, sigma_place(place))
        mv = tuple(sum(M[r][c] * v[c] for c in range(4)) for r in range(4))
        if not proportional(mv, w):
            raise VerificationError("involution matrix fails at %r" % (place,))
    return M


def quadric_congruence_scale(M):
    """Exact lambda with M^T Q M = lambda Q for the Segre quadric, in the
    QQ normal form."""
    n = range(4)
    mtqm = [
        [
            sum(M[a][i] * SEGRE_QUADRIC[a][b] * M[b][j] for a in n for b in n)
            for j in n
        ]
        for i in n
    ]
    scale = exact_quotient(mtqm[0][3], SEGRE_QUADRIC[0][3])
    for i in n:
        for j in n:
            if mtqm[i][j] != scale * SEGRE_QUADRIC[i][j]:
                raise VerificationError("quadric congruence fails at %d,%d" % (i, j))
    return scale


# ----------------------------------------------------------------------
# planes and intersection divisors
# ----------------------------------------------------------------------


def plane_through(E: EmbeddedCurve, triple: PointTriple):
    """The plane spanned by the images of a distinct triple, or a
    Collinear verdict when they span a line.  One elimination decides
    both: the three image rows have rank 4 minus the kernel dimension,
    so a one-dimensional kernel is the plane and a larger one a line."""
    if not triple.distinct:
        raise ValueError("coincident points in the triple")
    rows = [list(embed_point(E, p)) for p in triple.places]
    kernel = nullspace(rows)
    if len(kernel) != 1:
        return Collinear(4 - len(kernel))
    plane = PlaneP3(kernel[0])
    for row in rows:
        if plane.value(row) != 0:
            raise VerificationError("computed plane misses an input point")
    return plane


class PlaneSection:
    """Exact record of a plane's intersection with the embedded curve:
    the rationally supported part of the divisor, the degree of the part
    on irrational points, and the exact total degree."""

    __slots__ = ("plane", "divisor", "degree", "irrational_degree")

    def __init__(self, plane, divisor, degree, irrational_degree):
        self.plane = plane
        self.divisor = divisor
        self.degree = degree
        self.irrational_degree = irrational_degree


def plane_curve_divisor(E: EmbeddedCurve, plane: PlaneP3) -> PlaneSection:
    """Pull the plane's linear form back through the embedding to h and
    read the section off ``rational_divisor(h)``: its rational part is D
    minus the coordinate frame, the minimal orders of the Segre
    coordinates at the standard places, and its irrational degree is
    that of the zeros D leaves out (conjugate points over irrational or
    non-square x).  Every section, rational or not, is certified by an
    effective rational part and an exact total degree of 5; a pole off
    the rational places would be a negative part the frame cannot see."""
    h = FieldElem(E.curve, UPoly())
    for c, z in zip(plane.coeffs, E.segre_functions):
        if c:
            h = h + c * z
    if not h:
        raise ValueError("plane pulls back to the zero function")
    full, zeros, poles = rational_divisor(h)
    frame = E._cache["frame"]
    if frame is None:
        frame = E._cache["frame"] = Divisor(
            {p: sum(_image_record(E, p)[:2]) for p in E.curve.all_standard_places()}
        )
    div = full - frame
    if poles or not div.is_effective():
        raise VerificationError("intersection divisor has a negative part")
    degree = div.degree + zeros
    if degree != 5:
        raise VerificationError("intersection degree is %d, not 5" % degree)
    return PlaneSection(plane, div, degree, zeros)


# ----------------------------------------------------------------------
# triple reports
# ----------------------------------------------------------------------


def _twist_divisor(E: EmbeddedCurve, triple: PointTriple) -> Divisor:
    """Divisor representing the triple's bundle twisted down by the
    square root: (p+q+r) plus the base theta representative - canonical,
    which is built once per embedding."""
    base = E._cache["twist_base"]
    if base is None:
        base = E._cache["twist_base"] = theta_divisor(
            E.curve, E.theta.members
        ) - canonical_divisor(E.curve)
    return Divisor({p: 1 for p in triple.places}) + base


def triple_plane_report(E: EmbeddedCurve, triple: PointTriple) -> dict:
    """The geometry/function-theory cross-check for one distinct triple:
    collinearity of the image points must match the section count of the
    twisted bundle (line: 2 sections; plane: 1), and in the line case
    the twist must be the square-root class itself, certified by an
    explicit function."""
    if not triple.distinct:
        raise ValueError("triple must consist of three distinct places")
    verdict = plane_through(E, triple)
    collinear = isinstance(verdict, Collinear)
    sections = rr_space(E.curve, _twist_divisor(E, triple))
    dim = sections.dimension
    if dim not in (1, 2):
        raise VerificationError("twisted bundle has %d sections" % dim)
    if collinear != (dim == 2):
        raise VerificationError(
            "collinearity and section count disagree on %r" % (triple,)
        )
    report = {
        "triple": list(triple.labels()),
        "collinear": collinear,
        "section_dimension": dim,
        "match": True,
        "plane": None,
        "sigma_plane": None,
    }
    if not collinear:
        sigma_plane = plane_through(E, triple.apply_sigma())
        if isinstance(sigma_plane, Collinear):
            raise VerificationError("involution image of a plane triple collapsed")
        section = plane_curve_divisor(E, sigma_plane)
        for p in triple.apply_sigma().places:
            if section.divisor.coeff(p) < 1:
                raise VerificationError("sigma plane misses an image point")
        report["plane"] = list(verdict.coeffs)
        report["sigma_plane"] = list(sigma_plane.coeffs)
        report["intersection_degree"] = section.degree
    else:
        witness = _square_root_identification(E, sections)
        report["square_root_identification"] = witness
    return report


def _square_root_identification(E, twist_space) -> dict:
    """Certificate that a collinear triple's twist is the square-root
    class: the degree-0 difference twist - 2 theta is principal, with the
    function exhibited and its divisor re-verified.  The identification
    carries the canonical sections onto the twist's sections; the image
    of the constant is reported as the distinguished section."""
    theta = theta_divisor(E.curve, E.theta.members)
    diff = twist_space.divisor - theta.scale(2)
    space = rr_space(E.curve, diff)
    if space.dimension != 1:
        raise VerificationError(
            "collinear triple twist differs from the square-root class"
        )
    w = space.basis[0]
    if divisor_of(w) != -diff:
        raise VerificationError("identification witness has the wrong divisor")
    carrier = w / FieldElem(E.curve, branch_product(E.curve, E.theta.members))
    for h in E.canonical_basis:
        if _in_span(twist_space.basis, carrier * h) is None:
            raise VerificationError(
                "canonical sections do not carry onto the twist"
            )
    return {
        "confirmed": True,
        "witness": field_elem_label(w),
        "distinguished_section": field_elem_label(carrier),
    }


def field_elem_label(h: FieldElem) -> str:
    """Canonical short text form (a + b*y)/den with ascending
    coefficient tuples."""

    def poly(p):
        return "(%s)" % ",".join(str(c) for c in p.coeffs) if p else "0"

    return "(%s + %s*y)/%s" % (poly(h.a), poly(h.b), poly(h.den))


def even_theta_obstruction(E: EmbeddedCurve) -> bool:
    """The chosen square-root class has no sections in either degree:
    h0 = 0 directly and h1 = 0 by duality."""
    space = rr_space(E.curve, theta_divisor(E.curve, E.theta.members))
    if space.dimension != 0:
        raise VerificationError(
            "square-root class has %d sections" % space.dimension
        )
    if space.rr_record["dual_dim"] != 0:
        raise VerificationError("square-root class has a nonzero dual side")
    return True


def riemann_hurwitz(g_base: int, deg_cover: int, branch_count: int) -> int:
    """Genus of a cover with simple branch points, from the Euler
    characteristic count; rejects branching data giving a fractional or
    negative genus."""
    if g_base < 0 or deg_cover < 1 or branch_count < 0:
        raise ValueError("invalid covering data")
    doubled = deg_cover * (2 * g_base - 2) + branch_count + 2
    genus, rem = divmod(doubled, 2)
    if rem:
        raise ValueError("branching data gives a non-integer genus")
    if genus < 0:
        raise ValueError("branching data gives a negative genus")
    return genus
