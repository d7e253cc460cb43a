"""The plane section of the odd suite as two paths, kept as the oracle
for the one-path ``oddmoduli.plane_curve_divisor``.  A pullback whose
support is rational gets ``divisor_of``; any other one falls back to a
second pass over the rational roots of its norm, which checks only that
the rational part is effective and of degree at most 5."""

from types import SimpleNamespace

from spincert import VerificationError
from spincert.exactalg import UPoly
from spincert.hyperell import Divisor, FieldElem, Place, divisor_of
from spincert.oddmoduli import EmbeddedCurve, PlaneP3, _image_record


def PlaneSection(plane, divisor, degree, irrational_degree, place_data):
    return SimpleNamespace(
        plane=plane,
        divisor=divisor,
        degree=degree,
        irrational_degree=irrational_degree,
        place_data=place_data,
    )


def _min_val(E: EmbeddedCurve, place: Place) -> int:
    mt, ms, _ = _image_record(E, place)
    return mt + ms


def plane_curve_divisor(E: EmbeddedCurve, plane: PlaneP3) -> PlaneSection:
    """Pull the plane's linear form back through the embedding and
    compute its vanishing divisor against the coordinate frame.  The
    total degree is exact even when part of the support is a pair of
    conjugate irrational points; that part only lowers the rationally
    listed portion."""
    h = FieldElem(E.curve, UPoly())
    for c, z in zip(plane.coeffs, E.segre_functions):
        if c:
            h = h + c * z
    if not h:
        raise ValueError("plane pulls back to the zero function")
    place_data = {}
    entries = {}
    msum = 0
    for place in E.curve.all_standard_places():
        m = _min_val(E, place)
        v = h.valuation(place)
        mult = v - m
        if mult < 0:
            raise VerificationError("pullback valuation sits below the frame minimum")
        place_data[place] = (m, v, mult)
        msum += m
        if mult:
            entries[place] = mult
    total = -msum
    if total != 5:
        raise VerificationError("intersection degree is %d, not 5" % total)
    frame = Divisor(
        {p: place_data[p][0] for p in place_data if place_data[p][0]}
    )
    try:
        full = divisor_of(h)
    except ValueError:
        full = None
    if full is not None:
        div = full - frame
        if not div.is_effective():
            raise VerificationError("intersection divisor has a negative part")
        if div.degree != total:
            raise VerificationError(
                "intersection divisor degree %d disagrees with the frame count"
                % div.degree
            )
        return PlaneSection(plane, div, total, 0, place_data)
    num, _ = h.norm_pair()
    for r in num.rational_roots():
        if r in E.curve.roots:
            continue
        for pl in E.curve.places_over(r):
            v = h.valuation(pl)
            if v:
                entries[pl] = v
    div = Divisor(entries)
    if not div.is_effective() or div.degree > total:
        raise VerificationError("rational intersection part is inconsistent")
    return PlaneSection(plane, div, total, total - div.degree, place_data)
