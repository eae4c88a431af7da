"""Positive-cone geometry in signature (1, rank-1).

A Chamber is cut out by reflective walls (each an integral reflection
vector) plus optional non-reflective boundary faces derived from an
explicit list of extreme rays.  Wall inequalities are oriented so the
ample anchor is strictly inside.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from operator import index, mul

from .lattice import IntegerLattice, LatticeError, form_basis, scaled
from .isometry import reflection_in
from .quadfield import pair_sign


class ChamberError(LatticeError):
    pass


def in_positive_cone(lat, anchor, x):
    """True iff x has positive norm and pairs positively with the anchor."""
    if lat.norm(anchor) <= 0:
        raise ChamberError("anchor must have positive norm")
    return lat.norm(x) > 0 and lat.inner(x, anchor) > 0


def _clear_denominators(v):
    """The primitive integer vector on the ray of a rational vector v."""
    _, ints = scaled(v)
    g = gcd(*ints) or 1
    return tuple(c // g for c in ints)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


@dataclass(frozen=True)
class Chamber:
    lattice: IntegerLattice
    anchor: tuple
    walls: tuple               # reflection vectors
    extra_rays: tuple = None   # extreme rays of the chamber (int or rational)

    # derived, cached at construction
    wall_forms: tuple = field(default=None, compare=False)
    # each wall w oriented with (w, anchor) > 0, and its norm (w, w) < 0
    wall_vectors: tuple = field(default=None, compare=False)
    wall_norms: tuple = field(default=None, compare=False)
    face_forms: tuple = field(default=None, compare=False)
    reflections: tuple = field(default=None, compare=False)
    # (i, *form, *vector, norm) per oriented wall, i 1-based: the rows that
    # reduce_to_chamber's rank-3 walk unpacks into scalars
    wall_table: tuple = field(default=None, compare=False)

    def __post_init__(self):
        lat = self.lattice
        if lat.norm(self.anchor) <= 0:
            raise ChamberError("(anchor, anchor) must be positive")
        forms, vectors, norms, refls = [], [], [], []
        for w in self.walls:
            # reduce_to_chamber's step bound needs reflections keeping the cone
            ww = lat.norm(w)
            if ww >= 0:
                raise ChamberError("wall %s has (w, w) >= 0" % (w,))
            row = lat.pairing_row(w)
            val = self.face_value(row, self.anchor)
            if val == 0:
                raise ChamberError("wall %s passes through the anchor" % (w,))
            s = 1 if val > 0 else -1
            forms.append(tuple(s * r for r in row))
            vectors.append(tuple(s * c for c in w))
            norms.append(ww)
            # checks that the reflection is integral on the lattice, so each
            # step of reduce_to_chamber divides exactly
            refls.append(reflection_in(lat, w))
        object.__setattr__(self, "wall_forms", tuple(forms))
        object.__setattr__(self, "wall_vectors", tuple(vectors))
        object.__setattr__(self, "wall_norms", tuple(norms))
        object.__setattr__(self, "reflections", tuple(refls))
        object.__setattr__(self, "wall_table", tuple(
            (i, *f, *w, ww)
            for i, (f, w, ww) in enumerate(zip(forms, vectors, norms), 1)))
        if self.extra_rays is not None:
            object.__setattr__(self, "face_forms",
                               self._facets_from_rays(self.extra_rays))

    def _facets_from_rays(self, rays):
        """Facet inequalities of the cone over the given rays (rank 3)."""
        if self.lattice.rank != 3:
            raise ChamberError("ray-derived faces implemented for rank 3")
        rs = [_clear_denominators(r) for r in rays]
        facets = []
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                n = _cross(rs[i], rs[j])
                if all(c == 0 for c in n):
                    continue
                vals = [self.face_value(n, r) for r in rs]
                if all(v >= 0 for v in vals):
                    f = n
                elif all(v <= 0 for v in vals):
                    f = tuple(-c for c in n)
                else:
                    continue
                f = _clear_denominators(f)
                if f not in facets:
                    facets.append(f)
        return tuple(facets)

    def wall_value(self, i, x):
        """Oriented wall form i evaluated at x (exact)."""
        return self.face_value(self.wall_forms[i], x)

    @staticmethod
    def face_value(f, x):
        """The linear form f at x (exact)."""
        return sum(map(mul, f, x))


def in_chamber(chamber, x):
    """Boundary-inclusive membership in the chamber."""
    if chamber.face_forms is not None:
        return all(chamber.face_value(f, x) >= 0 for f in chamber.face_forms)
    return all(chamber.wall_value(i, x) >= 0 for i in range(len(chamber.walls)))


@dataclass(frozen=True)
class ReductionTrace:
    word: tuple    # 1-based wall indices, in the order they were applied
    result: tuple

    def unreduce(self, chamber):
        """Apply the recorded reflections backwards to recover the input."""
        x = self.result
        for i in reversed(self.word):
            x = chamber.reflections[i - 1].apply(x)
        return x


_OFF_CONE = "%s is off the closed positive cone: (x, x) = %s, (x, anchor) = %s"
_NOT_INTEGRAL = "the reflection in wall %d is not integral at %s"


def reduce_to_chamber(chamber, x):
    """Reflect x across strictly violated walls until none is violated.

    Tie-break: lowest wall index.  Non-reflective faces never generate
    reductions.  Contract: x is an integer class of the closed positive
    cone, (x, x) >= 0 and (x, anchor) > 0; any other class, a coordinate
    that is not an int included, raises ChamberError before any reflection.

    No step cap is needed (Vinberg 1972).  Orient w so that (w, anchor) > 0.
    A strictly violated wall has (x, w) < 0, and (w, w) < 0, so
    k = 2(x, w)/(w, w) is a positive integer (the reflection is integral).
    The reflection fixes the plane orthogonal to w, which meets the cone,
    so x stays in the cone while the integer (x, anchor) drops by
    k (w, anchor) >= m = min |(w, anchor)| (10 for the pentagon): at most
    (x, anchor) // m steps.

    Each step reuses the value (x, w) its wall test computed: the oriented
    wall form is the pairing with the oriented w, so the step is
    x - k w with k = 2(x, w)/(w, w), no matrix product.  The division is
    exact, as the Chamber checked each reflection integral on the basis;
    a remainder would contradict that and raises ChamberError.

    At rank 3 (the quartic lattice) the walk runs on scalars, as
    ``orbit_of_anchor`` does: the class, the Gram rows and the anchor are
    unpacked once, each oriented wall (form, vector, norm) is one flat row
    of the chamber's ``wall_table``, each wall test is an unrolled dot
    product and each step three updates x_i -= k w_i.  Other ranks take
    the generic walk, ``_reduce_generic``, which gives the same trace.
    """
    try:
        x = tuple(map(index, x))
    except TypeError:
        raise ChamberError("%s is not an integer class" % (tuple(x),)) from None
    if len(x) != 3 or chamber.lattice.rank != 3:
        return _reduce_generic(chamber, x)
    x0, x1, x2 = x
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = chamber.lattice.gram
    a0, a1, a2 = chamber.anchor
    xx = (g00 * x0 * x0 + g11 * x1 * x1 + g22 * x2 * x2
          + 2 * (g01 * x0 * x1 + g02 * x0 * x2 + g12 * x1 * x2))
    xa = (x0 * (g00 * a0 + g01 * a1 + g02 * a2)
          + x1 * (g01 * a0 + g11 * a1 + g12 * a2)
          + x2 * (g02 * a0 + g12 * a1 + g22 * a2))
    if xx < 0 or xa <= 0:
        raise ChamberError(_OFF_CONE % (x, xx, xa))
    walls = chamber.wall_table
    word = []
    while True:
        for i, f0, f1, f2, w0, w1, w2, ww in walls:
            v = f0 * x0 + f1 * x1 + f2 * x2
            if v < 0:
                break
        else:
            return ReductionTrace(word=tuple(word), result=(x0, x1, x2))
        k, r = divmod(2 * v, ww)
        if r:
            raise ChamberError(_NOT_INTEGRAL % (i, (x0, x1, x2)))
        x0 -= k * w0
        x1 -= k * w1
        x2 -= k * w2
        word.append(i)


def _reduce_generic(chamber, x):
    """reduce_to_chamber's walk at any rank, on a tuple of ints x: the
    lattice's pairing for the cone test, one dot product per wall test and
    a new tuple per step."""
    lat = chamber.lattice
    xx, xa = lat.norm(x), lat.inner(x, chamber.anchor)
    if xx < 0 or xa <= 0:
        raise ChamberError(_OFF_CONE % (x, xx, xa))
    walls = tuple(enumerate(zip(chamber.wall_forms, chamber.wall_vectors,
                                chamber.wall_norms), 1))
    word = []
    cur = x
    while True:
        for i, (f, w, ww) in walls:
            v = sum(map(mul, f, cur))
            if v < 0:
                break
        else:
            return ReductionTrace(word=tuple(word), result=cur)
        k, r = divmod(2 * v, ww)
        if r:
            raise ChamberError(_NOT_INTEGRAL % (i, cur))
        cur = tuple(c - k * wc for c, wc in zip(cur, w))
        word.append(i)


# ---------------------------------------------------------------------------
# ping-pong certification

def isotropic_rays_in_wall(lat, wall, anchor):
    """The two isotropic rays of the plane orthogonal to ``wall`` (rank 3),
    oriented to pair positively with the anchor, as (d, rays): each ray
    coordinate is an integer pair (p, q) meaning p + q sqrt(d).

    With p, q a basis of the plane and d = (p, q)^2 - (p, p)(q, q), the
    rays are (p, p) x = (-(p, q) +- sqrt(d)) p + (p, p) q; when p is
    isotropic they are p and -(q, q) p + 2 (p, q) q, with every q = 0.
    zsign is exact at square d too, so one format serves every plane."""
    _, _, (p, q) = form_basis(lat.pairing_row(wall))
    np_, npq, nq = lat.norm(p), lat.inner(p, q), lat.norm(q)
    d = npq * npq - np_ * nq
    if d <= 0:
        # (w, w) < 0 makes the plane hyperbolic, d > 0
        raise ChamberError("wall plane meets the light cone in no pair of "
                           "rays (d = %d)" % d)
    if np_ == 0:
        rays = [tuple((c, 0) for c in p),
                tuple((2 * npq * qc - nq * pc, 0) for pc, qc in zip(p, q))]
    else:
        rays = [tuple((np_ * qc - npq * pc, s * pc) for pc, qc in zip(p, q))
                for s in (1, -1)]
    anchor_row = lat.pairing_row(anchor)
    out = []
    for ray in rays:
        s = pair_sign(anchor_row, ray, d)
        if s == 0:
            raise ChamberError("isotropic ray orthogonal to the anchor")
        out.append(ray if s > 0 else tuple((-a, -b) for a, b in ray))
    return d, out


@dataclass(frozen=True)
class PingPongCertificate:
    # entries in JSON form: containments {"pair": [i, j], "d": d,
    # "rays": [[[p, q], ...], ...], "signs": [[form, sign], ...],
    # "pass": bool}, anchor conditions {"wall": i, "pass": bool}
    containments: tuple
    anchor_conditions: tuple
    passed: bool

    def to_json(self):
        return {"containments": list(self.containments),
                "anchor_conditions": list(self.anchor_conditions),
                "pass": self.passed}


def pingpong_certify(chamber):
    """Free-product certificate for the wall reflections.

    For walls i != j, the half-space claim S_j subset {l_i > 0} (S_j the
    open cap {l_j < 0} of the positive cone) reduces to exact sign checks
    on the isotropic boundary rays: l_i >= 0 on both rays of wall plane j
    and l_j >= 0 on both rays of wall plane i, each with at least one
    strict inequality.  Wall planes may touch at a shared isotropic ray
    (sign 0 on one side), but then the zero chord of l_i has both ideal
    endpoints in the convex region {l_j >= 0}, so it misses the open cap,
    and l_i keeps one sign there -- positive, by continuity at the strict
    ray.  Also certifies that each wall reflection throws the anchor into
    its own half-space S_i (so every S_i is nonempty).  Every sign is
    pair_sign of a wall form at a ray of integer pairs.
    """
    lat = chamber.lattice
    forms = chamber.wall_forms
    planes = [isotropic_rays_in_wall(lat, w, chamber.anchor)
              for w in chamber.walls]
    containments = []
    all_ok = True
    for i, (di, rays_i) in enumerate(planes):
        for j, (dj, rays_j) in enumerate(planes):
            if i == j:
                continue
            side_ij = [pair_sign(forms[i], u, dj) for u in rays_j]
            side_ji = [pair_sign(forms[j], u, di) for u in rays_i]
            ok = min(side_ij + side_ji) >= 0 \
                and max(side_ij) > 0 and max(side_ji) > 0
            all_ok = all_ok and ok
            containments.append({
                "pair": [i + 1, j + 1],
                "d": dj,
                "rays": [[list(c) for c in u] for u in rays_j],
                "signs": [["l%d" % (i + 1), s] for s in side_ij]
                + [["l%d" % (j + 1), s] for s in side_ji],
                "pass": ok,
            })
    anchor_conditions = []
    for i, refl in enumerate(chamber.reflections):
        img = refl.apply(chamber.anchor)
        ok = (in_positive_cone(lat, chamber.anchor, img)
              and chamber.wall_value(i, img) < 0)
        all_ok = all_ok and ok
        anchor_conditions.append({"wall": i + 1, "pass": ok})
    return PingPongCertificate(containments=tuple(containments),
                               anchor_conditions=tuple(anchor_conditions),
                               passed=all_ok)


def orbit_of_anchor(chamber, max_word_len):
    """Images of the anchor under all reduced words (no adjacent repeats)
    in the wall reflections, up to the given length, level by level in the
    order of the words.  Raises on duplicates, which would contradict a
    ping-pong certificate.

    Each level is one comprehension over the previous one.  At rank 3 (the
    quartic lattice) the reflection matrices are unrolled, nine integer
    products a class with no call, so a walk's cost is close to that of
    printing it; other ranks go through ``Isometry.apply``."""
    refls = chamber.reflections
    mats = [r.matrix for r in refls]
    anchor = tuple(chamber.anchor)
    out = [anchor]
    seen = {anchor}
    level = [(None, anchor)]    # (last wall, class)
    for length in range(1, max_word_len + 1):
        if chamber.lattice.rank == 3:
            level = [(i, (a0 * x + a1 * y + a2 * z,
                          b0 * x + b1 * y + b2 * z,
                          c0 * x + c1 * y + c2 * z))
                     for last, (x, y, z) in level
                     for i, ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2))
                     in enumerate(mats) if i != last]
        else:
            level = [(i, r.apply(v)) for last, v in level
                     for i, r in enumerate(refls) if i != last]
        images = [v for _, v in level]
        seen.update(images)
        out += images
        if len(seen) != len(out):
            dup = next(v for v, n in Counter(out).items() if n > 1)
            raise ChamberError("duplicate orbit class %s at word length %d"
                               % (dup, length))
    return out
