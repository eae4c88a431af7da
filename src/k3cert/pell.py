"""The rank-2 family with Gram [[4, 4l], [4l, 4]] and Aut = Z.

Norm form: ((x h1 + y h2)^2) = 4((x + l y)^2 - (l^2 - 1) y^2), so columns
of any isometry solve the Pell equation u^2 - (l^2 - 1) b^2 = 1 after the
substitution u = a + l b.  The fundamental solution is (u, b) = (l, 1)
(no solution has 0 < b < 1), so the recurrence
    u' = l u + (l^2 - 1) b,   b' = u + l b
generates every solution up to signs: they are the powers +-eps^k of the
unit eps = l + sqrt(l^2 - 1) (Lenstra, "Solving the Pell equation",
Notices AMS 49, 2002).  Multiplication by eps^k = u + b sqrt(l^2 - 1) is
the isometry ((u - l b, -b), (b, u + l b)) on (h1, h2) coordinates.

The generator search walks k = 1, 2, ..., UNIT_WALK_POWERS and takes the
first eps^k that passes the ray, cone and discriminant filters with
eigenvalue > 1.  Its certificate is one exhaustive scan of the isometries
with entries up to the least bound entry_bound * 2^j that holds the walk's
answer; the scan assembles matrices from the Pell columns of the
recurrence, which is provably the same set as a brute-force scan of all
integer matrices within the bound.

The nef cone is bounded by the two irrational isotropic rays
v1 = (-l + sqrt(l^2-1)) h1 + h2 and v2 = h1 + (-l + sqrt(l^2-1)) h2.

Every number of this layer is p + q sqrt(d), d = l^2 - 1, with integers p
and q, or a ratio of two such numbers, so the checks compute in Z[sqrt(d)]:
a ray coordinate is an integer pair (p, q), an eigenvalue an integer triple
(p, q, n) meaning (p + q sqrt(d)) / n with n > 0, and quadfield.zsign
decides signs.  A QuadExt is built only for a value that is printed or
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count

from .lattice import (
    DiscriminantGroup,
    IntegerLattice,
    LatticeError,
    discriminant_group,
    is_zero_polynomial,
    lattice_points,
    scaled,
    solve_norm_system,
)
from .isometry import Isometry, PowerTable, discriminant_action
from .quadfield import QuadExt, is_square, pair_sign, zsign
from .report import FAIL, PASS, SKIPPED, Report, run_suite, verdict


class PellError(LatticeError):
    pass


# verify pell's defaults: l, the lemma-4.6 entry bound, the lemma-4.7 |k|
ELLS = range(6, 13)
ENTRY_BOUND = 300
K_BOUND = 5


@dataclass(frozen=True)
class PellContext:
    ell: int
    lattice: IntegerLattice
    anchor: tuple                  # h1
    v1: tuple = field(compare=False)  # coordinates as integer pairs (p, q)
    v2: tuple = field(compare=False)
    # NS*/NS, built once per l for check_discriminant and isometry_search
    disc: DiscriminantGroup = field(compare=False)

    @property
    def d(self):
        return self.ell * self.ell - 1


def build_context(ell):
    if ell <= 5:
        raise PellError("the family requires l > 5 (got l = %d)" % ell)
    d = ell * ell - 1
    if is_square(d):
        raise PellError("l^2 - 1 must not be a perfect square")
    lat = IntegerLattice(gram=((4, 4 * ell), (4 * ell, 4)))
    # -l + sqrt(l^2 - 1) is the pair (-l, 1)
    ctx = PellContext(ell=ell, lattice=lat, anchor=(1, 0),
                      v1=((-ell, 1), (1, 0)), v2=((1, 0), (-ell, 1)),
                      disc=discriminant_group(lat))
    for ray in (ctx.v1, ctx.v2):
        if _zinner(ctx, ray, ray) != (0, 0):
            raise PellError("boundary ray is not isotropic")
    if _pairing_sign(ctx, _lift(ctx.anchor), ctx.v1) <= 0:
        raise PellError("h1 does not pair positively with v1")
    return ctx


def _zmul(x, y, d):
    """The product of p + q sqrt(d) and r + s sqrt(d) as an integer pair."""
    return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _lift(x):
    """An integer vector with coordinates as integer pairs."""
    return tuple((c, 0) for c in x)


def _zinner(ctx, x, y):
    """The pairing (x, y) of two vectors with integer-pair coordinates,
    as an integer pair."""
    p = q = 0
    for i, row in enumerate(ctx.lattice.gram):
        for j, gij in enumerate(row):
            a, b = _zmul(x[i], y[j], ctx.d)
            p += gij * a
            q += gij * b
    return p, q


def _pairing_sign(ctx, x, y):
    return zsign(*_zinner(ctx, x, y), ctx.d)


def _quad(lam, d):
    """The QuadExt of an eigenvalue triple (p, q, n)."""
    p, q, n = lam
    return QuadExt(Fraction(p, n), Fraction(q, n), d)


def _zpow(x, k, d):
    """(p + q sqrt(d))^k for k >= 0 as an integer pair."""
    out = (1, 0)
    for _ in range(k):
        out = _zmul(out, x, d)
    return out


def _as_triple(x):
    """A QuadExt as the triple (p, q, n) with n > 0 the lcm of its
    denominators."""
    n, (p, q) = scaled((x.a, x.b))
    return p, q, n


# ---------------------------------------------------------------------------

def check_representation(ctx, targets=(0, 2, -2), box=100):
    """Brute-force emptiness for the targets plus the structural proofs."""
    if box < 1:
        raise PellError("box must be >= 1")
    ell = ctx.ell
    problems = []
    # one walk for every target, each x solved for y exactly; the first hit
    # of a norm is its least (x, y)
    hits = solve_norm_system(ctx.lattice, [], tuple(targets), box)
    for t in targets:
        first = next((x for x in hits if ctx.lattice.norm(x) == t), None)
        if first is not None:
            problems.append("norm %d represented by %s" % (t, first))
    # structural route: the norm form is 4((x + l y)^2 - (l^2-1) y^2), so 4
    # divides every value (rules out +-2), and value 0 would force the Pell
    # conic (x + l y)^2 = (l^2 - 1) y^2 with irrational sqrt(l^2 - 1)
    if not is_zero_polynomial(
            lambda x, y: 4 * x * x + 8 * ell * x * y + 4 * y * y
            - 4 * ((x + ell * y) ** 2 - (ell * ell - 1) * y * y), (2, 2)):
        problems.append("norm-form factorization identity failed")
    if is_square(ctx.d):
        problems.append("l^2 - 1 is a perfect square")
    # sanity: norm 4 is represented (the anchor)
    if ctx.lattice.norm(ctx.anchor) != 4:
        problems.append("(h1^2) != 4")
    return verdict(problems, "no vector of norm 0, 2 or -2 in box %d; "
                   "factorization 4((x+%dy)^2 - %d y^2) and irrationality "
                   "close the gap" % (box, ell, ctx.d))


def check_discriminant(ctx):
    disc = ctx.disc
    want = (4, 4 * ctx.d)
    problems = []
    if disc.invariant_factors != want:
        problems.append("invariant factors %s != %s"
                        % (disc.invariant_factors, want))
    else:
        g1 = (Fraction(1, 4), Fraction(0))                       # h1/4
        g2 = (Fraction(-ctx.ell, 4 * ctx.d), Fraction(1, 4 * ctx.d))
        c1, c2 = disc.coordinates_of(g1), disc.coordinates_of(g2)
        if c1 is None or c2 is None:
            problems.append("stated generators are not dual vectors")
        else:
            if disc.element_order(g1) != 4:
                problems.append("h1/4 does not have order 4")
            if disc.element_order(g2) != 4 * ctx.d:
                problems.append("(h2 - l h1)/(4(l^2-1)) has wrong order")
            # they generate Z_4 + Z_4d iff c1, c2, 4 e1 and 4d e2 span Z^2,
            # i.e. iff the 2x2 minors of these columns are coprime
            cols = (c1, c2, (want[0], 0), (0, want[1]))
            if math.gcd(*(a[0] * b[1] - a[1] * b[0]
                          for a, b in combinations(cols, 2))) != 1:
                problems.append("stated generators do not generate NS*/NS")
    return verdict(problems, "NS*/NS = Z_4 + Z_%d with the stated generators"
                   % (4 * ctx.d))


def check_lemma44(run):
    """Lemma 4.4: the representation and the discriminant checks."""
    ctx = run.ctx
    (s1, d1), (s2, d2) = (
        check_representation(ctx, box=100 if ctx.ell == 6 else 50),
        check_discriminant(ctx))
    return (PASS if s1 == s2 == PASS else FAIL), "%s; %s" % (d1, d2)


def check_rays(run):
    ctx = run.ctx
    v1, v2 = ctx.v1, ctx.v2
    problems = []
    if _zinner(ctx, v1, v1) != (0, 0) or _zinner(ctx, v2, v2) != (0, 0):
        problems.append("a boundary ray has nonzero self-intersection")
    h1 = _lift(ctx.anchor)
    p1 = _zinner(ctx, h1, v1)
    if p1 != (0, 4):  # 4 sqrt(l^2 - 1)
        problems.append("(h1, v1) = %s != 4 sqrt(%d)"
                        % (QuadExt(*p1, ctx.d), ctx.d))
    if _pairing_sign(ctx, h1, v2) <= 0:
        problems.append("(h1, v2) is not positive")
    if _pairing_sign(ctx, v1, v2) <= 0:
        problems.append("(v1, v2) is not positive")
    return verdict(problems, "v1, v2 are isotropic and the anchor lies "
                   "strictly between them; (h1, v1) = 4 sqrt(%d) exactly"
                   % ctx.d)


# ---------------------------------------------------------------------------
# isometry search

@dataclass
class GeneratorSearchResult:
    g0: Isometry
    alpha: QuadExt
    trace_a: int
    bound_used: int
    accepted: list
    filtered_out: list  # (matrix, reason)
    # the powers g0^k that the generator, alpha and orbit checks read
    powers: PowerTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.powers = PowerTable(self.g0)


def _pell_columns(ell, bound):
    """All integer columns (a, b) of squared length 4, i.e. with
    u = a + l b solving u^2 - (l^2 - 1) b^2 = 1, and |a|, |b| <= bound."""
    d = ell * ell - 1
    cols = set()
    u, b = 1, 0
    while b <= bound:
        for du in (1, -1):
            for db in (1, -1) if b else (1,):
                a = du * u - ell * db * b
                if abs(a) <= bound and abs(db * b) <= bound:
                    cols.add((a, db * b))
        u, b = ell * u + d * b, u + ell * b
    return sorted(cols)


def _eigen_ratio(ctx, m, ray):
    """The eigenvalue lam with m . ray = lam * ray as an integer triple
    (p, q, n), lam = (p + q sqrt(d)) / n with n > 0, or None.

    The ray's coordinates are integer pairs, so proportionality is two
    integer equations and lam one division in Z[sqrt(d)].
    """
    d = ctx.d
    img = [(m[i][0] * ray[0][0] + m[i][1] * ray[1][0],
            m[i][0] * ray[0][1] + m[i][1] * ray[1][1]) for i in (0, 1)]
    # proportionality: img x ray = img0 r1 - img1 r0 = 0 in Z[sqrt(d)]
    (x0, x1), (y0, y1) = img
    (p0, q0), (p1, q1) = ray
    if (x0 * p1 + d * x1 * q1 - y0 * p0 - d * y1 * q0
            or x0 * q1 + x1 * p1 - y0 * q0 - y1 * p0):
        return None
    for (x, y), (p, q) in zip(img, ray):
        if p or q:
            # (x + y sqrt(d)) / (p + q sqrt(d)), with p^2 - d q^2 != 0
            n = p * p - d * q * q
            s = 1 if n > 0 else -1
            return s * (x * p - d * y * q), s * (y * p - x * q), s * n
    return None


def _filter(ctx, disc, m):
    """The filter that rejects the isometry matrix m, or None; and m's
    eigenvalue triple on v1."""
    lam = _eigen_ratio(ctx, m, ctx.v1)
    if lam is None:
        return "ray-swapping", None
    if zsign(lam[0], lam[1], ctx.d) <= 0:
        return "cone-swapping", lam
    if discriminant_action(m, disc) == "other":
        return "discriminant-other", lam
    return None, lam


def _max_entry(m):
    return max(abs(e) for row in m for e in row)


# How many powers eps^k the unit walk tries.  A count of powers, not a cap on
# the entries: those of eps^k grow like (2 l)^k, so an entry cap would stop
# the walk at a k that falls as l grows.  The generator has been eps^4 at
# every l tested.
UNIT_WALK_POWERS = 64


def _unit_walk(ctx, disc, verdicts):
    """The isometry of the first power eps^k, 1 <= k <= UNIT_WALK_POWERS,
    that passes the filters with eigenvalue > 1, or None.  Each power is
    filtered as a bare matrix and its verdict stored in verdicts, which the
    scan reads back; only the power returned is built as an Isometry."""
    ell = ctx.ell
    u, b = ell, 1
    for _ in range(UNIT_WALK_POWERS):
        m = ((u - ell * b, -b), (b, u + ell * b))
        reason, lam = verdicts[m] = _filter(ctx, disc, m)
        # lam = (p + q sqrt(d)) / n > 1 iff (p - n) + q sqrt(d) > 0
        if reason is None and zsign(lam[0] - lam[2], lam[1], ctx.d) > 0:
            return Isometry(ctx.lattice, m)
        u, b = ell * u + ctx.d * b, u + ell * b
    return None


def isometry_search(ctx, entry_bound=ENTRY_BOUND):
    """Find the minimal-alpha generator among the filtered isometries.

    Filters: ray-swapping matrices are rejected, cone-swapping matrices
    are rejected, and matrices not acting as +-id on NS*/NS are rejected.
    The unit walk proposes g0 (see the module docstring).  The certificate
    is one scan of all raw isometries with entries <= B, for the least
    B = entry_bound * 2^j >= max |entry of g0|: its minimal-alpha accepted
    candidate with alpha > 1 must be g0, and for j > 0 no such candidate
    may fit within B/2, so B is the bound at which doubling from
    entry_bound first finds a generator.
    """
    if entry_bound < 1:
        raise PellError("entry_bound must be >= 1")
    disc = ctx.disc
    verdicts = {}  # matrix -> _filter's verdict, each matrix filtered once
    walked = _unit_walk(ctx, disc, verdicts)
    if walked is None:
        raise PellError("the unit walk found no accepted generator with "
                        "alpha > 1 among eps^1 .. eps^%d" % UNIT_WALK_POWERS)
    bound = entry_bound
    while bound < _max_entry(walked.matrix):
        bound *= 2
    accepted, filtered = [], []
    for m in _raw_isometries(ctx, bound):
        reason, lam = verdicts.get(m) or _filter(ctx, disc, m)
        if reason is None:
            g = walked if m == walked.matrix else Isometry(ctx.lattice, m)
            accepted.append((g, _quad(lam, ctx.d)))
        else:
            filtered.append((m, reason))
    positive = [(g, lam) for g, lam in accepted if lam > 1]
    g0, alpha = min(positive, key=lambda p: p[1], default=(None, None))
    if g0 is None or g0.matrix != walked.matrix:
        raise PellError("the scan at entry bound %d has minimal generator %s, "
                        "the unit walk %s"
                        % (bound, g0 and g0.matrix, walked.matrix))
    if bound > entry_bound and any(_max_entry(g.matrix) <= bound // 2
                                   for g, _ in positive):
        raise PellError("an accepted isometry with alpha > 1 fits within "
                        "entry bound %d" % (bound // 2))
    a = g0.matrix[0][0] + g0.matrix[1][1]
    res = GeneratorSearchResult(g0=g0, alpha=alpha, trace_a=a,
                                bound_used=bound, accepted=accepted,
                                filtered_out=filtered)
    _check_generator(ctx, res)
    return res


def _raw_isometries(ctx, bound):
    """The matrices M with entries <= bound and M^T G M = G, every entry
    compared with G: the columns are the Pell columns, whose norms are the
    diagonal entries (both 4, checked once per column), and a pair is kept
    when its pairing is the off-diagonal entry 4 l (entries (0, 1) and
    (1, 0) are one pairing, as G is symmetric).  Matrices, not Isometry
    objects: the search builds one only for each accepted candidate.

    Only two columns can pair with a column c: a column (a, b) is the unit
    e_c = u + b sqrt(d), u = a + l b, and (c, c') = 4 (u u' - d b b'), so
    (c, c') = 4 l means that z = e_c conj(e_c') has trace 2 l and norm 1,
    i.e. z = eps^(+-1), and c' is c eps = (-b, a + 2 l b) or
    c eps^-1 = (2 l a + b, -a).  So each column is paired with those two
    where they lie within the bound, in the order of the columns, which
    gives the pairs in the order of a scan of all pairs of columns."""
    ell = ctx.ell
    (g00, g01), (_, g11) = ctx.lattice.gram
    cols = _pell_columns(ell, bound)
    within = set(cols)
    out = []
    for a, b in cols:
        # the pairing row G c of the column, read off the 2x2 Gram
        r0, r1 = g00 * a + g01 * b, g01 * a + g11 * b
        norm = r0 * a + r1 * b
        if norm != g00 or norm != g11:
            raise PellError("Pell column %s has norm %d, not %d"
                            % ((a, b), norm, g00))
        up, down = (-b, a + 2 * ell * b), (2 * ell * a + b, -a)
        for c in (up, down) if up < down else (down, up):
            if c in within and r0 * c[0] + r1 * c[1] == g01:
                out.append(((a, c[0]), (b, c[1])))
    return out


def _check_generator(ctx, res):
    g0, alpha, a = res.g0, res.alpha, res.trace_a
    if g0.det() != 1:
        raise PellError("generator has determinant %d" % g0.det())
    if a < 3:
        raise PellError("generator trace %d < 3" % a)
    # with alpha = x / n for x = p + q sqrt(d): n^2 (t^2 - a t + 1) at t = alpha
    # is x^2 - a n x + n^2, and alpha * beta = 1 is x y = n m for beta = y / m
    d = ctx.d
    p, q, n = _as_triple(alpha)
    x2 = _zmul((p, q), (p, q), d)
    if (x2[0] - a * n * p + n * n, x2[1] - a * n * q) != (0, 0):
        raise PellError("alpha does not satisfy t^2 - %d t + 1 = 0" % a)
    beta = _eigen_ratio(ctx, g0.matrix, ctx.v2)
    if beta is None or _zmul((p, q), beta[:2], d) != (n * beta[2], 0):
        raise PellError("alpha * beta != 1")
    # every accepted candidate must be a power of g0 within the search range
    for g, lam in res.accepted:
        if not _is_power_of(res.powers, g):
            raise PellError("accepted candidate %s is not a power of the "
                            "generator" % (g.matrix,))


def _is_power_of(powers, g):
    """Whether g is g0^k for some k, read off the power table of g0.  Each
    side stops at the first power with an entry beyond g's largest, which
    comes: _check_generator has checked trace >= 3, so the entries of g0^k
    grow without bound in |k|.  A miss fails the search, so the stop never
    admits a candidate."""
    limit = _max_entry(g.matrix)
    for sign in (1, -1):
        for k in count():
            h = powers[sign * k]
            if h.matrix == g.matrix:
                return True
            if _max_entry(h.matrix) > limit:
                break
    return False


@dataclass
class PellRun:
    """What the Section 4 items of one l share: the context, the command-line
    bounds, the generator search that the lemma-4.6 item runs, and the
    orbit of h1 that lemmas 4.7 and 4.8 both read."""
    ctx: PellContext
    entry_bound: int = ENTRY_BOUND
    k_bound: int = K_BOUND
    search: GeneratorSearchResult = None
    orbit: tuple = None  # enumerate_H_orbit's (classes, problems)

    def H_orbit(self):
        if self.orbit is None:
            self.orbit = enumerate_H_orbit(self.ctx, self.search, self.k_bound)
        return self.orbit


# the items after lemma-4.6 need its generator; without it they are unchecked
NO_GENERATOR = (SKIPPED, "needs the lemma-4.6 generator, which was not found")


def check_generator(run):
    res = run.search = isometry_search(run.ctx, entry_bound=run.entry_bound)
    return PASS, ("bounded search certificate (entries <= %d): generator "
                  "g0 = %s with trace %d, alpha = %s > 1; %d isometries "
                  "rejected by the ray/cone/discriminant filters; all "
                  "accepted candidates are powers of g0"
                  % (res.bound_used, res.g0.matrix, res.trace_a, res.alpha,
                     len(res.filtered_out)))


def check_alpha_homomorphism(run, n_bound=5):
    if run.search is None:
        return NO_GENERATOR
    ctx, powers = run.ctx, run.search.powers
    d = ctx.d
    # alpha = (ap + aq sqrt(d)) / an, and lam = (p + q sqrt(d)) / m equals
    # num / den exactly when (p + q sqrt(d)) den = m num
    ap, aq, an = _as_triple(run.search.alpha)
    problems = []
    for n in range(-n_bound, n_bound + 1):
        lam = _eigen_ratio(ctx, powers[n].matrix, ctx.v1)
        if lam is None:
            problems.append("g0^%d does not fix the v1 ray" % n)
            continue
        p, q, m = lam
        power, scale = _zpow((ap, aq), abs(n), d), (an ** abs(n), 0)
        num, den = (power, scale) if n >= 0 else (scale, power)
        if _zmul((p, q), den, d) != (m * num[0], m * num[1]):
            problems.append("alpha(g0^%d) != alpha^%d" % (n, n))
        if (p, q) == (m, 0) and n != 0:
            problems.append("alpha(g0^%d) = 1 with n != 0" % n)
    if _zpow((ap, aq), 0, d) != (1, 0):
        problems.append("alpha^0 != 1")
    lam = _eigen_ratio(ctx, powers[-1].matrix, ctx.v1)
    if lam is None or _zmul(lam[:2], (ap, aq), d) != (lam[2] * an, 0):
        problems.append("alpha(g0^-1) is not the conjugate root")
    # monotonicity of the largest root in the trace: for a1 < a2 the value
    # t^2 - a2 t + 1 at t = alpha(a1) is negative, so alpha(a1) sits strictly
    # between the roots of the a2 quadratic, i.e. alpha(a1) < alpha(a2);
    # evaluated at s = 2 alpha(a1) = a1 + sqrt(a1^2 - 4) in integers, where
    # 4 (t^2 - a2 t + 1) = s^2 - 2 a2 s + 4 = 2 (a1 - a2)(a1 + sqrt(a1^2 - 4))
    for a1 in range(3, 9):
        for a2 in range(a1 + 1, 9):
            e = a1 * a1 - 4
            s2 = _zmul((a1, 1), (a1, 1), e)
            if zsign(s2[0] - 2 * a2 * a1 + 4, s2[1] - 2 * a2, e) >= 0:
                problems.append("largest-root monotonicity fails for traces "
                                "%d < %d" % (a1, a2))
    return verdict(problems, "alpha(g0^n) = alpha(g0)^n exactly for |n| <= "
                   "%d; alpha is injective on the range; largest roots "
                   "increase with the trace" % n_bound)


def enumerate_H_orbit(ctx, res, k_bound):
    """Classes g0^k(h1) for |k| <= k_bound, with exact nef-cone membership.
    Each class, its norm and its pairing row are read off the power matrix
    and the 2x2 Gram in integers.  A problem names its class as g0^k(h1):
    the coordinates have about 4 |k| log10(2 l) digits."""
    (g00, g01), (_, g11) = ctx.lattice.gram
    a0, a1 = ctx.anchor
    orbit = []
    problems = []
    for k in range(-k_bound, k_bound + 1):
        (m00, m01), (m10, m11) = res.powers[k].matrix
        x, y = h = (m00 * a0 + m01 * a1, m10 * a0 + m11 * a1)
        orbit.append(h)
        row = (g00 * x + g01 * y, g01 * x + g11 * y)
        if row[0] * x + row[1] * y != 4:
            problems.append("orbit class g0^%d(h1) does not have norm 4" % k)
        if pair_sign(row, ctx.v1, ctx.d) <= 0 \
                or pair_sign(row, ctx.v2, ctx.d) <= 0:
            problems.append("orbit class g0^%d(h1) is not strictly inside "
                            "the cone" % k)
    if len(set(orbit)) != 2 * k_bound + 1:
        problems.append("orbit classes are not pairwise distinct")
    return orbit, problems


def check_H_orbit(run):
    if run.search is None:
        return NO_GENERATOR
    orbit, problems = run.H_orbit()
    # very-ampleness of each class follows from check_representation: the
    # lattice represents neither 0 nor -2, so every norm-4 nef class embeds
    return verdict(problems, "%d distinct norm-4 classes strictly inside the "
                   "nef cone; each is very ample since the lattice represents "
                   "neither 0 nor -2" % len(orbit))


# ---------------------------------------------------------------------------
# the degree-16 obstruction

DEGREE_CAP = 16


def takahashi_obstruction(ctx, h):
    """No effective class independent of h has degree below the cap.

    Route (a), symbolic: an independent c with (c^2) >= 0 and
    0 < (c,h) < 16 spans N = <c, h> with 0 < |det N| < 256; |det N| is a
    multiple of |det NS| = 16 l^2 - 16 > 256 for l > 4, impossible.
    Route (b), exhaustive: enumerate every lattice point with (c^2) >= 0
    and 0 < (c, h) < 16 exactly (the slab is compact because the
    orthogonal complement of h is negative definite) and confirm each is
    a rational multiple of h.
    """
    lat = ctx.lattice
    if lat.norm(h) != 4:
        raise PellError("obstruction requires (h^2) = 4")
    if lat.inner(h, ctx.anchor) <= 0:
        raise PellError("h must be in the positive cone")
    problems = []
    # route (a)
    det_ns = abs(lat.determinant())
    if det_ns != 16 * ctx.ell ** 2 - 16:
        problems.append("|det NS| = %d != 16 l^2 - 16" % det_ns)
    if det_ns <= DEGREE_CAP ** 2:
        problems.append("|det NS| = %d does not exceed %d"
                        % (det_ns, DEGREE_CAP ** 2))
    # margin: 16 l^2 - 16 - 256 = 16 (l^2 - 17) > 0 iff l^2 > 17, so any l > 4
    if not is_zero_polynomial(lambda l: 16 * l * l - 16 - 256
                              - 16 * (l * l - 17), (2,)):
        problems.append("margin factorization 16 (l^2 - 17) failed")
    if 16 * (ctx.ell ** 2 - 17) <= 0:
        problems.append("margin is not positive at l = %d" % ctx.ell)
    # route (b)
    independent = _independent_low_degree_classes(ctx, h, DEGREE_CAP)
    if independent:
        problems.append("independent low-degree classes found: %s"
                        % independent[:3])
    return verdict(problems, "no effective class of degree < %d independent "
                   "of h = %s; |det NS| = %d > 256 blocks the divisibility, "
                   "and the exhaustive slab scan found nothing"
                   % (DEGREE_CAP, h, det_ns))


def _independent_low_degree_classes(ctx, h, degree_cap):
    """All lattice c with (c^2) >= 0, 0 < (c,h) < degree_cap, c not a
    rational multiple of h: the complete slab enumeration, off the h-line."""
    return [c for c in lattice_points(ctx.lattice, h, range(1, degree_cap), 0)
            if c[0] * h[1] - c[1] * h[0] != 0]


def check_obstruction(run):
    """Lemma 4.8 for every orbit class g0^k(h1), from one scan at h1.

    g = g0^k is an Isometry, checked at construction or a product of
    checked ones: integral with det +-1 and M^T G M = G.  So c -> g c is a
    bijection of the lattice with (g c, g c) = (c, c) and (g c, g h1) =
    (c, h1); it maps {c : (c^2) >= 0, 0 < (c, h1) < 16} onto the same set
    for h = g h1, and the rational multiples of h1 onto those of h.  Route
    (a) reads only det NS.  Hence the scan at h1 decides the obstruction at
    each h = g0^k(h1) that enumerate_H_orbit admits: of norm 4, strictly
    inside the cone and pairwise distinct.
    """
    if run.search is None:
        return NO_GENERATOR
    orbit, problems = run.H_orbit()
    if problems:
        return FAIL, "; ".join(problems)
    status, details = takahashi_obstruction(run.ctx, run.ctx.anchor)
    if status != PASS:
        return FAIL, "class h1: %s" % details
    return PASS, ("degree-16 hypothesis verified for all %d orbit classes: "
                  "every curve class of degree < 16 is a hypersurface-section "
                  "class" % len(orbit))


# ---------------------------------------------------------------------------

SUITE = (
    ("lemma-4.4", "Lemma 4.4", check_lemma44),
    ("lemma-4.5", "Lemma 4.5", check_rays),
    ("lemma-4.6", "Lemma 4.6", check_generator),
    ("lemma-4.6-alpha", "Lemma 4.6 proof", check_alpha_homomorphism),
    ("lemma-4.7", "Lemma 4.7", check_H_orbit),
    ("lemma-4.8", "Lemma 4.8, Theorem 1.7", check_obstruction),
)


def full_section4_certificate(ell_range=ELLS, entry_bound=ENTRY_BOUND,
                              k_bound=K_BOUND):
    items = []
    for ell in ell_range:
        run = PellRun(build_context(ell), entry_bound, k_bound)
        items += run_suite(SUITE, run, tag="-ell-%d" % ell).items
    return Report(items)
