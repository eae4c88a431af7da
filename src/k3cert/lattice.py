"""Exact arithmetic on integral lattices.

Vectors are plain tuples of Python ints (coordinates in the lattice
basis); dual vectors are tuples of :class:`fractions.Fraction`.  The
discriminant group NS*/NS is read off the Smith form of the Gram matrix:
a coset's coordinates and order are closed formulas, never a scan.  All
computations are exact -- no floating point anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul


class LatticeError(ValueError):
    pass


class DimensionMismatch(LatticeError):
    pass


class NotABasis(LatticeError):
    pass


# ---------------------------------------------------------------------------
# small exact matrix helpers (rank is tiny, lists of lists are fine)

def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a, x):
    return tuple(sum(map(mul, row, x)) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det_int(m):
    """Exact determinant of an integer matrix (fraction-free Bareiss); the
    empty matrix has determinant 1."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def adjugate(m):
    """Integer adjugate of a square integer matrix: adj(m) m = det(m) I.
    Entry (i, j) is (-1)^(i+j) times the minor without row j and column i."""
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * det_int([r[:i] + r[i + 1:]
                                         for k, r in enumerate(m) if k != j])
              for j in range(n))
        for i in range(n))


def solve_int_linear(m, rhs):
    """Solve m*x = rhs over the rationals by Cramer's rule,
    x = adj(m) rhs / det(m), as Fractions; raises when m is singular."""
    det = det_int(m)
    if det == 0:
        raise LatticeError("matrix is singular")
    return tuple(Fraction(c, det) for c in mat_vec(adjugate(m), rhs))


def is_zero_polynomial(f, degrees):
    """Whether f, a polynomial of degree <= degrees[i] in its i-th argument,
    is identically zero: it is iff it vanishes on the grid {0..d_i} in each
    argument (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1)."""
    return all(f(*x) == 0 for x in product(*(range(d + 1) for d in degrees)))


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(m):
    """Return (U, D, V) with U*m*V = D, U, V unimodular, D diagonal with
    nonnegative entries and d_i | d_{i+1}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [list(r) for r in identity_matrix(rows)]
    v = [list(r) for r in identity_matrix(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # divisibility: pivot must divide the rest of the block
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if a[t][t] < 0:
                negate_row(t)
            t += 1

    return (tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in a),
            tuple(tuple(r) for r in v))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerLattice:
    gram: tuple
    labels: tuple = None

    def __post_init__(self):
        gram = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise LatticeError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError("gram matrix must be symmetric")
            if gram[i][i] % 2 != 0:
                raise LatticeError("lattice must be even (odd diagonal entry at %d)" % i)
        if det_int(gram) == 0:
            raise LatticeError("gram matrix is degenerate")
        if self.labels is None:
            object.__setattr__(self, "labels",
                               tuple("b%d" % i for i in range(n)))
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != n:
                raise LatticeError("need one label per basis vector")

    @property
    def rank(self):
        return len(self.gram)

    def check_vector(self, x):
        if len(x) != self.rank:
            raise DimensionMismatch(
                "vector of length %d in rank-%d lattice" % (len(x), self.rank))

    def inner(self, x, y):
        """(x, y) = sum_i x_i (G y)_i, exact for int, Fraction and QuadExt
        coordinates."""
        gram = self.gram
        if len(x) != len(gram) or len(y) != len(gram):
            self.check_vector(x)
            self.check_vector(y)
        return sum([xi * sum(map(mul, row, y)) for xi, row in zip(x, gram)])

    def norm(self, x):
        return self.inner(x, x)

    def determinant(self):
        return det_int(self.gram)

    def pairing_row(self, w):
        """Row vector r with (x, w) = sum(r[i] * x[i]); entries exact."""
        self.check_vector(w)
        return mat_vec(self.gram, w)


# ---------------------------------------------------------------------------
# dual vectors and the discriminant group

def is_dual_vector(lat, u):
    """True if u (int or Fraction coordinates) pairs integrally with the
    lattice: with D the lcm of u's denominators and w = D u integral, that
    is G w = 0 mod D, in integers."""
    den, w = scaled(u)
    return all(sum(map(mul, row, w)) % den == 0 for row in lat.gram)


def scaled(u):
    """D, the lcm of the denominators of u, and the integer vector D u."""
    den = math.lcm(*(c.denominator for c in u))
    return den, [c.numerator * (den // c.denominator) for c in u]


def reduce_mod_lattice(u):
    """Canonical coset representative of u in NS*/NS: entries in [0, 1)."""
    return tuple(Fraction(c) - (Fraction(c).numerator // Fraction(c).denominator)
                 for c in u)


@dataclass(frozen=True)
class DiscriminantGroup:
    """NS*/NS in Smith-form coordinates.

    With U*G*V = D, a vector u is dual iff D V^-1 u is integral, and NS
    itself is V^-1 u integral, so the coset of u has coordinates
    k_i = d_i (V^-1 u)_i mod d_i over the factors d_i > 1.
    """
    lattice: IntegerLattice
    invariant_factors: tuple
    generators: tuple  # one dual vector (tuple of Fractions) per factor
    coordinate_rows: tuple  # the rows of V^-1 (integral) for those factors
    # d_i times generator i, an integer vector: a generator's denominator
    # is its factor d_i, which discriminant_group checks
    scaled_generators: tuple

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    def elements(self):
        """All cosets as canonical representatives, by a scan of the whole
        group: an independent oracle for tests, not used by the checks."""
        for ks in product(*[range(d) for d in self.invariant_factors]):
            u = tuple(sum((Fraction(k) * g[i] for k, g in zip(ks, self.generators)),
                          Fraction(0))
                      for i in range(self.lattice.rank))
            yield ks, reduce_mod_lattice(u)

    def coordinates_of(self, u):
        """The coordinates of the coset of u in the generators, or None when
        u is not a dual vector."""
        if not is_dual_vector(self.lattice, u):
            return None
        # in integers: with w = den u (den the lcm of u's denominators),
        # coordinate i is d_i (r_i . w) / den, an exact division since
        # d_i (V^-1 u)_i is an integer for a dual vector
        den, w = scaled(u)
        return tuple(d * sum(map(mul, row, w)) // den % d
                     for d, row in zip(self.invariant_factors, self.coordinate_rows))

    def element_order(self, u):
        """The order of the coset of u: NS is Z^n in the lattice basis, so
        k*u lies in NS iff every denominator of u divides k."""
        if not is_dual_vector(self.lattice, u):
            raise LatticeError("%s is not a dual vector" % (tuple(u),))
        return math.lcm(*(c.denominator for c in u))


def discriminant_group(lat):
    """NS*/NS from the Smith normal form of the Gram matrix.

    Generators come out of the unimodular transforms: with U*G*V = D the
    i-th generator is column i of V divided by d_i, so its denominator is
    exactly its invariant factor, and row i of V^-1 reads its coordinate.
    The checks run on the integer scaled generators w = column i of V
    reduced mod d_i: w / d_i is dual iff G w = 0 mod d_i, and has order d_i
    iff gcd(d_i, w) = 1.  Fractions are built only for the generators
    returned.
    """
    u, d, v = smith_normal_form(lat.gram)
    det_v = det_int(v)
    if abs(det_v) != 1:
        raise LatticeError("Smith transform is not unimodular")
    n = lat.rank
    nontrivial = [i for i in range(n) if d[i][i] > 1]
    factors = tuple(d[i][i] for i in nontrivial)
    scaled = tuple(tuple(v[r][i] % d[i][i] for r in range(n))
                   for i in nontrivial)
    for di, w in zip(factors, scaled):
        if any(sum(map(mul, row, w)) % di for row in lat.gram):
            raise LatticeError("discriminant generator is not a dual vector")
        if math.gcd(di, *w) != 1:
            raise LatticeError("discriminant generator has wrong order")
    # V^-1 = adj(V) / det V = det V adj(V)
    adj_v = adjugate(v)
    rows = tuple(tuple(det_v * c for c in adj_v[i]) for i in nontrivial)
    gens = tuple(tuple(Fraction(c, di) for c in w)
                 for di, w in zip(factors, scaled))
    grp = DiscriminantGroup(lattice=lat, invariant_factors=factors,
                            generators=gens, coordinate_rows=rows,
                            scaled_generators=scaled)
    if grp.order != abs(lat.determinant()):
        raise LatticeError("invariant factors do not multiply to |det|")
    return grp


# ---------------------------------------------------------------------------

def change_basis(lat, new_basis):
    """Gram matrix in a new integral basis.

    Returns (new_lattice, transform) where transform columns are the new
    basis vectors in old coordinates.  Raises NotABasis if the vectors do
    not span the same lattice over the integers.
    """
    n = lat.rank
    if len(new_basis) != n:
        raise NotABasis("need exactly %d vectors" % n)
    for b in new_basis:
        lat.check_vector(b)
    t = tuple(tuple(new_basis[j][i] for j in range(n)) for i in range(n))
    dt = det_int(t)
    if dt == 0:
        raise NotABasis("vectors are not of full rank")
    if abs(dt) != 1:
        raise NotABasis("vectors span a proper sublattice (index %d)" % abs(dt))
    new_gram = mat_mul(mat_transpose(t), mat_mul(lat.gram, t))
    return IntegerLattice(gram=new_gram), t


# ---------------------------------------------------------------------------
# enumeration

def _linear_roots(b, c, bound):
    """The integers u with |u| <= bound and b u + c = 0, ascending: one root
    when b divides c, and every u or none when b = 0."""
    if b == 0:
        return range(-bound, bound + 1) if c == 0 else ()
    u, m = divmod(-c, b)
    return (u,) if m == 0 and abs(u) <= bound else ()


def solve_norm_system(lat, constraints, norm, box):
    """All nonzero vectors x with |coords| <= box, (x, v_i) = c_i for every
    constraint (v_i, c_i) and (x, x) = norm, in lexicographic order.  norm
    is one integer or a tuple of them; a tuple gives the vectors of every
    listed norm, found in one walk.

    Only heads are scanned, never the whole box.  The first constraint
    whose pairing row r is nonzero pins a coordinate p with r_p != 0; the
    last remaining coordinate q carries a line, and the other n - 1 (no
    pin) or n - 2 coordinates form the head.  Each head fixes the scaled
    line s x = base + u d, with s = r_p and d = s e_q - r_q e_p under a pin
    (s = 1 and d = e_q without), on which s^2 ((x, x) - t) is the
    quadratic (d, d) u^2 + b u + c_t, b = 2 (base, d) and c_t = (base,
    base) - s^2 t.  Its integer roots |u| <= box are solved exactly for
    each norm t, from the discriminant D_t = b^2 - 4 (d, d) c_t, or from
    b u + c_t = 0 when (d, d) = 0.  Every candidate is then checked against
    every constraint and its norm t.

    A rank-n scan visits (2 box + 1)^(n-1) heads, or (2 box + 1)^(n-2)
    under a constraint, in lines along the last head coordinate.  The Gram
    products are paid once per line; a step along it moves base by a fixed
    e, so D_t, quadratic in the step, follows by two integer additions
    (its second difference is constant).  A head then costs those two
    additions and one comparison per norm: math.isqrt runs only where
    D_t >= 0, and b is read off and the roots solved only where D_t is a
    square.  When (d, d) = 0, b and c_t are closed forms in the step.
    """
    if box < 1:
        raise LatticeError("box must be >= 1")
    norms = sorted(set(norm)) if isinstance(norm, tuple) else [norm]
    n = lat.rank
    gram = lat.gram
    rows = [(lat.pairing_row(v), c) for v, c in constraints]
    pin = next(((r, c, p) for r, c in rows for p in range(n) if r[p]),
               None) if n >= 2 else None
    r, c0, p = pin or ((0,) * n, 0, None)
    s = r[p] if pin else 1
    q = max(i for i in range(n) if i != p)
    heads = [i for i in range(n) if i not in (p, q)]
    d = [s * (i == q) - r[q] * (i == p) for i in range(n)]
    dd = lat.norm(d)
    # one step of the last head coordinate adds e to base
    e = [0] * n
    if heads:
        e[heads[-1]] = s
        if pin:
            e[p] = -r[heads[-1]]
    ge = mat_vec(gram, e)
    ee = sum(map(mul, ge, e))
    de = 2 * sum(map(mul, ge, d))  # the step of b
    steps = 2 * box + 1 if heads else 1
    # D_t = b^2 - 4 (d, d) (base, base) + 4 (d, d) s^2 t
    shifts = [(t, 4 * dd * s * s * t) for t in norms]
    disc_step2 = 2 * de * de - 8 * dd * ee  # the second difference of D_t
    two_dd = 2 * dd
    out = []

    def admit(base, k, u, t):
        sx = [bi + k * ei + u * di for bi, ei, di in zip(base, e, d)]
        if any(v % s for v in sx):
            return
        x = tuple(v // s for v in sx)
        if (any(x) and max(map(abs, x)) <= box
                and all(sum(map(mul, ri, x)) == ci for ri, ci in rows)
                and lat.norm(x) == t):
            out.append(x)

    base = [0] * n
    for outer in product(range(-box, box + 1), repeat=max(len(heads) - 1, 0)):
        head = outer + (-box,) if heads else ()
        for i, h in zip(heads, head):
            base[i] = s * h
        if pin:
            base[p] = c0 - sum(r[i] * h for i, h in zip(heads, head))
        gb = mat_vec(gram, base)
        b = 2 * sum(map(mul, gb, d))
        bb = sum(map(mul, gb, base))
        bb_step = 2 * sum(map(mul, gb, e)) + ee  # (base + e)^2 - base^2
        if not dd:
            # at step k, b + k de and bb + k bb_step + k (k - 1) (e, e)
            for k in range(steps):
                bk = b + k * de
                ck = bb + k * bb_step + k * (k - 1) * ee
                for t in norms:
                    for u in _linear_roots(bk, ck - s * s * t, box):
                        admit(base, k, u, t)
            continue
        disc = b * b - 4 * dd * bb
        disc_step = 2 * de * b + de * de - 4 * dd * bb_step
        for k in range(steps):
            for t, shift in shifts:
                dt = disc + shift
                if dt >= 0:
                    root = math.isqrt(dt)
                    if root * root == dt:
                        bk = b + k * de
                        for num in {-bk - root, -bk + root}:
                            u, m = divmod(num, two_dd)
                            if m == 0 and abs(u) <= box:
                                admit(base, k, u, t)
            disc += disc_step
            disc_step += disc_step2
    out.sort()
    return out


def form_basis(row):
    """For a nonzero integer linear form: (g, x1, kernel) with g the gcd of
    its entries, row . x1 = g, and kernel a Z-basis of {x : row . x = 0}."""
    u, d, v = smith_normal_form((tuple(row),))
    n = len(row)
    cols = [tuple(v[r][j] for r in range(n)) for j in range(n)]
    # U is the 1x1 unimodular +-1, so row . (U V e_0) = d_0
    return d[0][0], tuple(u[0][0] * c for c in cols[0]), cols[1:]


def lattice_points(lat, anchor, pairings, min_norm):
    """Every nonzero x with (x, anchor) in pairings and (x, x) >= min_norm,
    for integer pairings and min_norm.

    Requires (anchor, anchor) > 0 in a lattice of signature (1, rank-1):
    the form is then negative definite on the orthogonal complement of the
    anchor, so each set is finite.  With x = (p/g) x1 + K t (K a kernel
    basis of the pairing with the anchor) and N = -K^T G K, (x, x) is
    p^2 / (anchor, anchor) - (t - c)^T N (t - c) for the center
    c = (p/g) N^-1 K^T G x1, so the condition is an ellipsoid in t, walked
    coordinate by coordinate (Fincke-Pohst, Math. Comp. 44, 1985).  The
    walk runs in integers: the fraction-free (Bareiss) rows of N clear the
    pivots, det N clears the center, and each coordinate's range is an
    exact isqrt bound (see _ellipsoid_points).  Sorted output; no box is
    involved.  tests/test_lattice.py keeps the Fraction walk this replaced
    as an oracle.
    """
    anchor_norm = lat.norm(anchor)
    if anchor_norm <= 0:
        raise LatticeError("anchor must have positive norm")
    g, x1, kernel = form_basis(lat.pairing_row(anchor))
    k = len(kernel)
    neg = [[-lat.inner(a, b) for b in kernel] for a in kernel]
    rows = _bareiss_rows(neg)
    det = rows[-1][-1] if k else 1
    # det N times the center for p = g: adj(N) K^T G x1
    center1 = mat_vec(adjugate(neg), [lat.inner(b, x1) for b in kernel])
    out = []
    for p in pairings:
        if p % g:
            continue
        s = p // g
        center = [s * c for c in center1]
        # a (det t - det c)^T N (det t - det c) <= det^2 (p^2 - a min_norm)
        bound = det * det * (p * p - anchor_norm * min_norm)
        for t in _ellipsoid_points(rows, det, center, anchor_norm, bound):
            x = tuple(s * x1[i] + sum(t[j] * kernel[j][i] for j in range(k))
                      for i in range(lat.rank))
            if any(x):
                out.append(x)
    out.sort()
    return out


def _bareiss_rows(m):
    """The fraction-free elimination of a symmetric integer matrix: row i
    holds, in columns j >= i, the minor of rows 0..i and columns 0..i-1, j,
    so its diagonal entry is the leading principal minor of order i + 1.
    Raises unless m is positive definite, i.e. every one of those minors
    is positive."""
    a = [list(row) for row in m]
    prev = 1
    for i in range(len(a)):
        piv = a[i][i]
        if piv <= 0:
            raise LatticeError("orthogonal complement is not negative definite")
        for r in range(i + 1, len(a)):
            for c in range(i + 1, len(a)):
                a[r][c] = (a[r][c] * piv - a[r][i] * a[i][c]) // prev
        prev = piv
    return a


def _ellipsoid_points(rows, det, center, a, bound):
    """Integer t with a u^T N u <= bound for u = det t - center, N positive
    definite with the Bareiss rows `rows` and det = det N, choosing t from
    the last coordinate down.

    With m_i the leading principal minor of order i (m_0 = 1), fixing
    u_{i+1..} leaves left = m_{i+1} bound - a q(u_{i+1..}), where q is the
    least value of u^T N u over real u_0..u_i, scaled by m_{i+1}.  Then u_i
    is admissible iff a (m_{i+1} u_i + beta)^2 <= m_i left, for beta the
    row-i entries times u_{i+1..}, and left for the next coordinate is
    (m_i left - a (m_{i+1} u_i + beta)^2) / m_{i+1}, an exact division."""
    k = len(rows)
    t, u = [0] * k, [0] * k

    def walk(i, left):
        if i < 0:
            yield tuple(t)
            return
        row, piv = rows[i], rows[i][i]
        minor = rows[i - 1][i - 1] if i else 1
        beta = sum(row[j] * u[j] for j in range(i + 1, k))
        # |piv (det t_i - center_i) + beta| <= r, with r = isqrt(.) exact
        room = minor * left
        r = math.isqrt(room // a)
        h, step = piv * center[i] - beta, piv * det
        for ti in range(-((r - h) // step), (h + r) // step + 1):
            t[i], u[i] = ti, det * ti - center[i]
            y = piv * u[i] + beta
            yield from walk(i - 1, (room - a * y * y) // piv)

    if bound >= 0:
        yield from walk(k - 1, det * bound)


def solve_pairing_norm(lat, anchor, pairing, norm):
    """Complete enumeration of x with (x, anchor) = pairing, (x, x) = norm:
    the points of :func:`lattice_points` with exactly that norm."""
    return [x for x in lattice_points(lat, anchor, (pairing,), norm)
            if lat.norm(x) == norm]
