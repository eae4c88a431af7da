"""Integer-matrix isometries of a fixed lattice.

Convention: a matrix acts on coordinate columns, x -> M x.  For geometric
maps this is the pullback, so composing geometric maps reverses matrix
order: (g o h)^* = h^* o g^*.  ``compose(p, q)`` multiplies pullback
matrices directly (apply q first, then p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index, mul

from .lattice import (
    IntegerLattice,
    LatticeError,
    identity_matrix,
    mat_mul,
    mat_vec,
    det_int,
    unimodular_inverse,
)


class NotAnIsometry(LatticeError):
    pass


@dataclass(frozen=True)
class Isometry:
    lattice: IntegerLattice
    matrix: tuple

    def __post_init__(self):
        try:
            m = tuple(tuple(index(x) for x in row) for row in self.matrix)
        except TypeError:
            raise NotAnIsometry("matrix entries must be integers") from None
        object.__setattr__(self, "matrix", m)
        gram = self.lattice.gram
        n = len(gram)
        if len(m) != n or any(len(r) != n for r in m):
            raise NotAnIsometry("matrix must be %dx%d" % (n, n))
        # entry (i, j) of M^T G M is the pairing c_i . (G c_j) of columns
        cols = tuple(zip(*m))
        gcols = [[sum(map(mul, row, c)) for row in gram] for c in cols]
        for i, ci in enumerate(cols):
            for j, gcj in enumerate(gcols):
                e = sum(map(mul, ci, gcj))
                if e != gram[i][j]:
                    raise NotAnIsometry(
                        "gram entry (%d,%d) not preserved: %d != %d"
                        % (i, j, e, gram[i][j]))
        if abs(det_int(m)) != 1:
            raise NotAnIsometry("determinant must be +-1")

    @classmethod
    def _trusted(cls, lattice, matrix):
        """An isometry derived from checked ones (a product, an inverse, the
        identity), built without rechecking M^T G M = G and the determinant,
        which those operations preserve.  Isometry(...) checks its input."""
        g = object.__new__(cls)
        object.__setattr__(g, "lattice", lattice)
        object.__setattr__(g, "matrix", matrix)
        return g

    def apply(self, x):
        self.lattice.check_vector(x)
        return mat_vec(self.matrix, x)

    def det(self):
        return det_int(self.matrix)

    def inverse(self):
        """det(M) adj(M): an isometry has determinant +-1, so its inverse is
        its integer adjugate up to that sign."""
        try:
            m = unimodular_inverse(self.matrix)
        except LatticeError as exc:
            raise NotAnIsometry(str(exc)) from None
        return Isometry._trusted(self.lattice, m)

    def is_identity(self):
        return self.matrix == identity_matrix(self.lattice.rank)

    def power(self, k):
        if k < 0:
            return self.inverse().power(-k)
        out = identity(self.lattice)
        base = self
        while k:
            if k & 1:
                out = compose(out, base)
            base = compose(base, base)
            k >>= 1
        return out


class PowerTable:
    """The powers g^k of one isometry, each built once, on first read.

    g^k for k > 0 is g^(k-1) g and g^-k is g^-(k-1) g^-1: one compose from
    the neighbour toward k = 0, and one inverse for the whole table.  It
    holds only the |k| read so far.
    """

    def __init__(self, g):
        one = identity(g.lattice)
        self._sides = ([one, g], [one, g.inverse()])

    def __getitem__(self, k):
        side = self._sides[k < 0]
        while len(side) <= abs(k):
            side.append(compose(side[-1], side[1]))
        return side[abs(k)]


def identity(lat):
    return Isometry._trusted(lat, identity_matrix(lat.rank))


def compose(p, q):
    """Product of pullback matrices: apply q to coordinates, then p."""
    if p.lattice is not q.lattice and p.lattice != q.lattice:
        raise LatticeError("isometries live on different lattices")
    return Isometry._trusted(p.lattice, mat_mul(p.matrix, q.matrix))


def reflection_in(lat, w):
    """Reflection s_w(x) = x - (2(x,w)/(w,w)) w, when integral on the lattice."""
    ww = lat.norm(w)
    if ww == 0:
        raise LatticeError("cannot reflect in an isotropic vector")
    n = lat.rank
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        t = Fraction(2 * lat.inner(e, w), ww)
        if t.denominator != 1:
            raise LatticeError(
                "reflection in %s is not integral on basis vector %d"
                % (w, j))
        cols.append(tuple(e[i] - int(t) * w[i] for i in range(n)))
    m = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return Isometry(lat, m)


# ---------------------------------------------------------------------------
# order detection

def order_of(g):
    """The order of g as (n, "iterated"), else ("infinite", "crystallographic").

    Crystallographic restriction: an integer matrix of finite order is
    diagonalizable over C, with eigenvalues that are roots of unity.  A
    primitive k-th root has the minimal polynomial Phi_k of degree phi(k),
    which divides the characteristic polynomial, so phi(k) <= rank <= 3 and
    k is one of 1, 2, 3, 4, 6.  The order is the lcm of these k and divides
    12, so g has finite order iff some g^n with n <= 12 is the identity.
    """
    if g.lattice.rank > 3:
        raise LatticeError("order_of needs rank <= 3, got rank %d"
                           % g.lattice.rank)
    acc = g
    for n in range(1, 13):
        if acc.is_identity():
            return n, "iterated"
        acc = compose(acc, g)
    return "infinite", "crystallographic"


# ---------------------------------------------------------------------------
# induced action on the discriminant group

def discriminant_action(g, disc):
    """Classify the induced action on NS*/NS: "identity", "negation" or
    "other".  g is an Isometry, or the integer matrix of one whose
    M^T G M = G its caller has checked.

    g acts as sign * id exactly when g u - sign * u lies in the lattice,
    i.e. is integral, for every generator u (identity wins when both hold).
    With w = d u the integral scaled generator, d its factor and the lcm of
    u's denominators, that is (g - sign) w = 0 mod d, in integers.
    """
    m = g.matrix if isinstance(g, Isometry) else g
    scaled = [(mat_vec(m, w), w, den) for w, den in
              zip(disc.scaled_generators, disc.invariant_factors)]
    for kind, sign in (("identity", 1), ("negation", -1)):
        if all((a - sign * b) % den == 0
               for gw, w, den in scaled for a, b in zip(gw, w)):
            return kind
    return "other"


# ---------------------------------------------------------------------------
# the Mordell-Weil translation family on the (f, e, v) basis

def mw_translation(lat, n):
    """Translation pullback on the rank-3 fibration lattice in (f, e, v)
    coordinates: f fixed, e -> 10 n^2 f + e + n v, v -> 20 n f + v."""
    m = ((1, 10 * n * n, 20 * n),
         (0, 1, 0),
         (0, n, 1))
    return Isometry(lat, m)
