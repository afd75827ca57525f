"""Jacobian matrices, exact determinants and the Keller predicate.

The Keller test det JF = 1 runs on packed exponents and raw ring values.
Each Jacobian entry becomes a dict {packed exponent: raw value}: the
exponent vector is one int with a fixed bit field per variable, so
multiplying two monomials is one int addition (the packed exponent vectors
of Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), and the values, as `RingElement.val`
holds them, combine through the ring's arithmetic object. A variable's
exponent in the determinant is at most the sum over the rows of its largest
exponent in that row, so fields of that width, fixed before expanding,
never carry into each other; a large exponent only makes a field wider.

Determinants use cofactor expansion with memoization on column subsets,
guarded at size 8: fraction-free elimination is not available over these
coefficient rings. The same expansion serves scalar matrices of ring
elements. Affine Keller automorphisms G = AX + b with det(A) = 1 live here
too, together with the block repetition operator that clones a map into
fresh variable blocks.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Optional, Sequence

from .errors import (
    ArityMismatch,
    InvalidInput,
    NotUnimodularVector,
    SizeGuardExceeded,
    TheoremViolation,
)
from .polynomials import MultiPoly, PolyMap, map_compose
from .rings import Ring, RingElement

DET_SIZE_GUARD = 8


def check_det_size(n: int) -> None:
    """SizeGuardExceeded when an n x n determinant is above the guard."""
    if n > DET_SIZE_GUARD:
        raise SizeGuardExceeded(f"determinant of size {n} exceeds guard {DET_SIZE_GUARD}")


class PolyMatrix:
    """Square matrix of polynomials over one ring and variable count."""

    __slots__ = ("entries", "ring", "nvars")

    def __init__(self, entries: Sequence[Sequence[MultiPoly]]):
        rows = tuple(tuple(r) for r in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ArityMismatch("matrix must be square")
        ring = rows[0][0].ring
        nvars = rows[0][0].nvars
        for r in rows:
            for f in r:
                if f.ring is not ring or f.nvars != nvars:
                    raise ArityMismatch("matrix entries disagree on ring or arity")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, *_):
        raise AttributeError("matrices are immutable")

    @property
    def n(self) -> int:
        return len(self.entries)


def jacobian_matrix(f: PolyMap) -> PolyMatrix:
    """Entry (i, j) is the partial of component i by variable j."""
    return PolyMatrix(
        [[c.derivative(j) for j in range(f.nvars)] for c in f.components]
    )


def _cofactor_det(entries, one, zero, add, sub, mul):
    """Cofactor expansion along the rows, memoised on the remaining column
    set; entries equal to `zero` are skipped."""
    memo = {}

    def minor(row: int, cols: tuple):
        if not cols:
            return one
        acc = memo.get(cols)
        if acc is None:
            acc = zero
            for k, c in enumerate(cols):
                e = entries[row][c]
                if e != zero:
                    term = mul(e, minor(row + 1, cols[:k] + cols[k + 1 :]))
                    acc = sub(acc, term) if k % 2 else add(acc, term)
            memo[cols] = acc
        return acc

    return minor(0, tuple(range(len(entries))))


def _packed_det(m: PolyMatrix) -> tuple:
    """det(m) as {packed exponent: raw value} with zero values dropped, and
    the (bit offset, mask) of each variable's exponent field."""
    check_det_size(m.n)
    # per variable, the sum over the rows of its largest exponent in the row
    bound = [0] * m.nvars
    for row in m.entries:
        for v, top in enumerate(map(max, zip(*(exp for f in row for exp in f.terms)))):
            bound[v] += top
    fields, at = [], 0
    for b in bound:
        fields.append((at, (1 << b.bit_length()) - 1))
        at += b.bit_length()

    arith = m.ring.arith
    a_add, a_sub, a_mul = arith.add, arith.sub, arith.mul
    zero = m.ring.zero.val

    def combine(op, a: dict, b: dict) -> dict:
        out = dict(a)
        for e, c in b.items():
            c = op(out.get(e, zero), c)
            if c == zero:
                out.pop(e, None)
            else:
                out[e] = c
        return out

    def mul(a: dict, b: dict) -> dict:
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                c = a_mul(c1, c2)
                out[e] = a_add(out[e], c) if e in out else c
        return {e: c for e, c in out.items() if c != zero}

    entries = [
        [{sum(e << s for e, (s, _) in zip(exp, fields)): c.val for exp, c in f.terms.items()}
         for f in row]
        for row in m.entries
    ]
    add, sub = partial(combine, a_add), partial(combine, a_sub)
    return _cofactor_det(entries, {0: m.ring.one.val}, {}, add, sub, mul), fields


def det_poly_matrix(m: PolyMatrix) -> MultiPoly:
    """The determinant, unpacked from the packed kernel into a polynomial."""
    det, fields = _packed_det(m)
    ring = m.ring
    terms = {}
    for e, c in det.items():
        terms[tuple((e >> s) & mask for s, mask in fields)] = RingElement(ring, c)
    return MultiPoly(ring, m.nvars, terms)


def is_keller(f: PolyMap) -> bool:
    """True iff det(JF) is the constant polynomial 1 at working precision."""
    if f.cached_keller is not None:
        return f.cached_keller
    det, _ = _packed_det(jacobian_matrix(f))
    verdict = det == {0: f.ring.one.val}
    f.cache_keller(verdict)
    return verdict


# ---------------------------------------------------------------------------
# scalar matrices (tuples of ring elements)


def det_scalar(a: Sequence[Sequence[RingElement]]) -> RingElement:
    ring = a[0][0].ring
    return _cofactor_det(a, ring.one, ring.zero, operator.add, operator.sub, operator.mul)


def adjugate_scalar(a: Sequence[Sequence[RingElement]]) -> tuple:
    """Adjugate matrix: adj(A)·A = det(A)·I, exact over any ring."""
    n = len(a)
    rows = [list(r) for r in a]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = det_scalar(sub) if sub else a[0][0].ring.one
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return tuple(tuple(r) for r in out)


def mat_vec(a, v) -> tuple:
    return tuple(
        sum((a[i][j] * v[j] for j in range(len(v))), start=v[0].ring.zero)
        for i in range(len(a))
    )


def mat_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(n)), start=a[0][0].ring.zero)
            for j in range(n)
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# affine Keller automorphisms


class AffineKellerAuto:
    """G(x) = A x + b with det(A) = 1 exactly at working precision."""

    __slots__ = ("a", "b", "ring")

    def __init__(self, a: Sequence[Sequence[RingElement]], b: Sequence[RingElement]):
        a = tuple(tuple(r) for r in a)
        b = tuple(b)
        n = len(a)
        if any(len(r) != n for r in a) or len(b) != n:
            raise ArityMismatch("affine automorphism parts must be square and matching")
        ring = b[0].ring
        if det_scalar(a) != ring.one:
            raise InvalidInput("linear part must have determinant 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "ring", ring)

    def __setattr__(self, *_):
        raise AttributeError("automorphisms are immutable")

    @property
    def n(self) -> int:
        return len(self.b)

    @staticmethod
    def identity(ring: Ring, n: int) -> "AffineKellerAuto":
        a = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        return AffineKellerAuto(a, [ring.zero] * n)

    def apply(self, point: Sequence[RingElement]) -> tuple:
        v = mat_vec(self.a, list(point))
        return tuple(x + c for x, c in zip(v, self.b))

    def as_poly_map(self) -> PolyMap:
        """The map x -> Ax + b; Keller, since the constructor proved det A = 1."""
        n = self.n
        comps = []
        for i in range(n):
            f = MultiPoly.constant(self.ring, n, self.b[i])
            for j in range(n):
                f = f + MultiPoly.variable(self.ring, n, j).scale(self.a[i][j])
            comps.append(f)
        out = PolyMap(comps)
        out.cache_keller(True)
        return out

    def inverse(self) -> "AffineKellerAuto":
        # det = 1, so the adjugate is the inverse of the linear part
        inv = adjugate_scalar(self.a)
        nb = tuple(-x for x in mat_vec(inv, self.b))
        return AffineKellerAuto(inv, nb)


def apply_affine(g: AffineKellerAuto, f: PolyMap, side: str = "left") -> PolyMap:
    """Compose with an affine Keller automorphism; preserves the Keller verdict."""
    if g.n != f.nvars:
        raise ArityMismatch("dimension mismatch")
    gm = g.as_poly_map()
    out = map_compose(gm, f) if side == "left" else map_compose(f, gm)
    if f.cached_keller is not None:
        out.cache_keller(f.cached_keller)
    return out


def translate_map(f: PolyMap, a: Sequence) -> PolyMap:
    """The map F - F(a); the Jacobian, hence the Keller verdict, is unchanged."""
    values = f.eval([f.ring(x) for x in a])
    out = PolyMap(
        [c - MultiPoly.constant(f.ring, f.nvars, v) for c, v in zip(f.components, values)]
    )
    if f.cached_keller is not None:
        out.cache_keller(f.cached_keller)
    return out


def repeat_map(f: PolyMap, m: int) -> PolyMap:
    """m fresh-variable copies of f side by side; block t uses variables
    X_{(t-1)n+1} .. X_{tn}, so the Jacobian is block diagonal."""
    if m < 1:
        raise InvalidInput("repetition count must be >= 1")
    if m == 1:
        return f
    n = f.nvars
    big = m * n
    comps = []
    for t in range(m):
        off = t * n
        for c in f.components:
            terms = {}
            for e, coeff in c.terms.items():
                big_e = [0] * big
                big_e[off : off + n] = e
                terms[tuple(big_e)] = coeff
            comps.append(MultiPoly(f.ring, big, terms))
    out = PolyMap(comps)
    if f.cached_keller is not None:
        out.cache_keller(f.cached_keller)
    return out


# ---------------------------------------------------------------------------
# SL_n completion and sampling


def complete_to_sl(v: Sequence[RingElement]) -> tuple:
    """A matrix with det = 1 whose first column is v; v must have a unit entry."""
    v = tuple(v)
    n = len(v)
    ring = v[0].ring
    pivot = next((i for i, x in enumerate(v) if x.is_unit), None)
    if pivot is None:
        raise NotUnimodularVector("no unit coordinate")
    if n == 1:
        if v[0] != ring.one:
            raise InvalidInput("a 1x1 completion exists only for v = (1)")
        return ((ring.one,),)
    cols = [list(v)]
    for j in range(n):
        if j != pivot:
            cols.append([ring.one if i == j else ring.zero for i in range(n)])
    a = [[cols[j][i] for j in range(n)] for i in range(n)]
    d = det_scalar(a)
    # d is +/- the pivot unit; rescale the last column to force det 1
    fix = d.inverse()
    for i in range(n):
        a[i][n - 1] = a[i][n - 1] * fix
    if det_scalar(a) != ring.one:
        raise TheoremViolation("SL completion does not have determinant 1")
    return tuple(tuple(r) for r in a)


def random_affine_keller(ring: Ring, n: int, rng, factors: Optional[int] = None) -> AffineKellerAuto:
    """Random product of elementary and sign-fixed swap matrices, plus a
    random translation; generates SL_n over the ring."""
    a = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    k = factors if factors is not None else rng.randrange(4, 9)
    for _ in range(k):
        if n > 1 and rng.random() < 0.8:
            i, j = rng.sample(range(n), 2)
            lam = ring.random_element(rng)
            # row_i += lam * row_j
            for c in range(n):
                a[i][c] = a[i][c] + lam * a[j][c]
        elif n > 1:
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], [-x for x in a[i]]
    b = [ring.random_element(rng) for _ in range(n)]
    return AffineKellerAuto(a, b)
