"""Sparse multivariate polynomials and square polynomial maps.

A polynomial is a map from exponent vectors (tuples of nonnegative ints,
one slot per variable) to nonzero ring elements. The zero polynomial has an
empty term map and total degree NEG_INF. Maps are n-tuples of polynomials
in n variables over a shared ring.

Composition is symbolic. Where the underlying mathematics speaks of maps
of sets, two equality notions apply: `==` (identical term maps) and
`functional_eq_on_residue` (equal values at every residue point).

Every loop over residue points goes through `residue_values`, which fixes
the canonical enumeration order in one place and runs the compiled
`ResidueMap` on canonical element indices; `eval` stays the exact
reference it is tested against, and serves Hensel lifting and descent.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Optional, Sequence

from .errors import ArityMismatch, RingMismatch
from .rings import (
    DEFAULT_BUDGET,
    Ring,
    RingElement,
    residue_point_count,
)

NEG_INF = float("-inf")


class MultiPoly:
    """Sparse polynomial over a :class:`Ring` in a fixed number of variables."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring: Ring, nvars: int, terms: Mapping[tuple, RingElement]):
        clean = {}
        for exp, c in terms.items():
            if len(exp) != nvars:
                raise ArityMismatch(f"exponent {exp} has length != {nvars}")
            if any(e < 0 for e in exp):
                raise ArityMismatch(f"negative exponent in {exp}")
            if c.ring is not ring and c.ring != ring:
                raise RingMismatch(
                    f"coefficient in {c.ring.describe()} for a polynomial over {ring.describe()}"
                )
            if not c.is_zero:
                clean[exp] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("polynomials are immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: Ring, nvars: int) -> "MultiPoly":
        return MultiPoly(ring, nvars, {})

    @staticmethod
    def constant(ring: Ring, nvars: int, c) -> "MultiPoly":
        return MultiPoly(ring, nvars, {(0,) * nvars: ring(c)})

    @staticmethod
    def variable(ring: Ring, nvars: int, i: int) -> "MultiPoly":
        """The monomial X_{i+1} (0-based index i)."""
        if not 0 <= i < nvars:
            raise ArityMismatch(f"variable index {i} out of range")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(ring, nvars, {exp: ring.one})

    @staticmethod
    def from_int_terms(ring: Ring, nvars: int, terms: Mapping[tuple, int]) -> "MultiPoly":
        return MultiPoly(ring, nvars, {e: ring(c) for e, c in terms.items()})

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def monomials_above_degree(self, bound: int = 3) -> int:
        """Number of stored monomials of total degree greater than `bound`."""
        return sum(1 for e in self.terms if sum(e) > bound)

    def constant_term(self) -> RingElement:
        return self.terms.get((0,) * self.nvars, self.ring.zero)

    def _check_same(self, other: "MultiPoly"):
        if self.ring != other.ring:
            raise RingMismatch("polynomials over different rings")
        if self.nvars != other.nvars:
            raise ArityMismatch("polynomials in different variable counts")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check_same(other)
        out = dict(self.terms)
        zero = self.ring.zero
        for e, c in other.terms.items():
            s = out.get(e, zero) + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.ring, self.nvars, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return MultiPoly(self.ring, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        self._check_same(other)
        out = {}
        zero = self.ring.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, zero) + c1 * c2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.ring, self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, e: int):
        if e < 0:
            raise ArityMismatch("negative polynomial power")
        acc = MultiPoly.constant(self.ring, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def scale(self, c) -> "MultiPoly":
        c = self.ring(c)
        return MultiPoly(self.ring, self.nvars, {e: c * v for e, v in self.terms.items()})

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, RingElement)):
            return MultiPoly.constant(self.ring, self.nvars, other)
        raise ArityMismatch(f"cannot combine polynomial with {type(other).__name__}")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        from .parsing import poly_text

        return f"MultiPoly({poly_text(self)!r} over {self.ring.describe()})"

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, i: int) -> "MultiPoly":
        """Formal partial derivative in variable i (0-based); coefficient
        arithmetic follows the ring characteristic."""
        if not 0 <= i < self.nvars:
            raise ArityMismatch(f"variable index {i} out of range")
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            d = c * k
            if d.is_zero:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1 :]
            prev = out.get(e2)
            out[e2] = d if prev is None else prev + d
        return MultiPoly(self.ring, self.nvars, out)

    def reduce_to_residue(self) -> "MultiPoly":
        """Coefficient-wise reduction onto the residue field."""
        k = self.ring.residue_ring()
        return MultiPoly(k, self.nvars, {e: c.reduce() for e, c in self.terms.items()})

    def eval(self, point: Sequence) -> RingElement:
        """Exact value at a point over the owner ring or its residue field."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"point length {len(point)} != {self.nvars}")
        pt = _normalize_point(self.ring, point)
        target = pt[0].ring if pt else self.ring
        f = self
        if target != self.ring:
            if target != self.ring.residue_ring():
                raise RingMismatch("point is neither over the ring nor its residue field")
            f = self.reduce_to_residue()
        acc = target.zero
        powers = [{0: target.one} for _ in range(f.nvars)]
        for e, c in f.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * _power(powers[i], pt[i], k)
            acc = acc + term
        return acc

    def compose(self, substitution: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute substitution[i] for variable i; symbolic composition."""
        if len(substitution) != self.nvars:
            raise ArityMismatch("substitution length does not match variable count")
        if not substitution:
            return self
        ring = substitution[0].ring
        m = substitution[0].nvars
        for g in substitution:
            if g.ring != ring or g.nvars != m:
                raise RingMismatch("substitution polynomials disagree")
        if ring != self.ring:
            raise RingMismatch("substitution over a different ring")
        one = MultiPoly.constant(ring, m, 1)
        acc = MultiPoly.zero(ring, m)
        powers = [{0: one} for _ in range(self.nvars)]
        for e, c in self.terms.items():
            term = MultiPoly.constant(ring, m, c)
            for i, k in enumerate(e):
                if k:
                    term = term * _power(powers[i], substitution[i], k)
            acc = acc + term
        return acc


def _normalize_point(ring: Ring, point: Sequence) -> list:
    out = []
    for x in point:
        if isinstance(x, int):
            x = ring.from_int(x)
        out.append(x)
    if out:
        first = out[0].ring
        for x in out:
            if x.ring != first:
                raise RingMismatch("mixed rings inside one point")
    return out


def _power(cache: dict, base, k: int):
    """Incremental power cache; base may be an element or a polynomial."""
    if k in cache:
        return cache[k]
    best = max(e for e in cache if e <= k)
    acc = cache[best]
    while best < k:
        acc = acc * base
        best += 1
        cache[best] = acc
    return acc


class PolyMap:
    """A square polynomial self-map: n components in n variables."""

    __slots__ = ("components", "_keller")

    def __init__(self, components: Sequence[MultiPoly]):
        components = tuple(components)
        if not components:
            raise ArityMismatch("a map needs at least one component")
        n = len(components)
        ring = components[0].ring
        for f in components:
            if f.nvars != n:
                raise ArityMismatch("square maps only: component count must equal nvars")
            if f.ring != ring:
                raise RingMismatch("components over different rings")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_keller", None)

    def __setattr__(self, *_):
        raise AttributeError("maps are immutable")

    @staticmethod
    def identity(ring: Ring, n: int) -> "PolyMap":
        return PolyMap([MultiPoly.variable(ring, n, i) for i in range(n)])

    @property
    def ring(self) -> Ring:
        return self.components[0].ring

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def degree(self):
        return max(f.total_degree for f in self.components)

    def monomials_above_degree(self, bound: int = 3) -> int:
        return sum(f.monomials_above_degree(bound) for f in self.components)

    def eval(self, point: Sequence) -> tuple:
        return tuple(f.eval(point) for f in self.components)

    def reduce_to_residue(self) -> "PolyMap":
        out = PolyMap([f.reduce_to_residue() for f in self.components])
        if self._keller:
            object.__setattr__(out, "_keller", True)
        return out

    def cache_keller(self, verdict: bool):
        """Write-once cache for the Keller verdict."""
        if self._keller is None:
            object.__setattr__(self, "_keller", verdict)

    @property
    def cached_keller(self) -> Optional[bool]:
        return self._keller

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"PolyMap(n={self.nvars} over {self.ring.describe()})"


def map_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """The map x -> f(g(x))."""
    if f.nvars != g.nvars:
        raise ArityMismatch("composed maps must share the variable count")
    return PolyMap([c.compose(g.components) for c in f.components])


# last-coordinate values evaluated together when the map has one variable,
# so the power columns of a large field are never all held at once
_BLOCK = 4096


class ResidueMap:
    """The reduced map compiled onto canonical residue indices 0..q-1.

    Each component becomes, per exponent of the last variable, a tuple of
    (coefficient, nonzero (variable, exponent) pairs) in the other
    variables; exponents are slots into the power table of the field.
    Fixing the leading coordinates collapses a component to a polynomial in
    the last one, which is then evaluated column-wise over all values of
    the last coordinate. GF(p) uses int arithmetic mod p; GF(p^n) multiplies
    by adding discrete logs and adds through the field's Zech-log table.
    """

    __slots__ = ("field", "nvars", "_arith", "_comps", "_depth")

    def __init__(self, f: PolyMap):
        res = f.reduce_to_residue()
        k = res.ring
        exps = sorted({e for c in res.components for exp in c.terms for e in exp} | {0})
        slot = {e: s for s, e in enumerate(exps)}
        arith = _PrimeArith(k, exps) if k.residue_degree == 1 else _ZechArith(k, exps)
        comps = []
        depth = []
        for c in res.components:
            groups = {}
            for exp, coef in c.terms.items():
                pairs = tuple((v, slot[e]) for v, e in enumerate(exp[:-1]) if e)
                groups.setdefault(slot[exp[-1]], []).append((arith.coeff(coef), pairs))
            comps.append(tuple((s, tuple(terms)) for s, terms in groups.items()))
            # the last leading coordinate the component reads, -1 for none
            depth.append(max((v for exp in c.terms for v, e in enumerate(exp[:-1]) if e), default=-1))
        self.field = k
        self.nvars = res.nvars
        self._arith = arith
        self._comps = tuple(comps)
        self._depth = tuple(depth)

    def __call__(self, point: Sequence[int]) -> tuple:
        """Value indices at one point given by its coordinate indices."""
        arith = self._arith
        rows = list(zip(*arith.powers(point[:-1])))
        powers = arith.powers(point[-1:])
        return tuple(arith.column(arith.collapse(c, rows), powers, 1)[0] for c in self._comps)

    def scan(self) -> Iterator[tuple]:
        """(point indices, value indices) at every residue point, in the
        canonical order (lexicographic, last coordinate fastest)."""
        arith, comps, depth = self._arith, self._comps, self._depth
        q = self.field.element_count
        if self.nvars > 1:
            powers = arith.powers(range(q))
            rows = list(zip(*powers))
            blocks = [(range(q), powers)]
        else:
            rows = []
            spans = (range(lo, min(lo + _BLOCK, q)) for lo in range(0, q, _BLOCK))
            blocks = ((xs, arith.powers(xs)) for xs in spans)
        columns = [None] * len(comps)
        changed = -1  # first leading coordinate that differs from the last prefix
        for prefix in itertools.product(range(q), repeat=self.nvars - 1):
            prefix_rows = [rows[x] for x in prefix]
            polys = {
                i: arith.collapse(comps[i], prefix_rows)
                for i, d in enumerate(depth)
                if d >= changed
            }
            head = [(x,) for x in prefix]
            for xs, powers in blocks:
                for i, poly in polys.items():
                    columns[i] = arith.column(poly, powers, len(xs))
                yield from zip(itertools.product(*head, xs), zip(*columns))
            # the next prefix advances the last coordinate below q - 1 and
            # resets the ones after it; components reading none of them
            # keep their columns
            changed = len(prefix) - 1
            while changed > 0 and prefix[changed] == q - 1:
                changed -= 1


class _PrimeArith:
    """GF(p), where an element's index is its value: int arithmetic mod p."""

    __slots__ = ("p", "exps")

    def __init__(self, k: Ring, exps: list):
        self.p = k.p
        self.exps = exps

    def coeff(self, c: RingElement) -> int:
        return c.val

    def powers(self, xs) -> list:
        """One column per exponent slot: x^e for every x in xs."""
        p = self.p
        return [[pow(x, e, p) for x in xs] for e in self.exps]

    def collapse(self, comp: tuple, rows: list) -> tuple:
        """(coefficient, last-variable slot) pairs of a component with the
        leading coordinates fixed."""
        p = self.p
        out = []
        for s, terms in comp:
            acc = 0
            for c, pairs in terms:
                for v, t in pairs:
                    c *= rows[v][t]
                acc += c
            acc %= p
            if acc:
                out.append((acc, s))
        return tuple(out)

    def column(self, poly: tuple, powers: list, size: int):
        """Values of a collapsed component at every x of a block."""
        if not poly:
            return [0] * size
        if len(poly) == 1 and poly[0][1] == 0:  # slot 0 is the exponent 0
            return [poly[0][0]] * size
        acc = None
        for c, s in poly:
            col = powers[s]
            acc = [c * a for a in col] if acc is None else [u + c * a for u, a in zip(acc, col)]
        p = self.p
        return [u % p for u in acc]


class _ZechArith:
    """GF(p^n) in the log domain: g^i is stored as i, and zero as -1."""

    __slots__ = ("exps", "m", "exp", "log", "zech")

    def __init__(self, k: Ring, exps: list):
        tables = k.zech_tables
        self.exps = exps
        self.m = len(tables.exp)
        # a trailing zero, so that the zero log -1 maps to index 0
        self.exp = tables.exp + (0,)
        self.log = tables.log
        self.zech = tables.zech

    def coeff(self, c: RingElement) -> int:
        return self.log[c.index]

    def powers(self, xs) -> list:
        log, m = self.log, self.m
        return [[e * log[x] % m if x else (-1 if e else 0) for x in xs] for e in self.exps]

    def _add(self, a: list, b: list) -> list:
        """Element-wise sum of two log columns (a negative zech index counts
        from the end, which is the difference modulo m)."""
        zech, m = self.zech, self.m
        return [
            t if u < 0 else u if t < 0 else (-1 if (z := zech[t - u]) < 0 else (u + z) % m)
            for u, t in zip(a, b)
        ]

    def collapse(self, comp: tuple, rows: list) -> tuple:
        zech, m = self.zech, self.m
        out = []
        for s, terms in comp:
            acc = -1
            for c, pairs in terms:
                for v, t in pairs:
                    r = rows[v][t]
                    if r < 0:
                        break
                    c += r
                else:
                    c %= m
                    if acc < 0:
                        acc = c
                    else:
                        z = zech[c - acc]
                        acc = -1 if z < 0 else (acc + z) % m
            if acc >= 0:
                out.append((acc, s))
        return tuple(out)

    def column(self, poly: tuple, powers: list, size: int):
        exp, m = self.exp, self.m
        if not poly:
            return [0] * size
        if len(poly) == 1 and poly[0][1] == 0:
            return [exp[poly[0][0]]] * size
        acc = [-1] * size
        for c, s in poly:
            acc = self._add(acc, [(c + t) % m if t >= 0 else -1 for t in powers[s]])
        return [exp[u] for u in acc]


def residue_values(f: PolyMap, budget: int = DEFAULT_BUDGET) -> Iterator[tuple]:
    """(point indices, value indices) of the reduced map at every residue
    point, in the canonical enumeration order; elements are canonical
    indices (`Ring.from_index`), 0 being zero. Raises BudgetExceeded when
    the q^n points exceed `budget`."""
    residue_point_count(f.ring, f.nvars, budget)
    return ResidueMap(f).scan()


def least_root(
    coeffs: Sequence[int], field: Ring, budget: int = DEFAULT_BUDGET
) -> Optional[RingElement]:
    """Least element of `field` in canonical order that is a root of the
    integer polynomial with ascending coefficients, or None."""
    poly = MultiPoly.from_int_terms(field, 1, {(e,): c for e, c in enumerate(coeffs)})
    root = next((pt[0] for pt, v in residue_values(PolyMap([poly]), budget) if not v[0]), None)
    return None if root is None else field.from_index(root)


def functional_eq_on_residue(a, b, budget: int = DEFAULT_BUDGET) -> bool:
    """Equal values at every residue point (component-wise for maps)."""
    if isinstance(a, MultiPoly):
        a = PolyMap([a])
    if isinstance(b, MultiPoly):
        b = PolyMap([b])
    if a.nvars != b.nvars:
        raise ArityMismatch("maps in different variable counts")
    fa = a.reduce_to_residue()
    fb = b.reduce_to_residue()
    if fa.ring != fb.ring:
        raise RingMismatch("maps reduce to different residue fields")
    diff = PolyMap([x - y for x, y in zip(fa.components, fb.components)])
    return not any(any(v) for _, v in residue_values(diff, budget))
