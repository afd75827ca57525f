"""Exact arithmetic in residue fields and truncated local rings.

Four ring kinds are supported, all with a prime p, a residue degree n
(so the residue field has q = p^n elements) and a precision N (arithmetic
is performed modulo the N-th power of the maximal ideal):

  residue-field         GF(p^n); the maximal ideal is (0), precision is 1.
  mixed-char-truncated  Z/p^N with maximal ideal (p).
  equal-char-truncated  GF(p)[T]/T^N with maximal ideal (T).
  unramified-truncated  (Z/p^N)[x]/(m(x)) for a monic lift m of an
                        irreducible polynomial over GF(p); maximal ideal (p).

Internal element values:

  residue-field, n = 1   int in [0, p)
  residue-field, n > 1   tuple of n ints in [0, p), coefficients of 1, x, ..., x^{n-1}
  mixed-char             int in [0, p^N)
  equal-char             tuple of N ints in [0, p), coefficients of 1, T, ..., T^{N-1}
  unramified             tuple of n ints in [0, p^N), coefficients of 1, x, ..., x^{n-1}

The canonical ordering of residue elements is by coefficient vector with the
most significant coefficient last, i.e. by the integer a_0 + a_1 p + ... .
Extension moduli are chosen deterministically: the first monic irreducible
polynomial in that same coefficient ordering.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence, Union

from .errors import BudgetExceeded, InvalidInput, NonUnitInverse, RingMismatch

RESIDUE_FIELD = "residue-field"
MIXED = "mixed-char-truncated"
EQUAL = "equal-char-truncated"
UNRAMIFIED = "unramified-truncated"

DEFAULT_BUDGET = 10_000_000


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient tuples in ascending degree


def _trim(coeffs: Sequence[int]) -> tuple:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _polymul_p(a: Sequence[int], b: Sequence[int], p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _polymod_p(a: Sequence[int], m: Sequence[int], p: int) -> tuple:
    # m monic
    r = list(a)
    dm = len(m) - 1
    for i in range(len(r) - 1, dm - 1, -1):
        c = r[i] % p
        if c:
            for j in range(dm + 1):
                r[i - dm + j] = (r[i - dm + j] - c * m[j]) % p
    return _trim(r[:dm])


def _is_irreducible_p(f: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg(f)//2."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            g = [0] * (d + 1)
            v = idx
            for j in range(d):
                g[j] = v % p
                v //= p
            g[d] = 1
            if not _polymod_p(f, g, p):
                return False
    return True


@lru_cache(maxsize=None)
def _find_modulus(p: int, n: int) -> tuple:
    """First monic irreducible of degree n over GF(p) in canonical order."""
    for idx in range(p**n):
        coeffs = []
        v = idx
        for _ in range(n):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if _is_irreducible_p(coeffs, p):
            return tuple(coeffs)
    raise InvalidInput(f"no irreducible polynomial of degree {n} over GF({p})")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """Descriptor of a residue field or truncated local ring (O, M, k)."""

    kind: str
    p: int
    residue_degree: int = 1
    precision: int = 1
    modulus: Optional[tuple] = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInput(f"{self.p} is not prime")
        if self.precision < 1 or self.residue_degree < 1:
            raise InvalidInput("precision and residue degree must be >= 1")
        if self.kind not in (RESIDUE_FIELD, MIXED, EQUAL, UNRAMIFIED):
            raise InvalidInput(f"unknown ring kind {self.kind!r}")
        if self.kind in (MIXED, EQUAL) and self.residue_degree != 1:
            raise InvalidInput(f"{self.kind} supports residue degree 1 only")
        if self.kind == UNRAMIFIED and self.residue_degree < 2:
            raise InvalidInput("use the mixed-characteristic kind for degree 1")
        if self.kind == RESIDUE_FIELD and self.precision != 1:
            raise InvalidInput("a residue field has precision 1")
        if self.residue_degree > 1:
            m = self.modulus
            if m is None or len(m) != self.residue_degree + 1 or m[-1] != 1:
                raise InvalidInput("modulus must be monic of degree residue_degree")
            if not _is_irreducible_p(m, self.p):
                raise InvalidInput("modulus is reducible over GF(p)")
        elif self.modulus is not None:
            raise InvalidInput("degree-1 rings carry no modulus")

    # -- structure ---------------------------------------------------------

    @property
    def q(self) -> int:
        """Size of the residue field."""
        return self.p**self.residue_degree

    @property
    def element_count(self) -> int:
        if self.kind == RESIDUE_FIELD:
            return self.q
        return self.p ** (self.residue_degree * self.precision)

    @property
    def is_field(self) -> bool:
        return self.kind == RESIDUE_FIELD

    @property
    def char_zero_family(self) -> bool:
        """True for the truncations of characteristic-zero local rings."""
        return self.kind in (MIXED, UNRAMIFIED)

    def residue_ring(self) -> "Ring":
        if self.kind == RESIDUE_FIELD:
            return self
        return _residue_ring_of(self)

    def with_precision(self, precision: int) -> "Ring":
        """Same structure at a different truncation exponent."""
        if self.kind == RESIDUE_FIELD:
            raise InvalidInput("a residue field has no truncation exponent")
        return Ring(self.kind, self.p, self.residue_degree, precision, self.modulus)

    def describe(self) -> str:
        if self.kind == RESIDUE_FIELD:
            return f"GF({self.p}^{self.residue_degree})" if self.residue_degree > 1 else f"GF({self.p})"
        if self.kind == MIXED:
            return f"Z/{self.p}^{self.precision}"
        if self.kind == EQUAL:
            return f"GF({self.p})[T]/T^{self.precision}"
        return f"unramified(p={self.p}, deg={self.residue_degree}, prec={self.precision})"

    # -- element construction ----------------------------------------------

    def _width(self) -> int:
        if self.kind == MIXED or (self.kind == RESIDUE_FIELD and self.residue_degree == 1):
            return 0  # int-valued
        if self.kind == EQUAL:
            return self.precision
        return self.residue_degree

    def _coeff_mod(self) -> int:
        if self.kind in (MIXED, UNRAMIFIED):
            return self.p**self.precision
        return self.p

    def from_int(self, v: int) -> "RingElement":
        m = self._coeff_mod()
        w = self._width()
        if w == 0:
            return RingElement(self, v % m)
        val = [0] * w
        val[0] = v % m
        return RingElement(self, tuple(val))

    def from_coeffs(self, coeffs: Sequence[int]) -> "RingElement":
        """Element from its canonical coefficient vector."""
        m = self._coeff_mod()
        w = self._width()
        if w == 0:
            if len(coeffs) != 1:
                raise InvalidInput("expected a single coefficient")
            return RingElement(self, coeffs[0] % m)
        if len(coeffs) > w:
            raise InvalidInput(f"expected at most {w} coefficients")
        val = [c % m for c in coeffs] + [0] * (w - len(coeffs))
        return RingElement(self, tuple(val))

    def __call__(self, v: Union[int, "RingElement", Sequence[int]]) -> "RingElement":
        if isinstance(v, RingElement):
            if v.ring != self:
                raise RingMismatch(f"element of {v.ring.describe()} given to {self.describe()}")
            return v
        if isinstance(v, int):
            return self.from_int(v)
        return self.from_coeffs(v)

    @property
    def zero(self) -> "RingElement":
        return self.from_int(0)

    @property
    def one(self) -> "RingElement":
        return self.from_int(1)

    def theta(self) -> "RingElement":
        """The class of x, the generator of the extension basis."""
        if self._width() == 0 or self.kind == EQUAL:
            raise InvalidInput("ring has no extension generator")
        return self.from_coeffs((0, 1))

    def uniformizer(self) -> "RingElement":
        """A generator of the maximal ideal: p or T."""
        if self.kind == RESIDUE_FIELD:
            raise InvalidInput("a field has no uniformizer")
        if self.kind == EQUAL:
            return self.from_coeffs((0, 1))
        return self.from_int(self.p)

    # -- value-level arithmetic ---------------------------------------------

    def _add(self, a, b):
        if self._width() == 0:
            return (a + b) % self._coeff_mod()
        m = self._coeff_mod()
        return tuple((x + y) % m for x, y in zip(a, b))

    def _sub(self, a, b):
        if self._width() == 0:
            return (a - b) % self._coeff_mod()
        m = self._coeff_mod()
        return tuple((x - y) % m for x, y in zip(a, b))

    def _neg(self, a):
        if self._width() == 0:
            return (-a) % self._coeff_mod()
        m = self._coeff_mod()
        return tuple((-x) % m for x in a)

    def _mul(self, a, b):
        kind = self.kind
        if self._width() == 0:
            return (a * b) % self._coeff_mod()
        if kind == EQUAL:
            n = self.precision
            p = self.p
            out = [0] * n
            for i, ai in enumerate(a):
                if ai:
                    for j in range(n - i):
                        bj = b[j]
                        if bj:
                            out[i + j] = (out[i + j] + ai * bj) % p
            return tuple(out)
        # extension kinds: convolve then reduce by the (lifted) modulus
        m = self._coeff_mod()
        n = self.residue_degree
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % m
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % m
        return tuple(prod[:n])

    def _ord(self, a) -> int:
        kind = self.kind
        if kind == RESIDUE_FIELD:
            if self.residue_degree == 1:
                return 0 if a else 1
            return 0 if any(a) else 1
        if kind == MIXED:
            if a == 0:
                return self.precision
            v = 0
            while a % self.p == 0:
                a //= self.p
                v += 1
            return v
        if kind == EQUAL:
            for i, c in enumerate(a):
                if c:
                    return i
            return self.precision
        # unramified: the maximal ideal is (p)
        best = self.precision
        for c in a:
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                if v < best:
                    best = v
                if best == 0:
                    return 0
        return best

    def _inv(self, a):
        if self._ord(a) != 0:
            raise NonUnitInverse(f"ord {self._ord(a)} element has no inverse")
        kind = self.kind
        if kind == MIXED:
            return pow(a, -1, self._coeff_mod())
        if kind == RESIDUE_FIELD and self.residue_degree == 1:
            return pow(a, self.p - 2, self.p)
        if kind == RESIDUE_FIELD:
            # x^(q-2) by square and multiply
            e = self.q - 2
            acc = self.from_int(1).val
            base = a
            while e:
                if e & 1:
                    acc = self._mul(acc, base)
                base = self._mul(base, base)
                e >>= 1
            return acc
        if kind == EQUAL:
            p, n = self.p, self.precision
            b0 = pow(a[0], p - 2, p)
            out = [b0] + [0] * (n - 1)
            for k in range(1, n):
                s = 0
                for i in range(1, k + 1):
                    s += a[i] * out[k - i]
                out[k] = (-b0 * s) % p
            return tuple(out)
        # unramified: invert the residue, then Newton-lift z <- z(2 - az)
        k = self.residue_ring()
        z = self.lift_from_residue_val(k._inv(self.reduce_val(a)))
        two = self.from_int(2).val
        for _ in range(max(1, self.precision.bit_length()) + 1):
            z = self._mul(z, self._sub(two, self._mul(a, z)))
        if self._mul(a, z) != self.one.val:
            raise NonUnitInverse("inverse lift failed")  # pragma: no cover
        return z

    # -- residue reduction and lifting --------------------------------------

    def reduce_val(self, a):
        kind = self.kind
        if kind == RESIDUE_FIELD:
            return a
        if kind == MIXED:
            return a % self.p
        if kind == EQUAL:
            return a[0]
        return tuple(c % self.p for c in a)

    def lift_from_residue_val(self, a):
        kind = self.kind
        if kind == RESIDUE_FIELD:
            return a
        if kind == MIXED:
            return a
        if kind == EQUAL:
            return (a,) + (0,) * (self.precision - 1)
        return a

    # -- ordering and enumeration -------------------------------------------

    def index_of(self, a) -> int:
        """Canonical ordering index of a value (most significant coefficient last)."""
        if self._width() == 0:
            return a
        base = self._coeff_mod()
        idx = 0
        for c in reversed(a):
            idx = idx * base + c
        return idx

    def from_index(self, idx: int) -> "RingElement":
        if self._width() == 0:
            return RingElement(self, idx % self._coeff_mod())
        base = self._coeff_mod()
        val = []
        for _ in range(self._width()):
            val.append(idx % base)
            idx //= base
        return RingElement(self, tuple(val))

    def elements(self) -> Iterator["RingElement"]:
        """All elements in canonical order."""
        for idx in range(self.element_count):
            yield self.from_index(idx)

    @cached_property
    def zech_tables(self) -> "ZechTables":
        """Log tables of this extension residue field, built on first use."""
        if self.kind != RESIDUE_FIELD or self.residue_degree == 1:
            raise InvalidInput("log tables exist for extension residue fields only")
        return _zech_tables(self)

    def random_element(self, rng) -> "RingElement":
        return self.from_index(rng.randrange(self.element_count))

    def random_unit(self, rng) -> "RingElement":
        while True:
            x = self.random_element(rng)
            if x.is_unit:
                return x


class RingElement:
    """An immutable element of a :class:`Ring`, with valuation caching."""

    __slots__ = ("ring", "val", "_ord")

    def __init__(self, ring: Ring, val):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "_ord", None)

    def __setattr__(self, *_):
        raise AttributeError("ring elements are immutable")

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            r = other.ring
            if r is not self.ring and r != self.ring:
                raise RingMismatch(
                    f"{self.ring.describe()} vs {other.ring.describe()}"
                )
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._sub(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._sub(o.val, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.val, o.val))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.val))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = self.ring.one
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring._inv(self.val))

    @property
    def ord(self) -> int:
        """Valuation ord_M, in {0, ..., precision}."""
        v = self._ord
        if v is None:
            v = self.ring._ord(self.val)
            object.__setattr__(self, "_ord", v)
        return v

    @property
    def is_unit(self) -> bool:
        return self.ord == 0

    @property
    def is_zero(self) -> bool:
        return self.ord >= self.ring.precision

    def reduce(self) -> "RingElement":
        """Image in the residue field."""
        return RingElement(self.ring.residue_ring(), self.ring.reduce_val(self.val))

    @property
    def index(self) -> int:
        return self.ring.index_of(self.val)

    def coeffs(self) -> tuple:
        """Canonical coefficient vector (length 1 for int-valued kinds)."""
        if self.ring._width() == 0:
            return (self.val,)
        return self.val

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.val == other.val

    def __hash__(self):
        return hash((self.ring, self.val))

    def __repr__(self):
        return f"{text_of(self)} in {self.ring.describe()}"


# ---------------------------------------------------------------------------
# discrete-log tables of GF(p^n), n > 1 (Lidl & Niederreiter, Finite Fields)


@dataclass(frozen=True)
class ZechTables:
    """Antilog, log and Zech-log tables on canonical indices, for the least
    primitive element g in canonical order and m = q - 1.

    exp[i] is the index of g^i (0 <= i < m); log[a] is the i with g^i = a,
    and log[0] = -1; zech[i] = log(1 + g^i), -1 where 1 + g^i = 0. Then
    g^i + g^j = g^(i + zech[j - i]), exponents taken modulo m.
    """

    exp: tuple
    log: tuple
    zech: tuple


def _prime_factors(m: int) -> list:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _zech_tables(k: Ring) -> ZechTables:
    p, q = k.p, k.q
    m = q - 1
    one = k.one
    factors = _prime_factors(m)
    g = next(
        x
        for x in map(k.from_index, range(2, q))
        if all(x ** (m // r) != one for r in factors)
    )
    exp = [0] * m
    log = [-1] * q
    v = one.val
    for i in range(m):
        a = k.index_of(v)
        exp[i] = a
        log[a] = i
        v = k._mul(v, g.val)
    # adding one raises the lowest base-p digit of the index by one
    zech = tuple(log[a - a % p + (a + 1) % p] for a in exp)
    return ZechTables(tuple(exp), tuple(log), zech)


# ---------------------------------------------------------------------------
# public constructors and module-level operations


@lru_cache(maxsize=None)
def _residue_ring_of(ring: Ring) -> Ring:
    if ring.kind == UNRAMIFIED:
        return Ring(RESIDUE_FIELD, ring.p, ring.residue_degree, 1, ring.modulus)
    return Ring(RESIDUE_FIELD, ring.p)


def residue_field(p: int, n: int = 1) -> Ring:
    """The field GF(p^n), with a deterministically chosen modulus for n > 1."""
    if n == 1:
        return Ring(RESIDUE_FIELD, p)
    return Ring(RESIDUE_FIELD, p, n, 1, _find_modulus(p, n))


def truncated_zp(p: int, precision: int) -> Ring:
    """Z/p^N, the mixed-characteristic truncation of the p-adic integers."""
    return Ring(MIXED, p, 1, precision)


def truncated_fpt(p: int, precision: int) -> Ring:
    """GF(p)[T]/T^N, the equal-characteristic truncation of GF(p)[[T]]."""
    return Ring(EQUAL, p, 1, precision)


def build_unramified(p: int, n: int, precision: int) -> Ring:
    """Truncated unramified extension of Z_p with residue field GF(p^n)."""
    if n < 1:
        raise InvalidInput("extension degree must be >= 1")
    if n == 1:
        return truncated_zp(p, precision)
    return Ring(UNRAMIFIED, p, n, precision, _find_modulus(p, n))


def lift_from_residue(xbar: RingElement, ring: Ring) -> RingElement:
    """Canonical section of the residue map."""
    if xbar.ring != ring.residue_ring():
        raise RingMismatch(
            f"{xbar.ring.describe()} is not the residue field of {ring.describe()}"
        )
    return RingElement(ring, ring.lift_from_residue_val(xbar.val))


def lift_to_precision(x: RingElement, ring: Ring) -> RingElement:
    """Canonical injection into the same ring family at higher precision."""
    r = x.ring
    if (r.kind, r.p, r.residue_degree, r.modulus) != (
        ring.kind,
        ring.p,
        ring.residue_degree,
        ring.modulus,
    ) or ring.precision < r.precision:
        raise RingMismatch("target is not a precision lift of the source ring")
    if r.kind == EQUAL:
        return RingElement(ring, x.val + (0,) * (ring.precision - r.precision))
    return RingElement(ring, x.val)


def project_to_precision(x: RingElement, ring: Ring) -> RingElement:
    """Truncation onto the same ring family at lower precision."""
    r = x.ring
    if (r.kind, r.p, r.residue_degree, r.modulus) != (
        ring.kind,
        ring.p,
        ring.residue_degree,
        ring.modulus,
    ) or ring.precision > r.precision:
        raise RingMismatch("target is not a truncation of the source ring")
    if r.kind == MIXED:
        return RingElement(ring, x.val % ring._coeff_mod())
    if r.kind == EQUAL:
        return RingElement(ring, x.val[: ring.precision])
    m = ring._coeff_mod()
    return RingElement(ring, tuple(c % m for c in x.val))


def residue_point_count(ring: Ring, nvars: int, budget: int = DEFAULT_BUDGET) -> int:
    """q^nvars, the number of residue points; BudgetExceeded above `budget`."""
    total = ring.residue_ring().element_count ** nvars
    if total > budget:
        raise BudgetExceeded(total, budget)
    return total


def enumerate_residue_points(
    ring: Ring, nvars: int, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple]:
    """All nvars-tuples over the residue field, lexicographic, last coordinate fastest."""
    residue_point_count(ring, nvars, budget)
    return itertools.product(list(ring.residue_ring().elements()), repeat=nvars)


def eval_int_poly(coeffs: Sequence[int], x: RingElement) -> RingElement:
    """Value at x of the integer polynomial with ascending coefficients (Horner)."""
    acc = x.ring.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def point_index(point: Sequence[RingElement]) -> int:
    """Rank of a residue point in the enumeration order."""
    if not point:
        return 0
    q = point[0].ring.element_count
    idx = 0
    for x in point:
        idx = idx * q + x.index
    return idx


def text_of(x: RingElement) -> str:
    """Canonical text: an integer, or a bracketed coefficient vector."""
    if x.ring._width() == 0:
        return str(x.val)
    return "[" + ",".join(str(c) for c in x.val) + "]"


def point_text(point: Sequence[RingElement]) -> str:
    return ",".join(text_of(x) for x in point)
