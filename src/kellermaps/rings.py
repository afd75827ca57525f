"""Exact arithmetic in residue fields and truncated local rings.

Four ring kinds are supported, all with a prime p, a residue degree n
(so the residue field has q = p^n elements) and a precision N (arithmetic
is performed modulo the N-th power of the maximal ideal):

  residue-field         GF(p^n); the maximal ideal is (0), precision is 1.
  mixed-char-truncated  Z/p^N with maximal ideal (p).
  equal-char-truncated  GF(p)[T]/T^N with maximal ideal (T).
  unramified-truncated  (Z/p^N)[x]/(m(x)) for a monic lift m of an
                        irreducible polynomial over GF(p); maximal ideal (p).

Each Ring picks one of three arithmetic objects when it is built, and
element operations call it on raw values. Each holds `base`, the modulus
of a coefficient, and `width`, the number of coefficients (0 for an int):

  _IntArith     Z/p^N: an int in [0, p^N). GF(p) is the case N = 1.
  _SeriesArith  GF(p)[T]/T^N: a tuple of N ints in [0, p), the
                coefficients of 1, T, ..., T^{N-1}.
  _ExtArith     (Z/p^N)[x]/(m): a tuple of n ints in [0, p^N), the
                coefficients of 1, x, ..., x^{n-1}. GF(p^n) is the case N = 1.

The canonical ordering of elements is by coefficient vector with the most
significant coefficient last, i.e. by the integer a_0 + a_1 base + ... .
Extension moduli are chosen deterministically: the first monic irreducible
polynomial over GF(p) in that same coefficient ordering.

All values are immutable; every operation is pure.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from .errors import DEFAULT_BUDGET, BudgetExceeded, InvalidInput, NonUnitInverse, RingMismatch

RESIDUE_FIELD = "residue-field"
MIXED = "mixed-char-truncated"
EQUAL = "equal-char-truncated"
UNRAMIFIED = "unramified-truncated"


# Miller-Rabin with the first 13 primes as bases decides every n below this
# bound exactly (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; InvalidInput at or above PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise InvalidInput(f"cannot decide primality of integers >= {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient tuples in ascending degree


def _trim(coeffs: Sequence[int]) -> tuple:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


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
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
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
# raw-value arithmetic, one object per ring
#
# Each object provides add, sub, neg, mul, ord (the valuation), inv (of a
# unit), reduce (the residue map) and div_uniformizer (exact division by the
# m-th power of the uniformizer p or T).


def _p_ord(c: int, p: int) -> int:
    """The p-adic valuation of a nonzero int."""
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class _IntArith:
    """Z/p^N on ints in [0, p^N); GF(p) is the case N = 1."""

    width = 0

    def __init__(self, p: int, precision: int):
        self.p, self.precision, self.base = p, precision, p**precision

    def add(self, a, b):
        return (a + b) % self.base

    def sub(self, a, b):
        return (a - b) % self.base

    def neg(self, a):
        return -a % self.base

    def mul(self, a, b):
        return a * b % self.base

    def ord(self, a) -> int:
        return _p_ord(a, self.p) if a else self.precision

    def inv(self, a):
        return pow(a, -1, self.base)

    def reduce(self, a):
        return a % self.p

    def div_uniformizer(self, a, m: int):
        return a // self.p**m


class _VectorArith:
    """Coefficient-wise addition on tuples of ints in [0, base)."""

    def add(self, a, b):
        m = self.base
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.base
        return tuple((x - y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.base
        return tuple(-x % m for x in a)


class _SeriesArith(_VectorArith):
    """GF(p)[T]/T^N on N-tuples of ints in [0, p)."""

    def __init__(self, p: int, precision: int):
        self.p = self.base = p
        self.precision = self.width = precision

    def mul(self, a, b):
        n, p = self.width, self.p
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % p
        return tuple(out)

    def ord(self, a) -> int:
        for i, c in enumerate(a):
            if c:
                return i
        return self.precision

    def inv(self, a):
        p, n = self.p, self.width
        b0 = pow(a[0], -1, p)
        out = [b0] + [0] * (n - 1)
        for k in range(1, n):
            s = 0
            for i in range(1, k + 1):
                s += a[i] * out[k - i]
            out[k] = (-b0 * s) % p
        return tuple(out)

    def reduce(self, a):
        return a[0]

    def div_uniformizer(self, a, m: int):
        return a[m:] + (0,) * m


class _ExtArith(_VectorArith):
    """(Z/p^N)[x]/(m) on n-tuples of ints in [0, p^N), for a monic m of
    degree n irreducible over GF(p); GF(p^n) is the case N = 1."""

    def __init__(self, p: int, precision: int, modulus: tuple):
        self.p, self.precision, self.modulus = p, precision, modulus
        self.base = p**precision
        self.width = len(modulus) - 1

    def mul(self, a, b):
        # convolve, then reduce by the monic modulus from the top degree down
        m, n, mod = self.base, self.width, self.modulus
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % m
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % m
        return tuple(prod[:n])

    def ord(self, a) -> int:
        return min((_p_ord(c, self.p) for c in a if c), default=self.precision)

    def inv(self, a):
        # a^(q-2) inverts a modulo p, since a^(q-1) = 1 in GF(q); each Newton
        # step z <- z(2 - az) then doubles the number of correct p-adic digits
        one = (1,) + (0,) * (self.width - 1)
        z, power, e = one, a, self.p**self.width - 2
        while e:
            if e & 1:
                z = self.mul(z, power)
            power = self.mul(power, power)
            e >>= 1
        two = self.add(one, one)
        for _ in range((self.precision - 1).bit_length()):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        return z

    def reduce(self, a):
        p = self.p
        return tuple(c % p for c in a)

    def div_uniformizer(self, a, m: int):
        pm = self.p**m
        return tuple(c // pm for c in a)


# ---------------------------------------------------------------------------


class Record:
    """Immutable value object whose fields are the subclass's ``__slots__``.

    Built by position or keyword; compared, hashed and shown as the tuple
    of its fields, like a frozen dataclass.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args), **kwargs)
        if len(args) > len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"


# the one Ring of each parameter tuple; unbounded, like the _find_modulus cache
_RINGS: dict = {}


class Ring:
    """Descriptor of a residue field or truncated local ring (O, M, k).

    Interned: `Ring(...)` returns one object per parameter tuple, validated
    once, so rings compare and hash by identity. `arith` is the arithmetic
    object on raw element values, chosen when the ring is built. The log
    tables of an extension residue field are built on first use of
    `zech_tables`.
    """

    __slots__ = ("kind", "p", "residue_degree", "precision", "modulus", "_zech", "arith")

    def __new__(
        cls,
        kind: str,
        p: int,
        residue_degree: int = 1,
        precision: int = 1,
        modulus: Optional[Sequence[int]] = None,
    ):
        if modulus is not None:
            modulus = tuple(modulus)
        key = (kind, p, residue_degree, precision, modulus)
        ring = _RINGS.get(key)
        if ring is not None:
            return ring
        if not is_prime(p):
            raise InvalidInput(f"{p} is not prime")
        if precision < 1 or residue_degree < 1:
            raise InvalidInput("precision and residue degree must be >= 1")
        if kind not in (RESIDUE_FIELD, MIXED, EQUAL, UNRAMIFIED):
            raise InvalidInput(f"unknown ring kind {kind!r}")
        if kind in (MIXED, EQUAL) and residue_degree != 1:
            raise InvalidInput(f"{kind} supports residue degree 1 only")
        if kind == UNRAMIFIED and residue_degree < 2:
            raise InvalidInput("use the mixed-characteristic kind for degree 1")
        if kind == RESIDUE_FIELD and precision != 1:
            raise InvalidInput("a residue field has precision 1")
        if residue_degree > 1:
            if modulus is None or len(modulus) != residue_degree + 1 or modulus[-1] != 1:
                raise InvalidInput("modulus must be monic of degree residue_degree")
            if not _is_irreducible_p(modulus, p):
                raise InvalidInput("modulus is reducible over GF(p)")
        elif modulus is not None:
            raise InvalidInput("degree-1 rings carry no modulus")
        if kind == EQUAL:
            arith = _SeriesArith(p, precision)
        elif modulus is None:
            arith = _IntArith(p, precision)
        else:
            arith = _ExtArith(p, precision, modulus)
        ring = object.__new__(cls)
        for name, value in zip(cls.__slots__, key + (None, arith)):
            object.__setattr__(ring, name, value)
        _RINGS[key] = ring
        return ring

    def __setattr__(self, *_):
        raise AttributeError("rings are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copies and unpickled rings are the interned ring of the tuple
        return Ring, (self.kind, self.p, self.residue_degree, self.precision, self.modulus)

    def __repr__(self):
        return (f"Ring(kind={self.kind!r}, p={self.p!r}, residue_degree={self.residue_degree!r}, "
                f"precision={self.precision!r}, modulus={self.modulus!r})")

    # -- structure ---------------------------------------------------------

    @property
    def q(self) -> int:
        """Size of the residue field."""
        return self.p**self.residue_degree

    @property
    def element_count(self) -> int:
        return self.arith.base ** max(self.arith.width, 1)

    @property
    def char_zero_family(self) -> bool:
        """True for the truncations of characteristic-zero local rings."""
        return self.kind in (MIXED, UNRAMIFIED)

    def residue_ring(self) -> "Ring":
        return Ring(RESIDUE_FIELD, self.p, self.residue_degree, 1, self.modulus)

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

    def from_int(self, v: int) -> "RingElement":
        w, m = self.arith.width, self.arith.base
        if w == 0:
            return RingElement(self, v % m)
        return RingElement(self, (v % m,) + (0,) * (w - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> "RingElement":
        """Element from its canonical coefficient vector."""
        w, m = self.arith.width, self.arith.base
        if w == 0:
            if len(coeffs) != 1:
                raise InvalidInput("expected a single coefficient")
            return RingElement(self, coeffs[0] % m)
        if len(coeffs) > w:
            raise InvalidInput(f"expected at most {w} coefficients")
        return RingElement(self, tuple(c % m for c in coeffs) + (0,) * (w - len(coeffs)))

    def __call__(self, v: Union[int, "RingElement", Sequence[int]]) -> "RingElement":
        if isinstance(v, RingElement):
            if v.ring is not self:
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
        if self.residue_degree == 1:
            raise InvalidInput("ring has no extension generator")
        return self.from_coeffs((0, 1))

    def uniformizer(self) -> "RingElement":
        """A generator of the maximal ideal: p or T."""
        if self.kind == RESIDUE_FIELD:
            raise InvalidInput("a field has no uniformizer")
        if self.kind == EQUAL:
            return self.from_coeffs((0, 1))
        return self.from_int(self.p)

    # -- ordering and enumeration -------------------------------------------

    def index_of(self, a) -> int:
        """Canonical ordering index of a value (most significant coefficient last)."""
        if self.arith.width == 0:
            return a
        base = self.arith.base
        idx = 0
        for c in reversed(a):
            idx = idx * base + c
        return idx

    def from_index(self, idx: int) -> "RingElement":
        w, base = self.arith.width, self.arith.base
        if w == 0:
            return RingElement(self, idx % base)
        val = []
        for _ in range(w):
            val.append(idx % base)
            idx //= base
        return RingElement(self, tuple(val))

    def elements(self) -> Iterator["RingElement"]:
        """All elements in canonical order."""
        for idx in range(self.element_count):
            yield self.from_index(idx)

    @property
    def zech_tables(self) -> "ZechTables":
        """Log tables of this extension residue field, built on first use."""
        tables = self._zech
        if tables is None:
            if self.kind != RESIDUE_FIELD or self.residue_degree == 1:
                raise InvalidInput("log tables exist for extension residue fields only")
            tables = _zech_tables(self)
            object.__setattr__(self, "_zech", tables)
        return tables

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
            if other.ring is not self.ring:
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
        return RingElement(self.ring, self.ring.arith.add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.arith.sub(self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.arith.sub(o.val, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.arith.mul(self.val, o.val))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.arith.neg(self.val))

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
        if self.ord != 0:
            raise NonUnitInverse(f"ord {self.ord} element has no inverse")
        return RingElement(self.ring, self.ring.arith.inv(self.val))

    @property
    def ord(self) -> int:
        """Valuation ord_M, in {0, ..., precision}."""
        v = self._ord
        if v is None:
            v = self.ring.arith.ord(self.val)
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
        return RingElement(self.ring.residue_ring(), self.ring.arith.reduce(self.val))

    @property
    def index(self) -> int:
        return self.ring.index_of(self.val)

    def coeffs(self) -> tuple:
        """Canonical coefficient vector (length 1 for int-valued kinds)."""
        if self.ring.arith.width == 0:
            return (self.val,)
        return self.val

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.val == other.val

    def __hash__(self):
        return hash((self.ring, self.val))

    def __repr__(self):
        return f"{text_of(self)} in {self.ring.describe()}"


# ---------------------------------------------------------------------------
# discrete-log tables of GF(p^n), n > 1 (Lidl & Niederreiter, Finite Fields)


class ZechTables(Record):
    """Antilog, log and Zech-log tables on canonical indices, for the least
    primitive element g in canonical order and m = q - 1.

    exp[i] is the index of g^i (0 <= i < m); log[a] is the i with g^i = a,
    and log[0] = -1; zech[i] = log(1 + g^i), -1 where 1 + g^i = 0. Then
    g^i + g^j = g^(i + zech[j - i]), exponents taken modulo m.
    """

    __slots__ = ("exp", "log", "zech")


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
        v = k.arith.mul(v, g.val)
    # adding one raises the lowest base-p digit of the index by one
    zech = tuple(log[a - a % p + (a + 1) % p] for a in exp)
    return ZechTables(tuple(exp), tuple(log), zech)


# ---------------------------------------------------------------------------
# public constructors and module-level operations

# Largest precision the public constructors accept. A ring computes p^N when
# it is built and a series element holds N coefficients, so an unbounded N
# hangs. `Ring` and `with_precision` stay unbounded: Hensel lifting works at
# a boosted precision above the ring's own.
MAX_PRECISION = 4096


def _check_precision(precision: int) -> None:
    if not 1 <= precision <= MAX_PRECISION:
        raise InvalidInput(f"prec must be between 1 and {MAX_PRECISION}")


def residue_field(p: int, n: int = 1) -> Ring:
    """The field GF(p^n), with a deterministically chosen modulus for n > 1."""
    if n == 1:
        return Ring(RESIDUE_FIELD, p)
    return Ring(RESIDUE_FIELD, p, n, 1, _find_modulus(p, n))


def truncated_zp(p: int, precision: int) -> Ring:
    """Z/p^N, the mixed-characteristic truncation of the p-adic integers."""
    _check_precision(precision)
    return Ring(MIXED, p, 1, precision)


def truncated_fpt(p: int, precision: int) -> Ring:
    """GF(p)[T]/T^N, the equal-characteristic truncation of GF(p)[[T]]."""
    _check_precision(precision)
    return Ring(EQUAL, p, 1, precision)


def build_unramified(p: int, n: int, precision: int) -> Ring:
    """Truncated unramified extension of Z_p with residue field GF(p^n)."""
    _check_precision(precision)
    if n < 1:
        raise InvalidInput("extension degree must be >= 1")
    if n == 1:
        return truncated_zp(p, precision)
    return Ring(UNRAMIFIED, p, n, precision, _find_modulus(p, n))


def lift_from_residue(xbar: RingElement, ring: Ring) -> RingElement:
    """Canonical section of the residue map."""
    if xbar.ring is not ring.residue_ring():
        raise RingMismatch(
            f"{xbar.ring.describe()} is not the residue field of {ring.describe()}"
        )
    return ring.from_coeffs(xbar.coeffs())


def _family(ring: Ring) -> tuple:
    return ring.kind, ring.p, ring.residue_degree, ring.modulus


def lift_to_precision(x: RingElement, ring: Ring) -> RingElement:
    """Canonical injection into the same ring family at higher precision."""
    if _family(x.ring) != _family(ring) or ring.precision < x.ring.precision:
        raise RingMismatch("target is not a precision lift of the source ring")
    return ring.from_coeffs(x.coeffs())


def project_to_precision(x: RingElement, ring: Ring) -> RingElement:
    """Truncation onto the same ring family at lower precision."""
    if _family(x.ring) != _family(ring) or ring.precision > x.ring.precision:
        raise RingMismatch("target is not a truncation of the source ring")
    # a series keeps its first N coefficients; the other kinds keep them all
    return ring.from_coeffs(x.coeffs()[: ring.arith.width or 1])


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
    if x.ring.arith.width == 0:
        return str(x.val)
    return "[" + ",".join(str(c) for c in x.val) + "]"


def point_text(point: Sequence[RingElement]) -> str:
    return ",".join(text_of(x) for x in point)
