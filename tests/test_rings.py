import copy
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kellermaps

from kellermaps.errors import BudgetExceeded, InvalidInput, NonUnitInverse, RingMismatch
from kellermaps.hensel import _div_exact
from kellermaps.rings import (
    EQUAL,
    MAX_PRECISION,
    MIXED,
    PRIME_BOUND,
    RESIDUE_FIELD,
    Ring,
    ZechTables,
    build_unramified,
    enumerate_residue_points,
    is_prime,
    lift_from_residue,
    lift_to_precision,
    project_to_precision,
    residue_field,
    truncated_fpt,
    truncated_zp,
)


def test_prime_field_inverse():
    f5 = residue_field(5)
    assert f5(2).inverse() == f5(3)
    assert (f5(2) * f5(2).inverse()) == f5.one


def test_mixed_char_valuation():
    z = truncated_zp(5, 4)
    assert z(50).ord == 2  # 50 = 2 * 5^2
    assert z(0).ord == 4
    assert z(7).ord == 0


def test_extension_field_inverse_by_scan():
    f4 = residue_field(2, 2)
    x = f4.theta()
    # oracle: scan the three nonzero elements
    expected = [e for e in f4.elements() if not e.is_zero and (x * e) == f4.one]
    assert expected == [x.inverse()]
    assert x.inverse() == f4.from_coeffs((1, 1))


def test_build_unramified_smallest_modulus():
    # exactly one of the four monic quadratics over GF(2) is irreducible
    u = build_unramified(2, 2, 1)
    assert u.modulus == (1, 1, 1)  # x^2 + x + 1


def test_build_unramified_degree_one_is_plain():
    r = build_unramified(5, 1, 3)
    assert r == truncated_zp(5, 3)
    assert r.modulus is None


def test_build_unramified_counts():
    r = build_unramified(3, 2, 2)
    assert r.residue_ring().element_count == 9
    assert r.element_count == 81
    assert len(list(r.elements())) == 81


def test_invalid_inputs():
    with pytest.raises(InvalidInput):
        truncated_zp(6, 2)
    with pytest.raises(InvalidInput):
        truncated_zp(5, 0)
    with pytest.raises(InvalidInput):
        build_unramified(4, 2, 1)


def test_non_unit_inverse():
    z = truncated_zp(5, 2)
    with pytest.raises(NonUnitInverse):
        z(10).inverse()


def test_ring_mismatch():
    a = truncated_zp(5, 2)(1)
    b = truncated_zp(7, 2)(1)
    with pytest.raises(RingMismatch):
        a + b


@pytest.mark.parametrize(
    "ring",
    [
        residue_field(7),
        residue_field(2, 3),
        truncated_zp(3, 3),
        truncated_fpt(3, 3),
        build_unramified(3, 2, 2),
    ],
)
def test_ring_axioms_on_random_triples(ring):
    rng = random.Random(20240 + ring.element_count)
    for _ in range(60):
        a, b, c = (ring.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + ring.zero == a
        assert a * ring.one == a
        assert a - a == ring.zero


@pytest.mark.parametrize(
    "ring",
    [truncated_zp(2, 3), truncated_fpt(3, 2), build_unramified(2, 2, 2)],
)
def test_valuation_laws_exhaustive(ring):
    n = ring.precision
    for a in ring.elements():
        for b in ring.elements():
            assert (a * b).ord == min(a.ord + b.ord, n)
            assert (a + b).ord >= min(a.ord, b.ord)


@pytest.mark.parametrize(
    "ring",
    [truncated_zp(5, 2), truncated_fpt(2, 3), build_unramified(3, 2, 2)],
)
def test_unit_iff_nonzero_residue(ring):
    for x in ring.elements():
        assert x.is_unit == (not x.reduce().is_zero)


def test_inverse_everywhere_it_exists():
    for ring in (truncated_zp(3, 3), truncated_fpt(5, 2), build_unramified(2, 2, 3)):
        for x in ring.elements():
            if x.is_unit:
                assert x * x.inverse() == ring.one


def test_reduce_examples():
    z = truncated_zp(5, 3)
    assert z(27).reduce() == residue_field(5)(2)
    e = truncated_fpt(5, 2)
    assert e.from_coeffs((3, 4)).reduce() == residue_field(5)(3)


def test_reduce_lift_identity_and_hom():
    u = build_unramified(2, 2, 2)
    k = u.residue_ring()
    for xbar in k.elements():
        assert lift_from_residue(xbar, u).reduce() == xbar
    rng = random.Random(5)
    for _ in range(40):
        a, b = u.random_element(rng), u.random_element(rng)
        assert (a + b).reduce() == a.reduce() + b.reduce()
        assert (a * b).reduce() == a.reduce() * b.reduce()


def test_enumeration_order_and_counts():
    pts = list(enumerate_residue_points(residue_field(3), 2))
    assert len(pts) == 9
    flat = [(a.val, b.val) for a, b in pts]
    assert flat[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert len(set(flat)) == 9

    f4 = residue_field(2, 2)
    assert len(list(enumerate_residue_points(f4, 1))) == 4
    assert len(list(enumerate_residue_points(residue_field(5), 3))) == 125


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_residue_points(residue_field(5), 3, budget=100))
    assert err.value.required == 125


def test_enumeration_is_over_residue_field():
    # points over a truncated ring enumerate its residue field
    z = truncated_zp(3, 2)
    pts = list(enumerate_residue_points(z, 1))
    assert [p[0].val for p in pts] == [0, 1, 2]


def test_canonical_element_order_is_index():
    u = residue_field(2, 3)
    idx = [e.index for e in u.elements()]
    assert idx == list(range(8))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_zech_tables(p, n):
    k = residue_field(p, n)
    q, m = k.q, k.q - 1
    t = k.zech_tables
    assert k.zech_tables is t  # built once per field
    assert sorted(t.exp) == list(range(1, q))
    assert t.log[0] == -1 and all(t.log[t.exp[i]] == i for i in range(m))
    # the generator is the least primitive element in canonical order
    g = k.from_index(t.exp[1])
    for a in range(2, g.index):
        x = k.from_index(a)
        assert any(x**e == k.one for e in range(1, m))
    for i in range(m):
        total = k.from_index(t.exp[i]) + 1
        assert (t.zech[i] == -1) if total.is_zero else (t.exp[t.zech[i]] == total.index)


def test_zech_tables_only_for_extension_fields():
    with pytest.raises(InvalidInput):
        residue_field(5).zech_tables
    with pytest.raises(InvalidInput):
        build_unramified(2, 2, 2).zech_tables


def test_ring_is_an_immutable_value():
    a, b = truncated_zp(5, 2), Ring(MIXED, 5, 1, 2)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != truncated_zp(5, 3) and a != "Z/5^2"
    assert residue_field(2, 2) == Ring(RESIDUE_FIELD, 2, residue_degree=2, modulus=(1, 1, 1))
    assert residue_field(2, 2) is Ring(RESIDUE_FIELD, 2, 2, 1, [1, 1, 1])
    assert eval(repr(a), {"Ring": Ring}) == a
    with pytest.raises(AttributeError):
        a.precision = 3
    with pytest.raises(InvalidInput):
        Ring(RESIDUE_FIELD, 2, 2, 1, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)


def test_equal_parameters_share_one_ring_and_its_tables():
    assert residue_field(3, 2).zech_tables is residue_field(3, 2).zech_tables
    for r in (truncated_zp(3, 4), truncated_fpt(3, 4), build_unramified(3, 2, 4)):
        assert r.with_precision(r.precision) is r
        assert r.with_precision(9).with_precision(4) is r
        k = r.residue_ring()
        assert k.residue_ring() is k and r.residue_ring() is k
    assert build_unramified(3, 2, 4).residue_ring() is residue_field(3, 2)


def test_constructors_bound_the_precision():
    for build in (lambda n: truncated_zp(5, n), lambda n: truncated_fpt(5, n),
                  lambda n: build_unramified(5, 2, n)):
        assert build(MAX_PRECISION).precision == MAX_PRECISION
        for n in (0, MAX_PRECISION + 1):
            with pytest.raises(InvalidInput, match=f"prec must be between 1 and {MAX_PRECISION}"):
                build(n)
    # Hensel's boosted ring goes above the bound, so Ring itself has none
    big = truncated_zp(5, MAX_PRECISION).with_precision(MAX_PRECISION + 1)
    assert big is Ring(MIXED, 5, 1, MAX_PRECISION + 1)


@pytest.mark.parametrize(
    "call, message",
    [("truncated_zp(5, 10**8)", f"prec must be between 1 and {MAX_PRECISION}"),
     ("build_unramified(5, 2, 10**8)", f"prec must be between 1 and {MAX_PRECISION}"),
     ("build_unramified(10**12, 2, 2)", "1000000000000 is not prime")],
    ids=["zp-prec", "unram-prec", "unram-composite"],
)
def test_bad_parameters_fail_fast(call, message):
    # a separate process, so that computing 5^(10^8), or searching for a
    # modulus over Z/10^12, cannot hang the suite
    src = str(Path(kellermaps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import kellermaps as km\ntry:\n    km.{call}\nexcept km.InvalidInput as exc:\n    print(exc)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.stdout == message + "\n"


def test_record_is_an_immutable_value():
    t = ZechTables((1, 2), (-1, 0, 1), zech=(1, -1))
    same = ZechTables(exp=(1, 2), log=(-1, 0, 1), zech=(1, -1))
    assert t == same and hash(t) == hash(same)
    assert t != ZechTables((2, 1), (-1, 0, 1), (1, -1)) and t != (1, 2)
    assert repr(t) == "ZechTables(exp=(1, 2), log=(-1, 0, 1), zech=(1, -1))"
    with pytest.raises(AttributeError):
        t.exp = ()
    with pytest.raises(TypeError):
        ZechTables((1, 2))
    with pytest.raises(TypeError):
        ZechTables((1, 2), (-1,), (1,), extra=0)


# ---------------------------------------------------------------------------
# differential oracle: ring arithmetic against references on plain ints


def reference_mul(ring):
    """Product of coefficient vectors, computed without kellermaps: ints mod
    p^N, full convolution truncated at T^N, or sympy's remainder by the
    modulus for the extension kinds."""
    p, n = ring.p, ring.precision
    if ring.modulus is not None:
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        modulus = sympy.Poly(ring.modulus[::-1], x, domain="ZZ")

        def mul(a, b):
            product = sympy.Poly(a[::-1], x, domain="ZZ") * sympy.Poly(b[::-1], x, domain="ZZ")
            rem = [int(c) % p**n for c in product.rem(modulus).all_coeffs()[::-1]]
            return tuple(rem + [0] * (len(a) - len(rem)))

        return mul
    if ring.kind == EQUAL:

        def mul(a, b):
            conv = [0] * (2 * n - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
            return tuple(c % p for c in conv[:n])

        return mul
    return lambda a, b: (a[0] * b[0] % p**n,)


@pytest.mark.parametrize(
    "ring",
    [residue_field(7), residue_field(3, 2), truncated_zp(5, 4), truncated_fpt(3, 5),
     build_unramified(2, 3, 4)],
    ids=["gf7", "gf9", "zp", "fpt", "unram"],
)
def test_arithmetic_matches_reference(ring):
    mul = reference_mul(ring)
    base = ring.p if ring.kind == EQUAL else ring.p**ring.precision
    one = ring.one.coeffs()
    rng = random.Random(f"ring-oracle:{ring.describe()}")
    for _ in range(150):
        a, b = ring.random_element(rng), ring.random_element(rng)
        assert (a * b).coeffs() == mul(a.coeffs(), b.coeffs())
        assert (a + b).coeffs() == tuple((x + y) % base for x, y in zip(a.coeffs(), b.coeffs()))
        # a unit is an element with a nonzero residue
        residue = a.coeffs()[:1] if ring.kind == EQUAL else a.coeffs()
        assert a.is_unit == any(c % ring.p for c in residue)
        if a.is_unit:
            assert mul(a.coeffs(), a.inverse().coeffs()) == one
        else:
            with pytest.raises(NonUnitInverse):
                a.inverse()


@pytest.mark.parametrize(
    "ring",
    [truncated_zp(5, 4), truncated_fpt(3, 5), build_unramified(2, 3, 4)],
    ids=["zp", "fpt", "unram"],
)
def test_precision_change_and_exact_division(ring):
    big, small = ring.with_precision(ring.precision + 3), ring.with_precision(2)
    rng = random.Random(f"ring-precision:{ring.describe()}")
    for _ in range(150):
        x, y, b = (ring.random_element(rng) for _ in range(3))
        assert project_to_precision(lift_to_precision(x, big), ring) == x
        assert lift_to_precision(x, big).reduce() == x.reduce()
        assert project_to_precision(x * y, small) == (
            project_to_precision(x, small) * project_to_precision(y, small))
        if not b.is_zero:
            assert _div_exact(y * b, b) * b == y * b


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division_is_prime(n) for n in range(10**5))
    # strong pseudoprimes to the first few prime bases, and primes near the bound
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 9, 3317044064679887385961813):
        assert is_prime(n)


def test_is_prime_refuses_to_guess_at_the_bound():
    assert not is_prime(PRIME_BOUND - 2)
    for n in (PRIME_BOUND, 10**30 + 57):
        with pytest.raises(InvalidInput, match="cannot decide primality"):
            is_prime(n)


@pytest.mark.parametrize(
    "ring",
    [truncated_zp(5, 2), truncated_fpt(3, 4), build_unramified(3, 2, 3), residue_field(7),
     residue_field(2, 3)],
    ids=["zp", "fpt", "unram", "gfp", "gfq"],
)
def test_copied_and_pickled_rings_are_the_interned_ring(ring):
    assert copy.copy(ring) is ring
    assert copy.deepcopy(ring) is ring
    assert pickle.loads(pickle.dumps(ring)) is ring
