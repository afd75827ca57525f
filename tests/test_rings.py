import random

import pytest

from kellermaps.errors import BudgetExceeded, InvalidInput, NonUnitInverse, RingMismatch
from kellermaps.rings import (
    Ring,
    build_unramified,
    enumerate_residue_points,
    lift_from_residue,
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
