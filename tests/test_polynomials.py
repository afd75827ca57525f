import random

import pytest

from kellermaps.errors import ArityMismatch, RingMismatch
from kellermaps.polynomials import (
    NEG_INF,
    MultiPoly,
    PolyMap,
    functional_eq_on_residue,
    map_compose,
)
from kellermaps.rings import (
    build_unramified,
    residue_field,
    truncated_fpt,
    truncated_zp,
)


def var(ring, n, i):
    return MultiPoly.variable(ring, n, i)


def g_poly(ring, n=1, i=0):
    x = var(ring, n, i)
    return -MultiPoly.constant(ring, n, 1) + x - x**2 + x**3 - x**4


def test_eval_example_mixed_char():
    z = truncated_zp(5, 3)
    f = var(z, 2, 0) + var(z, 2, 1).__pow__(3).scale(3)
    assert f.eval((z(1), z(2))) == z(25)


def test_eval_zero_poly():
    z = truncated_zp(5, 3)
    f = MultiPoly.zero(z, 2)
    assert f.eval((z(4), z(3))) == z.zero
    assert f.total_degree == NEG_INF


def test_eval_g_at_zero():
    f5 = residue_field(5)
    g = g_poly(f5)
    assert g.eval((f5(0),)) == f5(4)
    # full residue table: 0..3 -> 4 and 4 -> 0
    table = {a: g.eval((f5(a),)).val for a in range(5)}
    assert table == {0: 4, 1: 4, 2: 4, 3: 4, 4: 0}


def test_eval_at_residue_point_reduces_first():
    z = truncated_zp(5, 2)
    f5 = residue_field(5)
    f = var(z, 1, 0).scale(7)  # coefficient 7 = 2 mod 5
    assert f.eval((f5(3),)) == f5(1)


def test_compose_with_identity():
    z = truncated_zp(3, 2)
    f = var(z, 2, 0) + var(z, 2, 1) ** 3
    ident = PolyMap.identity(z, 2)
    assert f.compose(ident.components) == f


def test_triangular_composition_cancels():
    z = truncated_zp(7, 2)
    x1, x2 = var(z, 2, 0), var(z, 2, 1)
    f = PolyMap([x1 + x2**3, x2])
    g = PolyMap([x1 - x2**3, x2])
    assert map_compose(f, g) == PolyMap.identity(z, 2)


def test_g_composition_function_table():
    # g(g(x)) fixes 4 and kills everything else; this pins the computed
    # truth that the composition is NOT the zero function on GF(5)
    f5 = residue_field(5)
    g = g_poly(f5)
    gg = g.compose([g])
    values = {a: gg.eval((f5(a),)).val for a in range(5)}
    assert values == {0: 0, 1: 0, 2: 0, 3: 0, 4: 4}
    assert not functional_eq_on_residue(gg, MultiPoly.zero(f5, 1))


def test_functional_vs_symbolic_equality():
    f5 = residue_field(5)
    x = var(f5, 1, 0)
    frobenius = x**5
    assert functional_eq_on_residue(frobenius, x)
    assert frobenius != x


def test_derivative_basic():
    z = truncated_zp(5, 2)
    f = var(z, 2, 0) ** 2 * var(z, 2, 1)
    d = f.derivative(0)
    assert d == (var(z, 2, 0) * var(z, 2, 1)).scale(2)
    assert MultiPoly.constant(z, 2, 9).derivative(0).is_zero


def test_derivative_kills_pth_powers_in_char_p():
    e = truncated_fpt(5, 2)
    f = var(e, 1, 0) ** 5
    assert f.derivative(0).is_zero


def test_derivation_property_random():
    rng = random.Random(99)
    z = truncated_zp(3, 2)
    for _ in range(25):
        f = _random_poly(z, 2, rng)
        g = _random_poly(z, 2, rng)
        for i in range(2):
            lhs = (f * g).derivative(i)
            rhs = f * g.derivative(i) + g * f.derivative(i)
            assert lhs == rhs


def _random_poly(ring, nvars, rng, max_degree=3, terms=4):
    out = MultiPoly.zero(ring, nvars)
    for _ in range(rng.randrange(1, terms + 1)):
        exp = tuple(rng.randrange(0, max_degree + 1) for _ in range(nvars))
        out = out + MultiPoly(ring, nvars, {exp: ring.random_element(rng)})
    return out


def test_eval_is_ring_homomorphism():
    rng = random.Random(123)
    ring = build_unramified(2, 2, 2)
    for _ in range(25):
        f = _random_poly(ring, 2, rng)
        g = _random_poly(ring, 2, rng)
        x = tuple(ring.random_element(rng) for _ in range(2))
        assert (f + g).eval(x) == f.eval(x) + g.eval(x)
        assert (f * g).eval(x) == f.eval(x) * g.eval(x)


def test_composition_associativity_on_residue_points():
    rng = random.Random(17)
    ring = truncated_fpt(2, 2)
    for _ in range(10):
        f = PolyMap([_random_poly(ring, 2, rng, 2), _random_poly(ring, 2, rng, 2)])
        g = PolyMap([_random_poly(ring, 2, rng, 2), _random_poly(ring, 2, rng, 2)])
        h = PolyMap([_random_poly(ring, 2, rng, 2), _random_poly(ring, 2, rng, 2)])
        assert functional_eq_on_residue(
            map_compose(map_compose(f, g), h), map_compose(f, map_compose(g, h))
        )


def test_reduction_commutes_with_eval():
    ring = truncated_zp(3, 2)
    f = var(ring, 2, 0).scale(4) + var(ring, 2, 1) ** 2 + MultiPoly.constant(ring, 2, 6)
    red = f.reduce_to_residue()
    for a in range(9):
        for b in range(9):
            x = (ring(a), ring(b))
            assert f.eval(x).reduce() == red.eval(tuple(v.reduce() for v in x))


def test_monomial_count_examples():
    z = truncated_zp(5, 2)
    f = var(z, 2, 0) + var(z, 2, 0) ** 4 + var(z, 2, 0) ** 2 * var(z, 2, 1) ** 3
    assert f.monomials_above_degree(3) == 2
    low = var(z, 2, 0) ** 3 + var(z, 2, 1)
    assert low.monomials_above_degree(3) == 0


def test_monomial_count_after_cancellation():
    # X - X^5 + g(X^5) collects to -1 + X - X^10 + X^15 - X^20 over GF(5)
    f5 = residue_field(5)
    x = var(f5, 1, 0)
    f = x - x**5 + g_poly(f5).compose([x**5])
    assert sorted(sum(e) for e in f.terms) == [0, 1, 10, 15, 20]
    assert f.monomials_above_degree(3) == 3
    assert PolyMap([f]).monomials_above_degree(3) == 3


def test_map_requires_square():
    z = truncated_zp(3, 2)
    with pytest.raises(ArityMismatch):
        PolyMap([var(z, 2, 0)])


def test_mixed_ring_rejected():
    with pytest.raises(RingMismatch):
        var(truncated_zp(3, 2), 1, 0) + var(truncated_zp(5, 2), 1, 0)


def test_degree_bookkeeping():
    z = truncated_zp(3, 2)
    f = PolyMap([var(z, 2, 0) + var(z, 2, 1) ** 3, var(z, 2, 1)])
    assert f.degree == 3
    assert f.components[1].total_degree == 1
