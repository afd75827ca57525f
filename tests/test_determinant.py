"""The packed determinant kernel against the MultiPoly cofactor expansion.

`reference_det` is the expansion on `MultiPoly` entries with `RingElement`
arithmetic that `det_poly_matrix` and `is_keller` used before they moved
onto packed exponents and raw ring values; it stays here as the oracle.
"""

import random

import pytest

from kellermaps.jacobian import (
    PolyMatrix,
    det_poly_matrix,
    is_keller,
    jacobian_matrix,
    random_affine_keller,
)
from kellermaps.polynomials import MultiPoly, PolyMap, map_compose
from kellermaps.rings import build_unramified, residue_field, truncated_fpt, truncated_zp
from kellermaps.unimodular import random_triangular_keller

RINGS = {
    "zp": truncated_zp(5, 3),
    "zp-2": truncated_zp(2, 4),
    "fpt": truncated_fpt(3, 4),
    "unram": build_unramified(3, 2, 3),
    "gfp": residue_field(7),
    "gfq": residue_field(2, 3),
}


def reference_det(m: PolyMatrix) -> MultiPoly:
    """Cofactor expansion along the rows on MultiPoly entries, memoised on
    the remaining column set."""
    ring, nvars = m.ring, m.nvars
    memo = {}

    def minor(row, cols):
        if not cols:
            return MultiPoly.constant(ring, nvars, 1)
        acc = memo.get(cols)
        if acc is None:
            acc = MultiPoly.zero(ring, nvars)
            for k, c in enumerate(cols):
                e = m.entries[row][c]
                if not e.is_zero:
                    term = e * minor(row + 1, cols[:k] + cols[k + 1 :])
                    acc = acc - term if k % 2 else acc + term
            memo[cols] = acc
        return acc

    return minor(0, tuple(range(m.n)))


def reference_keller(f: PolyMap) -> bool:
    return reference_det(jacobian_matrix(f)) == MultiPoly.constant(f.ring, f.nvars, 1)


def var(ring, n, i):
    return MultiPoly.variable(ring, n, i)


def _random_poly(ring, nvars, rng, max_exp=3, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exp = tuple(rng.randrange(0, max_exp + 1) for _ in range(nvars))
        terms[exp] = ring.random_element(rng)
    return MultiPoly(ring, nvars, terms)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_det_poly_matrix_matches_reference(name):
    ring = RINGS[name]
    rng = random.Random(f"det-{name}")
    for n in range(1, 6):
        for _ in range(3):
            nvars = rng.randrange(1, 4)
            m = PolyMatrix([[_random_poly(ring, nvars, rng) for _ in range(n)] for _ in range(n)])
            assert det_poly_matrix(m) == reference_det(m)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_is_keller_matches_reference(name):
    ring = RINGS[name]
    rng = random.Random(f"keller-{name}")
    for n in range(1, 6):
        keller = random_triangular_keller(ring, n, 2, rng, conjugate=n < 4)
        perturbed = PolyMap(
            [keller.components[0] + _random_poly(ring, n, rng, max_exp=2, max_terms=2)]
            + list(keller.components[1:])
        )
        for f in (keller, perturbed):
            fresh = PolyMap(f.components)
            assert is_keller(fresh) == reference_keller(f)
        assert is_keller(PolyMap(keller.components))


def test_huge_exponents_need_no_repacking():
    big = 2**40
    for ring in (truncated_zp(3, 2), truncated_fpt(2, 3), build_unramified(2, 2, 2)):
        x1, x2 = var(ring, 2, 0), var(ring, 2, 1)
        m = PolyMatrix([[x1**big + x2, x2**3], [x1 * x2**big, x1**big + MultiPoly.constant(ring, 2, 1)]])
        d = det_poly_matrix(m)
        assert d == reference_det(m)
        assert max(e[0] for e in d.terms) == 2 * big and max(e[1] for e in d.terms) == big + 3
        assert is_keller(PolyMap([x1 + x2**big, x2]))
    # d/dX1 of X1^(2^40) is 2^40 X1^(2^40 - 1): zero mod 8 and mod 2, not mod 9
    for ring, keller in ((truncated_zp(2, 3), True), (truncated_fpt(2, 3), True), (truncated_zp(3, 2), False)):
        x1, x2 = var(ring, 2, 0), var(ring, 2, 1)
        assert is_keller(PolyMap([x1 + x1**big, x2])) is keller
    z = truncated_zp(5, 2)
    x1 = var(z, 1, 0)
    assert not is_keller(PolyMap([x1**1000000000]))
    assert det_poly_matrix(jacobian_matrix(PolyMap([x1**1000000000]))) == (
        x1**999999999).scale(1000000000)


def test_products_that_vanish_mod_the_ring():
    z = truncated_zp(2, 3)
    x1, x2 = var(z, 2, 0), var(z, 2, 1)
    c = MultiPoly.constant
    m = PolyMatrix([[x1.scale(2), x2.scale(4)], [x1.scale(4), x2.scale(2)]])
    assert det_poly_matrix(m) == (x1 * x2).scale(4) == reference_det(m)
    m = PolyMatrix([[x1.scale(4), c(z, 2, 2)], [c(z, 2, 0), x2.scale(2)]])
    assert det_poly_matrix(m).is_zero and reference_det(m).is_zero
    e = truncated_fpt(5, 3)
    t, t2 = e.from_coeffs((0, 1)), e.from_coeffs((0, 0, 1))
    y1, y2 = var(e, 2, 0), var(e, 2, 1)
    m = PolyMatrix([[y1.scale(t), c(e, 2, 1)], [c(e, 2, 0), y2.scale(t2)]])
    assert det_poly_matrix(m).is_zero and reference_det(m).is_zero
    # det J(X1 + 2 X2^2, X2 + 2 X1^2) = 1 - 16 X1 X2: Keller mod 8, not mod 32
    for ring, keller in ((z, True), (truncated_zp(2, 5), False)):
        x1, x2 = var(ring, 2, 0), var(ring, 2, 1)
        f = PolyMap([x1 + (x2**2).scale(2), x2 + (x1**2).scale(2)])
        assert is_keller(f) is keller is reference_keller(f)


@pytest.mark.parametrize("name", ["zp", "fpt", "unram"])
def test_map_compose_carries_a_keller_verdict(name):
    ring = RINGS[name]
    rng = random.Random(f"compose-{name}")
    for n in (1, 2, 3):
        f = random_triangular_keller(ring, n, 2, rng, conjugate=True)
        g = random_affine_keller(ring, n, rng).as_poly_map()
        assert g.cached_keller is True and is_keller(PolyMap(g.components))
        for a, b in ((f, g), (g, f), (f, f)):
            out = map_compose(a, b)
            assert out.cached_keller is True
            assert is_keller(PolyMap(out.components)) is True
        uncached = PolyMap(f.components)
        assert map_compose(uncached, g).cached_keller is None
        assert map_compose(g, uncached).cached_keller is None
        not_keller = PolyMap([c.scale(ring.p) for c in f.components])
        assert not is_keller(not_keller)
        assert map_compose(not_keller, g).cached_keller is None


def test_is_keller_matches_sympy_determinant_mod_pN():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy")
    for ring in (truncated_zp(5, 3), truncated_zp(2, 4), truncated_zp(7, 2)):
        mod = ring.p**ring.precision
        for n in (1, 2, 3, 4):
            keller = random_triangular_keller(ring, n, 2, rng, conjugate=True)
            perturbed = PolyMap(
                [keller.components[0] + _random_poly(ring, n, rng, max_exp=2, max_terms=2)]
                + list(keller.components[1:])
            )
            xs = sympy.symbols(f"x1:{n + 1}")
            for f in (keller, perturbed):
                comps = [
                    sum(c.val * sympy.Mul(*(x**k for x, k in zip(xs, e))) for e, c in g.terms.items())
                    for g in f.components
                ]
                jac = sympy.Matrix([[sympy.diff(c, x) for x in xs] for c in comps])
                det = sympy.Poly(jac.det(method="berkowitz"), *xs)
                want = {e: int(c) % mod for e, c in det.terms() if int(c) % mod}
                got = det_poly_matrix(jacobian_matrix(f))
                assert {e: c.val for e, c in got.terms.items()} == want
                assert is_keller(PolyMap(f.components)) == (want == {(0,) * n: 1})
