import itertools
import random

import pytest

from kellermaps.constructions import (
    char_p_counterexample,
    coordinates_of_point,
    find_d_unimodular_extension,
    g_composition_example,
    g_composition_zero_defect,
    invariance_probe,
    pair_transitivity,
    quasi_druzkowski_map,
    quasi_druzkowski_witness,
    restrict_scalars,
)
from kellermaps.errors import (
    NonSingular,
    NotUnimodularVector,
    PreconditionFailed,
    WrongCharacteristic,
    WrongRingKind,
)
from kellermaps.jacobian import AffineKellerAuto, det_scalar, is_keller, translate_map
from kellermaps.polynomials import MultiPoly, PolyMap, map_compose
from kellermaps.rings import build_unramified, truncated_fpt, truncated_zp
from kellermaps.unimodular import (
    VERDICT_NOT_UNIMODULAR,
    VERDICT_UNIMODULAR,
    check_unimodular,
    random_triangular_keller,
)


def var(ring, n, i):
    return MultiPoly.variable(ring, n, i)


# -- quasi-Druzkowski -------------------------------------------------------


def test_druzkowski_witness_example():
    w = quasi_druzkowski_witness([[0, 0], [1, 0]], 5, 3)
    assert w.u == (0, 1)
    assert [x.val for x in w.point] == [5, 1]
    assert w.combination_is_zero
    # F = (X1 + X2^3, X2): F(5, 1) = (6, 1), both coordinates units
    values = w.map.eval(w.point)
    assert values[w.image_unit_index].is_unit


def test_druzkowski_zero_matrix():
    w = quasi_druzkowski_witness([[0, 0], [0, 0]], 5, 2)
    assert w.u == (1, 0)
    assert [x.val for x in w.point] == [1, 5]
    assert w.map == PolyMap.identity(truncated_zp(5, 2), 2)


def test_druzkowski_rejects_invertible():
    with pytest.raises(NonSingular, match="det B != 0: no kernel witness exists"):
        quasi_druzkowski_witness([[1, 0], [0, 1]], 5, 2)


def _random_singular_matrix(rng, n):
    b = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    style = rng.randrange(3)
    if style == 0:
        b[i] = list(b[j])
    elif style == 1:
        b[i] = [0] * n
    else:
        b[i] = [-x for x in b[j]]
    return b


def test_druzkowski_random_suite():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randrange(2, 5)
        b = _random_singular_matrix(rng, n)
        p = rng.choice([5, 7])
        w = quasi_druzkowski_witness(b, p, 2)
        assert w.combination_is_zero
        assert any(x % p != 0 for x in w.u)
        values = w.map.eval(w.point)
        assert any(v.is_unit for v in values)


def test_druzkowski_map_shape():
    z = truncated_zp(5, 2)
    f = quasi_druzkowski_map([[0, 0], [1, 0]], z)
    assert f == PolyMap([var(z, 2, 0) + var(z, 2, 1) ** 3, var(z, 2, 1)])


# -- characteristic-p examples ----------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 2), (5, 2), (3, 1)])
def test_char_p_counterexample(p, n):
    f = char_p_counterexample(p, n, 2)
    assert is_keller(f)
    report = check_unimodular(f)
    assert report.verdict == VERDICT_NOT_UNIMODULAR
    assert report.zero_count == p**n


def test_char_p_rejects_mixed_characteristic():
    with pytest.raises(WrongCharacteristic):
        char_p_counterexample(5, 2, 2, ring=truncated_zp(5, 2))


def test_g_example_true_claims():
    f = g_composition_example(2, 2)
    assert is_keller(f)
    report = check_unimodular(f)
    assert report.verdict == VERDICT_UNIMODULAR
    assert [x.val for x in report.witness] == [0, 0]
    assert [x.val for x in report.witness_value] == [4, 4]
    # residue table of one component: {0..3} -> 4 and 4 -> 0
    res = f.reduce_to_residue()
    k = res.ring
    col = {a: res.components[0].eval((k(a), k(0))).val for a in range(5)}
    assert col == {0: 4, 1: 4, 2: 4, 3: 4, 4: 0}


def test_g_example_composition_defect_is_pinned():
    # The composition F o F is NOT the residue zero function: it vanishes at
    # the 16 points with coordinates in {0..3} and is nonzero at the other 9,
    # which it sends to their 4-coordinates (so (1, 4) -> (0, 4)); it fixes
    # only the 4 points with coordinates in {0, 4}.
    f = g_composition_example(2, 2)
    defect = g_composition_zero_defect(f)
    assert defect["zeros"] == 16
    assert defect["nonzeros"] == 9
    assert [x.val for x in defect["first_nonzero"]] == [0, 4]


def test_g_example_rejects_mixed_characteristic():
    with pytest.raises(WrongCharacteristic):
        g_composition_example(2, 2, ring=truncated_zp(5, 2))


# -- restriction of scalars --------------------------------------------------


def test_restrict_identity():
    u = build_unramified(3, 2, 1)
    g = restrict_scalars(PolyMap.identity(u, 2))
    assert g == PolyMap.identity(truncated_zp(3, 1), 4)


def test_restrict_linear_acts_blockwise():
    u = build_unramified(3, 2, 1)
    f = PolyMap([var(u, 2, 0) + var(u, 2, 1), var(u, 2, 1)])
    g = restrict_scalars(f)
    z = truncated_zp(3, 1)
    expected = PolyMap(
        [
            var(z, 4, 0) + var(z, 4, 2),
            var(z, 4, 1) + var(z, 4, 3),
            var(z, 4, 2),
            var(z, 4, 3),
        ]
    )
    assert g == expected


def test_restrict_square_correspondence_exhaustive():
    u = build_unramified(3, 2, 1)
    f = PolyMap([var(u, 2, 0) ** 2, var(u, 2, 1)])
    g = restrict_scalars(f)
    for pt in itertools.product(list(u.elements()), repeat=2):
        assert coordinates_of_point(f.eval(pt)) == g.eval(coordinates_of_point(pt))


def test_restrict_preserves_keller():
    rng = random.Random(14)
    u = build_unramified(3, 2, 1)
    for _ in range(10):
        f = random_triangular_keller(u, 2, 2, rng)
        g = restrict_scalars(f)
        assert is_keller(g)


def test_restrict_needs_unramified():
    with pytest.raises(WrongRingKind):
        restrict_scalars(PolyMap.identity(truncated_zp(3, 2), 2))


# -- pair transitivity ---------------------------------------------------------


def test_pair_transitivity_identity_case():
    z = truncated_zp(5, 2)
    w = pair_transitivity(
        (z(0), z(0)), (z(1), z(0)), (z(0), z(0)), (z(1), z(0))
    )
    assert w.auto.apply((z(0), z(0))) == (z(0), z(0))
    assert w.auto.apply((z(1), z(0))) == (z(1), z(0))


def test_pair_transitivity_random():
    rng = random.Random(55)
    for ring in (truncated_zp(2, 2), truncated_zp(3, 2)):
        for _ in range(25):
            n = rng.randrange(2, 4)
            c = tuple(ring.random_element(rng) for _ in range(n))
            a1 = tuple(ring.random_element(rng) for _ in range(n))
            du = _unimodular_vector(ring, n, rng)
            dt = _unimodular_vector(ring, n, rng)
            d = tuple(x + y for x, y in zip(c, du))
            a2 = tuple(x + y for x, y in zip(a1, dt))
            w = pair_transitivity(a1, a2, c, d)
            assert w.auto.apply(c) == a1
            assert w.auto.apply(d) == a2
            assert det_scalar(w.auto.a) == ring.one


def _unimodular_vector(ring, n, rng):
    v = [ring.random_element(rng) for _ in range(n)]
    if not any(x.is_unit for x in v):
        v[rng.randrange(n)] = ring.random_unit(rng)
    return tuple(v)


def test_pair_transitivity_requires_unimodular_differences():
    z = truncated_zp(5, 2)
    with pytest.raises(NotUnimodularVector):
        pair_transitivity((z(0), z(0)), (z(5), z(10)), (z(0), z(0)), (z(1), z(0)))


# -- extension finder -----------------------------------------------------------


@pytest.mark.parametrize("p,d,expected_n", [(2, 1, 1), (2, 3, 2), (5, 4, 1)])
def test_find_extension_examples(p, d, expected_n):
    r = find_d_unimodular_extension(p, d, 2)
    assert r.n == expected_n
    assert r.residue_size > d
    assert r.certificate_holds


def test_find_extension_certificate_values():
    r = find_d_unimodular_extension(2, 3, 2)
    assert (r.certificate_lhs, r.certificate_rhs) == (9, 16)


# -- invariance probe ------------------------------------------------------------


def test_probe_identity_passes():
    z = truncated_zp(3, 2)
    report = invariance_probe(PolyMap.identity(z, 2), trials=5, seed=3)
    assert report.all_passed


def test_probe_requires_unimodular_keller():
    e = truncated_fpt(3, 2)
    bad = PolyMap([var(e, 2, i) - var(e, 2, i) ** 3 for i in range(2)])
    with pytest.raises(PreconditionFailed):
        invariance_probe(bad, trials=1, seed=0)


def test_probe_catches_translation_failure():
    # F_j = 1 - X_j^p + X_j over GF(p)[T]/T^2: F - F(1,...,1) = (X_j - X_j^p)
    e = truncated_fpt(3, 2)
    comps = [
        MultiPoly.constant(e, 2, 1) - var(e, 2, i) ** 3 + var(e, 2, i) for i in range(2)
    ]
    f = PolyMap(comps)
    rep = check_unimodular(translate_map(f, (1, 1)))
    assert rep.verdict == VERDICT_NOT_UNIMODULAR
    assert rep.zero_count == 9
    report = invariance_probe(f, trials=6, seed=12)
    assert any(fail.kind == "translation" for fail in report.failures)


def test_probe_gmap_composition_is_not_a_failure():
    # The g-map composition F o Id o F stays unimodular (g(g(4)) = 4), so
    # the probe finds no composition failure through the identity.
    f = g_composition_example(1, 2)
    g = AffineKellerAuto.identity(f.ring, 1)
    rep = check_unimodular(map_compose(f, map_compose(g.as_poly_map(), f)))
    assert rep.verdict == VERDICT_UNIMODULAR
    assert [x.val for x in rep.witness] == [4]


def test_probe_is_reproducible():
    z = truncated_zp(3, 2)
    f = PolyMap.identity(z, 2)
    a = invariance_probe(f, trials=4, seed=9)
    b = invariance_probe(f, trials=4, seed=9)
    assert a == b
