import itertools
import random

import pytest

from kellermaps import unimodular
from kellermaps.errors import (
    BudgetExceeded,
    DegenerateComponent,
    PreconditionFailed,
)
from kellermaps.jacobian import repeat_map
from kellermaps.polynomials import MultiPoly, PolyMap
from kellermaps.rings import (
    build_unramified,
    enumerate_residue_points,
    eval_int_poly,
    residue_field,
    truncated_fpt,
    truncated_zp,
)
from kellermaps.unimodular import (
    VERDICT_BUDGET_EXCEEDED,
    VERDICT_NOT_UNIMODULAR,
    VERDICT_UNIMODULAR,
    bezout_check,
    certify_q_minus_1,
    check_unimodular,
    degree_bound_predicate,
    dim2_refinement_check,
    random_triangular_keller,
    residue_zero_count,
)


def var(ring, n, i):
    return MultiPoly.variable(ring, n, i)


def frobenius_deficit_map(ring, n, d=None):
    d = d if d is not None else ring.p
    return PolyMap([var(ring, n, i) - var(ring, n, i) ** d for i in range(n)])


def g_map(ring, n):
    comps = []
    for i in range(n):
        x = var(ring, n, i)
        x5 = x**5
        g = -MultiPoly.constant(ring, n, 1) + x5 - x5**2 + x5**3 - x5**4
        comps.append(x - x5 + g)
    return PolyMap(comps)


def test_reduce_map_examples():
    z = truncated_zp(5, 2)
    assert PolyMap.identity(z, 2).reduce_to_residue() == PolyMap.identity(residue_field(5), 2)
    e = truncated_fpt(5, 2)
    f = frobenius_deficit_map(e, 2)
    red = f.reduce_to_residue()
    assert red == frobenius_deficit_map(residue_field(5), 2)
    # all coefficients in the maximal ideal reduce to the zero map
    t = e.uniformizer()
    hidden = PolyMap([var(e, 2, i).scale(t) for i in range(2)])
    assert all(c.is_zero for c in hidden.reduce_to_residue().components)


def test_counterexample_report():
    e = truncated_fpt(5, 2)
    f = frobenius_deficit_map(e, 2)
    report = check_unimodular(f)
    assert report.keller is True
    assert report.verdict == VERDICT_NOT_UNIMODULAR
    assert report.zero_count == 25
    assert report.points_checked == 25
    assert report.witness is None


def test_identity_witness_is_least_nonzero_point():
    z = truncated_zp(3, 2)
    report = check_unimodular(PolyMap.identity(z, 2))
    assert report.verdict == VERDICT_UNIMODULAR
    assert [x.val for x in report.witness] == [0, 1]
    assert report.points_checked == 2
    assert report.zero_count == 1


def test_g_map_witness_at_origin():
    e = truncated_fpt(5, 2)
    report = check_unimodular(g_map(e, 2))
    assert report.verdict == VERDICT_UNIMODULAR
    assert [x.val for x in report.witness] == [0, 0]
    assert [x.val for x in report.witness_value] == [4, 4]


def test_budget_exceeded_is_a_verdict():
    e = truncated_fpt(5, 2)
    report = check_unimodular(frobenius_deficit_map(e, 2), budget=10)
    assert report.verdict == VERDICT_BUDGET_EXCEEDED
    assert report.points_checked == 0
    assert report.required_points == 25


def test_report_matches_brute_force_least_witness():
    e = truncated_fpt(3, 2)
    maps = [frobenius_deficit_map(e, 2), PolyMap.identity(e, 2), g_map(truncated_fpt(5, 2), 2)]
    for f in maps:
        k = f.ring.residue_ring()
        q = k.element_count
        expected = None
        for rank, digits in enumerate(itertools.product(range(q), repeat=f.nvars)):
            pt = tuple(k.from_index(d) for d in digits)
            value = f.eval(pt)
            if any(not v.is_zero for v in value):
                expected = (pt, value, rank)
                break
        report = check_unimodular(f)
        if expected is None:
            assert report.witness is None and report.witness_value is None
            assert report.points_checked == report.zero_count == q**f.nvars
        else:
            pt, value, rank = expected
            assert report.witness == pt
            assert report.witness_value == value
            assert report.points_checked == rank + 1
            assert report.zero_count == rank


def test_residue_zero_count_examples():
    z = truncated_zp(3, 2)
    assert residue_zero_count(PolyMap.identity(z, 2)) == 1
    f5 = residue_field(5)
    assert residue_zero_count(frobenius_deficit_map(f5, 2)) == 25
    f3 = residue_field(3)
    tri = PolyMap([var(f3, 2, 0) + var(f3, 2, 1) ** 2, var(f3, 2, 1)])
    assert residue_zero_count(tri) == 1


def test_residue_zero_count_extension_prime_base():
    # X - X^5 vanishes on GF(5) but at only 5 points of GF(25)
    f5 = residue_field(5)
    f = frobenius_deficit_map(f5, 1)
    assert residue_zero_count(f, 1) == 5
    assert residue_zero_count(f, 2) == 5


def test_residue_zero_count_extension_of_extension_field():
    # over GF(4): X - X^4 vanishes everywhere on GF(4), at 4 points of GF(16)
    f4 = residue_field(2, 2)
    f = frobenius_deficit_map(f4, 1, d=4)
    assert residue_zero_count(f, 1) == 4
    assert residue_zero_count(f, 2) == 4


def test_residue_zero_count_checks_budget_before_building_the_extension(monkeypatch):
    # 4^8 points of GF(4^8): the budget verdict must come before GF(2^16) is
    # built and searched for a root of the GF(4) modulus
    def no_extension(*args):
        raise AssertionError("extension field built despite the budget")

    monkeypatch.setattr(unimodular, "residue_field", no_extension)
    f = frobenius_deficit_map(residue_field(2, 2), 1, d=4)
    with pytest.raises(BudgetExceeded) as info:
        residue_zero_count(f, 8, budget=10)
    assert (info.value.required, info.value.budget) == (65536, 10)
    assert str(info.value) == "enumeration of 65536 points exceeds budget 10"
    with pytest.raises(BudgetExceeded):
        bezout_check(f, 8, budget=10)


@pytest.mark.parametrize("ring", [truncated_zp(3, 2), build_unramified(2, 2, 1)])
def test_residue_zero_count_extension_degree_2_matches_eval(ring):
    # oracle: embed the coefficients by hand and count with PolyMap.eval
    k = ring.residue_ring()
    big = residue_field(k.p, 2 * k.residue_degree)
    if k.residue_degree == 1:
        embed = lambda c: big.from_int(c.val)  # noqa: E731
    else:
        root = next(x for x in big.elements() if eval_int_poly(k.modulus, x).is_zero)
        embed = lambda c: eval_int_poly(c.val, root)  # noqa: E731
    rng = random.Random(11)
    for _ in range(4):
        f = random_triangular_keller(ring, 2, 3, rng)
        res = f.reduce_to_residue()
        lifted = PolyMap(
            [MultiPoly(big, 2, {e: embed(c) for e, c in comp.terms.items()})
             for comp in res.components]
        )
        expected = sum(
            1 for pt in enumerate_residue_points(big, 2)
            if all(v.is_zero for v in lifted.eval(pt))
        )
        assert residue_zero_count(f, 2) == expected


def test_residue_zero_count_budget():
    f5 = residue_field(5)
    with pytest.raises(BudgetExceeded):
        residue_zero_count(frobenius_deficit_map(f5, 2), 2, budget=100)


def test_bezout_examples():
    z = truncated_zp(3, 2)
    b = bezout_check(PolyMap.identity(z, 2))
    assert (b.bound, b.count, b.satisfied) == (1, 1, True)

    f3 = residue_field(3)
    tri = PolyMap([var(f3, 2, 0) + var(f3, 2, 1) ** 2, var(f3, 2, 1)])
    b = bezout_check(tri)
    assert (b.bound, b.count, b.satisfied) == (2, 1, True)

    f5 = residue_field(5)
    b = bezout_check(frobenius_deficit_map(f5, 2))
    assert (b.bound, b.count, b.satisfied) == (25, 25, True)


def test_bezout_degenerate_component():
    e = truncated_fpt(3, 2)
    t = e.uniformizer()
    f = PolyMap([var(e, 2, 0).scale(t), var(e, 2, 1)])
    with pytest.raises(DegenerateComponent):
        bezout_check(f)


def test_certify_q_minus_1():
    z = truncated_zp(5, 2)
    cert = certify_q_minus_1(PolyMap.identity(z, 2))
    assert cert.witness is not None
    assert cert.residue_degree_bound == 4

    e = truncated_fpt(5, 2)
    with pytest.raises(PreconditionFailed):
        certify_q_minus_1(frobenius_deficit_map(e, 2))  # degree 5 > q-1 = 4


def test_certify_q_minus_1_requires_keller():
    z = truncated_zp(5, 2)
    f = PolyMap([var(z, 2, 0).scale(2), var(z, 2, 1)])
    with pytest.raises(PreconditionFailed):
        certify_q_minus_1(f)


def test_q_minus_1_theorem_random_suite():
    rng = random.Random(2024)
    for ring, deg in ((truncated_zp(3, 2), 2), (truncated_zp(5, 2), 4), (build_unramified(2, 2, 2), 3)):
        for _ in range(50):
            f = random_triangular_keller(ring, 2, deg, rng, conjugate=rng.random() < 0.3)
            cert = certify_q_minus_1(f)
            assert cert.report.verdict == VERDICT_UNIMODULAR
            assert residue_zero_count(f) < ring.q**2


def test_dim2_refinement():
    z = truncated_zp(3, 2)
    f = PolyMap([var(z, 2, 0) + var(z, 2, 1) ** 2, var(z, 2, 1)])
    cert = dim2_refinement_check(f)
    assert cert.zero_count == 1
    assert cert.min_degree == 1
    assert cert.witness is not None

    ident = PolyMap.identity(truncated_zp(5, 2), 2)
    cert = dim2_refinement_check(ident)
    assert cert.zero_count == 1 and cert.min_degree == 1


def test_dim2_refinement_preconditions():
    e = truncated_fpt(3, 2)
    with pytest.raises(PreconditionFailed):
        dim2_refinement_check(frobenius_deficit_map(e, 2, d=3))
    z = truncated_zp(3, 2)
    with pytest.raises(PreconditionFailed):
        dim2_refinement_check(PolyMap.identity(z, 3))


def test_degree_bound_examples():
    r = degree_bound_predicate(5, 82, 2)
    assert abs(r.rhs - 5.252772469786528) < 1e-9
    assert r.holds
    r = degree_bound_predicate(5, 4, 1)
    assert abs(r.rhs - 0.895220465168444) < 1e-9
    assert not r.holds
    assert degree_bound_predicate(5, 4, 0).holds  # inner value below 1 but d = 0 passes
    # float and exact verdicts agree at the boundary floor(rhs)
    assert degree_bound_predicate(5, 82, 5).holds
    assert not degree_bound_predicate(5, 82, 6).holds


def test_degree_bound_large_d_returns_at_once():
    # 3^(2^40 + 2) is never built: 2^40 alone exceeds the bit length of 7^2
    assert not degree_bound_predicate(7, 2, 40).holds
    assert not degree_bound_predicate(101, 6, 10**6).holds


def test_degree_bound_matches_exact_comparison_on_a_grid():
    for p in (5, 7, 11, 13, 101):
        for n in range(1, 7):
            # past the bit-length switch d = bit_length(n * bitlen(p)) too
            for d in range((n * p.bit_length()).bit_length() + 3):
                exact = 3 ** (2**d + n) <= p**n
                assert degree_bound_predicate(p, n, d).holds == exact, (p, n, d)
    # both verdicts at the boundary floor(rhs) of a large dimension
    assert degree_bound_predicate(5, 82, 5).holds
    assert not degree_bound_predicate(5, 82, 6).holds


def test_degree_bound_preconditions():
    with pytest.raises(PreconditionFailed):
        degree_bound_predicate(3, 4, 1)
    with pytest.raises(PreconditionFailed):
        degree_bound_predicate(5, 0, 1)


def test_verdict_invariant_under_repetition():
    e = truncated_fpt(3, 2)
    f = frobenius_deficit_map(e, 2)
    assert check_unimodular(f).verdict == check_unimodular(repeat_map(f, 2)).verdict

    rng = random.Random(5)
    z = truncated_zp(3, 2)
    for _ in range(10):
        g = random_triangular_keller(z, 2, 2, rng)
        assert check_unimodular(g).verdict == check_unimodular(repeat_map(g, 2)).verdict


def test_certificate_flags_in_report():
    z = truncated_zp(5, 2)
    report = check_unimodular(PolyMap.identity(z, 2))
    assert report.certificates["q_minus_1"] is True
    assert report.certificates["dim2_refinement"] is True
    # d = 0 still fails the bound at n = 2 (3^3 > 5^2) but holds at n = 3
    assert report.certificates["d_bound"] is False
    report3 = check_unimodular(PolyMap.identity(z, 3))
    assert report3.certificates["d_bound"] is True

    e = truncated_fpt(5, 2)
    rep = check_unimodular(frobenius_deficit_map(e, 2))
    assert rep.certificates["q_minus_1"] is False
    assert rep.certificates["dim2_refinement"] is False
    assert rep.certificates["d_bound"] is False


def test_report_serialization_is_flat():
    z = truncated_zp(3, 2)
    doc = check_unimodular(PolyMap.identity(z, 2)).to_dict()
    assert doc["verdict"] == VERDICT_UNIMODULAR
    assert doc["witness"] == "0,1"
    assert doc["ring"] == "Z/3^2"
    assert isinstance(doc["map_digest"], str)
    for value in doc.values():
        assert value is None or isinstance(value, (str, int, bool))
