"""Constructive gadgets: cubic-form witnesses, characteristic-p
counterexamples, restriction of scalars, SL completion with pair
transitivity, extension search and the invariance probe.

The cubic-form witness solves the homogeneous system over the exact
rationals (fraction-free elimination with big integers), clears
denominators, strips the p-content so some coordinate is a p-adic unit,
and evaluates the resulting map at the point with 1 at that coordinate
and p elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .errors import (
    DegenerateKernel,
    InvalidInput,
    NonSingular,
    NotUnimodularVector,
    PreconditionFailed,
    TheoremViolation,
    WrongCharacteristic,
    WrongRingKind,
)
from .jacobian import (
    AffineKellerAuto,
    adjugate_scalar,
    check_det_size,
    complete_to_sl,
    is_keller,
    map_compose,
    mat_mul,
    mat_vec,
    random_affine_keller,
    translate_map,
)
from .polynomials import MultiPoly, PolyMap, ResidueMap, residue_values
from .rings import (
    DEFAULT_BUDGET,
    EQUAL,
    UNRAMIFIED,
    Record,
    Ring,
    RingElement,
    build_unramified,
    point_text,
    truncated_fpt,
    truncated_zp,
)
from .unimodular import VERDICT_UNIMODULAR, check_unimodular


# ---------------------------------------------------------------------------
# quasi-Druzkowski witnesses: F = X + H with H_j = sum_k B[k][j] X_k^3


def _rational_kernel_vector(b: Sequence[Sequence[int]]) -> list:
    """A nonzero rational solution of B u = 0, exact arithmetic."""
    n = len(b)
    m = [[Fraction(x) for x in row] for row in b]
    pivots = {}  # column -> row
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots[col] = row
        row += 1
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        raise NonSingular("det B != 0: no kernel witness exists")
    u = [Fraction(0)] * n
    u[free] = Fraction(1)
    for col, r in pivots.items():
        u[col] = -m[r][free]
    return u


def quasi_druzkowski_map(b: Sequence[Sequence[int]], ring: Ring) -> PolyMap:
    """The map X + H with H_j = sum_k B[k][j] X_k^3 over `ring`."""
    n = len(b)
    comps = []
    for j in range(n):
        f = MultiPoly.variable(ring, n, j)
        for k in range(n):
            if b[k][j]:
                exp = tuple(3 if i == k else 0 for i in range(n))
                f = f + MultiPoly(ring, n, {exp: ring(b[k][j])})
        comps.append(f)
    return PolyMap(comps)


class QuasiDruzkowskiWitness(Record):
    __slots__ = (
        "u",  # integer kernel vector with a p-unit coordinate
        "unit_index",  # index where u is a unit
        "point",  # 1 at unit_index, p elsewhere
        "map",
        "combination_is_zero",  # sum u_j H_j = 0, checked symbolically
        "image_unit_index",  # some F_j(point) is a unit
        "report",
    )


def quasi_druzkowski_witness(
    b: Sequence[Sequence[int]], p: int, precision: int
) -> QuasiDruzkowskiWitness:
    n = len(b)
    if any(len(row) != n for row in b):
        raise InvalidInput("coefficient matrix must be square")
    u_rat = _rational_kernel_vector(b)
    denom = math.lcm(*(f.denominator for f in u_rat))
    u = [int(f * denom) for f in u_rat]
    content = math.gcd(*u)
    u = [x // content for x in u]
    # dividing by the full content already strips the p-part, so some
    # coordinate is a p-adic unit
    unit_index = next((i for i, x in enumerate(u) if x % p != 0), None)
    if unit_index is None:
        raise DegenerateKernel("kernel vector has no p-unit coordinate")
    ring = truncated_zp(p, precision)
    f = quasi_druzkowski_map(b, ring)
    # sum_j u_j H_j = sum_j u_j (F_j - X_j): must be the zero polynomial
    combo = MultiPoly.zero(ring, n)
    for j in range(n):
        h = f.components[j] - MultiPoly.variable(ring, n, j)
        combo = combo + h.scale(ring(u[j]))
    exact = all(
        sum(b[k][j] * u[j] for j in range(n)) == 0 for k in range(n)
    )
    point = tuple(ring(1) if i == unit_index else ring(p) for i in range(n))
    values = f.eval(point)
    image_unit = next((i for i, v in enumerate(values) if v.is_unit), None)
    if image_unit is None:
        raise DegenerateKernel("witness image has no unit coordinate")
    return QuasiDruzkowskiWitness(
        u=tuple(u),
        unit_index=unit_index,
        point=point,
        map=f,
        combination_is_zero=combo.is_zero and exact,
        image_unit_index=image_unit,
        report=check_unimodular(f),
    )


# ---------------------------------------------------------------------------
# characteristic-p examples


def _equal_char_ring(p: int, precision: int, ring: Optional[Ring]) -> Ring:
    if ring is None:
        return truncated_fpt(p, precision)
    if ring.kind != EQUAL:
        raise WrongCharacteristic(
            f"{ring.describe()} is not an equal-characteristic truncation"
        )
    if ring.p != p or ring.precision != precision:
        raise InvalidInput("ring parameters disagree with the request")
    return ring


def char_p_counterexample(
    p: int, n: int, precision: int, ring: Optional[Ring] = None
) -> PolyMap:
    """The Keller map (X_1 - X_1^p, ..., X_n - X_n^p) whose residue map is
    the zero function: every residue point is a Frobenius fixed point."""
    owner = _equal_char_ring(p, precision, ring)
    check_det_size(n)
    comps = []
    for i in range(n):
        x = MultiPoly.variable(owner, n, i)
        comps.append(x - x**p)
    f = PolyMap(comps)
    if not is_keller(f):  # pragma: no cover - derivative of X^p vanishes
        raise WrongCharacteristic("construction requires characteristic p")
    return f


def g_example_polynomial(ring: Ring, nvars: int, var: int) -> MultiPoly:
    """g(X) = -1 + X - X^2 + X^3 - X^4 in the named variable, p = 5."""
    x = MultiPoly.variable(ring, nvars, var)
    return -MultiPoly.constant(ring, nvars, 1) + x - x**2 + x**3 - x**4


def g_composition_example(
    n: int, precision: int, ring: Optional[Ring] = None
) -> PolyMap:
    """F_j = X_j - X_j^5 + g(X_j^5) over GF(5)[T]/T^N.

    Keller and unimodular (the residue map sends the origin to
    (4, ..., 4)). Note the residue map of F o F is *not* the zero
    function: since g(g(4)) = g(0) = 4 and g(g(a)) = 0 for a in {0..3},
    it is nonzero at exactly the q^n - 4^n points having some coordinate 4,
    and it fixes exactly the points whose coordinates all lie in {0, 4};
    see `g_composition_zero_defect`.
    """
    owner = _equal_char_ring(5, precision, ring)
    check_det_size(n)
    comps = []
    for i in range(n):
        x = MultiPoly.variable(owner, n, i)
        x5 = x**5
        g_of = g_example_polynomial(owner, n, i).compose([x5] * n)
        comps.append(x - x5 + g_of)
    f = PolyMap(comps)
    if not is_keller(f):  # pragma: no cover
        raise WrongCharacteristic("construction requires characteristic 5")
    return f


def g_composition_zero_defect(f: PolyMap, budget: int = DEFAULT_BUDGET) -> dict:
    """Evaluate F o F on every residue point; returns the zero/nonzero split.

    Composing the residue function with itself sends any point with a
    coordinate in {0,..,3} toward 0 but fixes coordinates equal to 4, so
    the count of nonzero values is q^n minus 4^n rather than zero.
    """
    values = residue_values(f, budget)
    apply = ResidueMap(f)
    nonzero = [pt for pt, v in values if any(apply(v))]
    return {
        "zeros": f.ring.q**f.nvars - len(nonzero),
        "nonzeros": len(nonzero),
        "first_nonzero": tuple(map(apply.field.from_index, nonzero[0])) if nonzero else None,
    }


# ---------------------------------------------------------------------------
# restriction of scalars (descent along the unramified extension)


def restrict_scalars(f: PolyMap) -> PolyMap:
    """Rewrite a map over an unramified extension of degree m as a map over
    Z/p^N in m*n variables, through the power basis 1, theta, ..., theta^{m-1}.

    Variable block i holds the coordinates of X_i; component block j holds
    the coordinates of F_j, so coords(F(x)) = G(coords(x)) pointwise.
    """
    ring = f.ring
    if ring.kind != UNRAMIFIED:
        raise WrongRingKind("restriction of scalars needs an unramified-truncated ring")
    m = ring.residue_degree
    n = f.nvars
    base = truncated_zp(ring.p, ring.precision)
    big = m * n
    theta_pows = [ring.one]
    for _ in range(m - 1):
        theta_pows.append(theta_pows[-1] * ring.theta())
    # X_i -> sum_t Y_{i,t} theta^t, as polynomials over the extension ring
    substitution = []
    for i in range(n):
        acc = MultiPoly.zero(ring, big)
        for t in range(m):
            acc = acc + MultiPoly.variable(ring, big, i * m + t).scale(theta_pows[t])
        substitution.append(acc)
    comps = []
    for j in range(n):
        expanded = f.components[j].compose(substitution)
        for t in range(m):
            terms = {}
            for exp, c in expanded.terms.items():
                coeff = c.val[t]
                if coeff:
                    terms[exp] = base(coeff)
            comps.append(MultiPoly(base, big, terms))
    return PolyMap(comps)


def coordinates_of_point(point: Sequence[RingElement]) -> tuple:
    """Flatten an extension-ring point into base-ring coordinates."""
    ring = point[0].ring
    if ring.kind != UNRAMIFIED:
        raise WrongRingKind("coordinates need an unramified-truncated ring")
    base = truncated_zp(ring.p, ring.precision)
    out = []
    for x in point:
        out.extend(base(c) for c in x.val)
    return tuple(out)


# ---------------------------------------------------------------------------
# pair transitivity via SL completion


class PairTransitivityWitness(Record):
    __slots__ = (
        "auto",
        "source",  # (c, d)
        "target",  # (a1, a2)
    )


def pair_transitivity(
    a1: Sequence[RingElement],
    a2: Sequence[RingElement],
    c: Sequence[RingElement],
    d: Sequence[RingElement],
) -> PairTransitivityWitness:
    """Affine Keller automorphism H with H(c) = a1 and H(d) = a2.

    Requires a2 - a1 and d - c to have a unit coordinate. The linear part
    maps d - c onto a2 - a1 through the two SL completions; the translation
    is then forced by H(c) = a1.
    """
    a1, a2, c, d = (tuple(v) for v in (a1, a2, c, d))
    ring = a1[0].ring
    diff_target = tuple(x - y for x, y in zip(a2, a1))
    diff_source = tuple(x - y for x, y in zip(d, c))
    if not any(x.is_unit for x in diff_target):
        raise NotUnimodularVector("a2 - a1 has no unit coordinate")
    if not any(x.is_unit for x in diff_source):
        raise NotUnimodularVector("d - c has no unit coordinate")
    a_target = complete_to_sl(diff_target)
    a_source = complete_to_sl(diff_source)
    linear = mat_mul(a_target, adjugate_scalar(a_source))
    b = tuple(x - y for x, y in zip(a1, mat_vec(linear, list(c))))
    h = AffineKellerAuto(linear, b)
    if h.apply(c) != a1 or h.apply(d) != a2:
        raise TheoremViolation("affine automorphism misses the requested pair")
    return PairTransitivityWitness(auto=h, source=(c, d), target=(a1, a2))


# ---------------------------------------------------------------------------
# extension finder


class ExtensionSearchResult(Record):
    __slots__ = (
        "ring",
        "n",
        "degree_bound",
        "residue_size",
        "certificate_lhs",  # d^n
        "certificate_rhs",  # (p^n)^n
        "certificate_holds",
    )


def find_d_unimodular_extension(p: int, d: int, precision: int) -> ExtensionSearchResult:
    """Least unramified extension whose residue field has more than d
    elements; Keller maps of degree <= d over it must then have witnesses,
    since d^n < (p^n)^n caps their residue zero count."""
    if d < 1:
        raise InvalidInput("degree bound must be >= 1")
    n = 1
    while p**n <= d:
        n += 1
    ring = build_unramified(p, n, precision)
    lhs = d**n
    rhs = (p**n) ** n
    return ExtensionSearchResult(
        ring=ring,
        n=n,
        degree_bound=d,
        residue_size=p**n,
        certificate_lhs=lhs,
        certificate_rhs=rhs,
        certificate_holds=lhs < rhs,
    )


# ---------------------------------------------------------------------------
# invariance probe


class ProbeFailure(Record):
    __slots__ = (
        "kind",  # "composition" or "translation"
        "trial",
        "detail",
        "report",
    )


class ProbeReport(Record):
    __slots__ = ("trials", "seed", "failures", "base_report")

    @property
    def all_passed(self) -> bool:
        return not self.failures


def invariance_probe(
    f: PolyMap, trials: int, seed: int, budget: int = DEFAULT_BUDGET
) -> ProbeReport:
    """Sample affine Keller automorphisms G and translation points a, and
    test whether F o G o F and F - F(a) stay unimodular.

    Trial t uses its own generator derived from (seed, t), so any failure
    replays in isolation. Over the characteristic-zero family no failures
    are expected; in characteristic p they are genuine counterexamples.
    """
    base = check_unimodular(f, budget)
    if not base.keller or base.verdict != VERDICT_UNIMODULAR:
        raise PreconditionFailed("probe needs a Keller unimodular map")
    ring = f.ring
    n = f.nvars
    failures = []
    for t in range(trials):
        rng = Random(seed * 1_000_003 + t)
        g = random_affine_keller(ring, n, rng)
        composed = map_compose(f, map_compose(g.as_poly_map(), f))
        rep = check_unimodular(composed, budget)
        if rep.verdict != VERDICT_UNIMODULAR:
            failures.append(
                ProbeFailure(
                    kind="composition",
                    trial=t,
                    detail=f"G: A={_matrix_text(g.a)} b={_vector_text(g.b)}",
                    report=rep,
                )
            )
        a = tuple(ring.random_element(rng) for _ in range(n))
        translated = translate_map(f, a)
        rep = check_unimodular(translated, budget)
        if rep.verdict != VERDICT_UNIMODULAR:
            failures.append(
                ProbeFailure(
                    kind="translation",
                    trial=t,
                    detail=f"a={_vector_text(a)}",
                    report=rep,
                )
            )
    return ProbeReport(trials=trials, seed=seed, failures=tuple(failures), base_report=base)


def _vector_text(v) -> str:
    return point_text(tuple(v))


def _matrix_text(a) -> str:
    return ";".join(_vector_text(row) for row in a)
