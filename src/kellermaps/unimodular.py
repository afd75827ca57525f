"""Unimodularity decisions by exhaustive residue search, with certificates.

A Keller map is unimodular when its induced residue map is not the zero
function. The decision enumerates residue points in canonical order; the
reported witness is always the lexicographically least point with nonzero
image, so reports are deterministic.

Degree-based certificates are attached where the hypotheses hold:
  * deg(residue map) <= q-1 forces a witness (Bezout counting),
  * in dimension 2 over the characteristic-zero family,
    min(deg F_1, deg F_2) <= q^2 - 1 forces a witness,
  * over Z/p^N with p > 3, d(F) below an explicit logarithmic bound
    forces a witness, where d counts monomials of degree > 3.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import (
    BudgetExceeded,
    DegenerateComponent,
    PreconditionFailed,
    TheoremViolation,
)
from .jacobian import AffineKellerAuto, apply_affine, is_keller, random_affine_keller
from .parsing import map_digest
from .polynomials import MultiPoly, PolyMap, least_root, residue_values
from .rings import (
    DEFAULT_BUDGET,
    MIXED,
    Record,
    Ring,
    eval_int_poly,
    point_text,
    residue_field,
)

VERDICT_UNIMODULAR = "unimodular"
VERDICT_NOT_UNIMODULAR = "not-unimodular"
VERDICT_BUDGET_EXCEEDED = "budget-exceeded"


class UnimodularityReport(Record):
    __slots__ = (
        "verdict",
        "witness",
        "witness_value",
        "points_checked",
        "zero_count",
        "bezout_bound",
        "keller",
        "certificates",
        "ring_text",
        "map_digest",
        "required_points",
        "budget",
    )

    def to_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "witness": point_text(self.witness) if self.witness else None,
            "witness_value": point_text(self.witness_value) if self.witness_value else None,
            "points_checked": self.points_checked,
            "zero_count": self.zero_count,
            "bezout_bound": self.bezout_bound,
            "keller": self.keller,
            "ring": self.ring_text,
            "map_digest": self.map_digest,
            "required_points": self.required_points,
            "budget": self.budget,
        }
        for name, flag in self.certificates.items():
            d[f"cert_{name}"] = flag
        return d


def _certificates(f: PolyMap, keller: bool) -> dict:
    ring = f.ring
    q = ring.q
    n = f.nvars
    res = f.reduce_to_residue()
    out = {
        "q_minus_1": bool(keller and res.degree != float("-inf") and res.degree <= q - 1)
    }
    dim2 = False
    if keller and n == 2 and ring.char_zero_family:
        degs = [c.total_degree for c in f.components]
        dim2 = min(degs) <= q * q - 1
    out["dim2_refinement"] = dim2
    dbound = False
    if keller and ring.kind == MIXED and ring.p > 3:
        dbound = degree_bound_predicate(ring.p, n, f.monomials_above_degree(3)).holds
    out["d_bound"] = dbound
    return out


def _bezout_bound(res: PolyMap) -> Optional[int]:
    bound = 1
    for c in res.components:
        if c.is_zero:
            return None
        bound *= int(c.total_degree)
    return bound


def check_unimodular(f: PolyMap, budget: int = DEFAULT_BUDGET) -> UnimodularityReport:
    """Decide whether the induced residue map is nonzero somewhere.

    The witness is the least nonzero point in enumeration order, so
    points_checked and zero_count are canonical: every earlier point maps
    to zero.
    """
    ring = f.ring
    keller = is_keller(f)
    res = f.reduce_to_residue()
    required = res.ring.element_count**f.nvars
    common = dict(
        bezout_bound=_bezout_bound(res),
        keller=keller,
        certificates=_certificates(f, keller),
        ring_text=ring.describe(),
        map_digest=map_digest(f),
        required_points=required,
        budget=budget,
    )
    if required > budget:
        return UnimodularityReport(
            verdict=VERDICT_BUDGET_EXCEEDED,
            witness=None,
            witness_value=None,
            points_checked=0,
            zero_count=0,
            **common,
        )
    rank, witness, value = next(
        ((i, pt, v) for i, (pt, v) in enumerate(residue_values(res, budget)) if any(v)),
        (None, None, None),
    )
    if witness is None:
        return UnimodularityReport(
            verdict=VERDICT_NOT_UNIMODULAR,
            witness=None,
            witness_value=None,
            points_checked=required,
            zero_count=required,
            **common,
        )
    k = res.ring
    return UnimodularityReport(
        verdict=VERDICT_UNIMODULAR,
        witness=tuple(map(k.from_index, witness)),
        witness_value=tuple(map(k.from_index, value)),
        points_checked=rank + 1,
        zero_count=rank,
        **common,
    )


def _extension_embedding(k: Ring, e: int):
    """The field GF(q^e) together with the embedding GF(q) -> GF(q^e).

    For a prime base field the embedding is the canonical one; otherwise
    the image of the generator is the least root of the base modulus in
    the extension (found by exhaustive scan, so the choice is canonical).
    """
    if e == 1:
        return k, lambda x: x
    big = residue_field(k.p, k.residue_degree * e)
    if k.residue_degree == 1:
        return big, lambda x: big.from_int(x.val)
    root = least_root(k.modulus, big)
    if root is None:  # pragma: no cover - splitting fields always contain a root
        raise TheoremViolation("modulus has no root in its splitting extension")
    return big, lambda x: eval_int_poly(x.val, root)


def residue_zero_count(
    f: PolyMap, extension_degree: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Number of points of GF(q^e)^n at which every residue component vanishes.

    The point count q^(e n) is checked against the budget before GF(q^e)
    and its embedding are built.
    """
    res = f.reduce_to_residue()
    n = f.nvars
    required = res.ring.q ** (extension_degree * n)
    if required > budget:
        raise BudgetExceeded(required, budget)
    big, embed = _extension_embedding(res.ring, extension_degree)
    if extension_degree > 1:
        res = PolyMap(
            [
                MultiPoly(big, n, {exp: embed(c) for exp, c in comp.terms.items()})
                for comp in res.components
            ]
        )
    return sum(1 for _, v in residue_values(res, budget) if not any(v))


class BezoutCheck(Record):
    __slots__ = ("bound", "count", "satisfied")


def bezout_check(f: PolyMap, extension_degree: int = 1, budget: int = DEFAULT_BUDGET) -> BezoutCheck:
    """count(zeros over GF(q^e)) <= product of residue component degrees."""
    res = f.reduce_to_residue()
    bound = _bezout_bound(res)
    if bound is None:
        raise DegenerateComponent("a residue component is the zero polynomial")
    count = residue_zero_count(f, extension_degree, budget)
    return BezoutCheck(bound=bound, count=count, satisfied=count <= bound)


class QMinus1Certificate(Record):
    __slots__ = ("witness", "witness_value", "residue_degree_bound", "map_degree", "report")


def certify_q_minus_1(f: PolyMap, budget: int = DEFAULT_BUDGET) -> QMinus1Certificate:
    """Certificate that a Keller map of residue degree <= q-1 has a witness.

    The bound forces the zero set to miss part of k^n, so the verified
    witness must exist; absence signals an implementation bug.
    """
    if not is_keller(f):
        raise PreconditionFailed("map is not Keller")
    q = f.ring.q
    res = f.reduce_to_residue()
    deg = res.degree
    if deg == float("-inf") or deg > q - 1:
        raise PreconditionFailed(f"residue degree {deg} exceeds q-1 = {q - 1}")
    report = check_unimodular(f, budget)
    if report.verdict != VERDICT_UNIMODULAR:
        raise TheoremViolation(
            f"Keller map of residue degree {deg} <= {q - 1} received verdict {report.verdict}"
        )
    return QMinus1Certificate(
        witness=report.witness,
        witness_value=report.witness_value,
        residue_degree_bound=q - 1,
        map_degree=int(deg),
        report=report,
    )


class Dim2Certificate(Record):
    __slots__ = ("zero_count", "min_degree", "degree_cap", "witness", "report")


def dim2_refinement_check(f: PolyMap, budget: int = DEFAULT_BUDGET) -> Dim2Certificate:
    """Dimension-2 refinement over the characteristic-zero family:
    the zero count is capped by min(deg F_1, deg F_2) <= q^2 - 1."""
    if f.nvars != 2:
        raise PreconditionFailed("refinement applies in dimension 2 only")
    if not f.ring.char_zero_family:
        raise PreconditionFailed("refinement requires the characteristic-zero family")
    if not is_keller(f):
        raise PreconditionFailed("map is not Keller")
    q = f.ring.q
    degs = [c.total_degree for c in f.components]
    if float("-inf") in degs:
        raise PreconditionFailed("zero component")
    min_deg = int(min(degs))
    cap = q * q - 1
    if min_deg > cap:
        raise PreconditionFailed(f"min degree {min_deg} exceeds q^2 - 1 = {cap}")
    count = residue_zero_count(f, 1, budget)
    if count > min_deg:
        raise TheoremViolation(f"zero count {count} exceeds min degree {min_deg}")
    report = check_unimodular(f, budget)
    if report.verdict != VERDICT_UNIMODULAR:
        raise TheoremViolation("witness missing despite zero count below q^2")
    return Dim2Certificate(
        zero_count=count,
        min_degree=min_deg,
        degree_cap=cap,
        witness=report.witness,
        report=report,
    )


class DegreeBoundResult(Record):
    __slots__ = ("rhs", "lhs", "holds")


def degree_bound_predicate(p: int, n: int, d: int) -> DegreeBoundResult:
    """Evaluate d <= log(n log(p/3)/log 3)/log 2 for a prime p > 3.

    The verdict uses the exact integer equivalence
        d <= rhs  <=>  3^(2^d + n) <= p^n,
    so boundary cases are classified exactly; the float rhs is reported
    for display only. When 2^d alone reaches the bit length of p^n the
    left side is larger, so the exact powers are built only for small d.
    """
    if p <= 3:
        raise PreconditionFailed("the bound requires p > 3")
    if n < 1 or d < 0:
        raise PreconditionFailed("need n >= 1 and d >= 0")
    inner = n * math.log(p / 3.0) / math.log(3.0)
    if inner <= 0:
        raise PreconditionFailed("inner logarithm argument is nonpositive")
    rhs = math.log(inner) / math.log(2.0)
    bits = n * p.bit_length()  # p^n < 2^bits
    if d >= bits.bit_length():  # 2^d >= bits, so 3^(2^d + n) > 2^bits
        holds = False
    else:
        holds = 3 ** (2**d + n) <= p**n
    return DegreeBoundResult(rhs=rhs, lhs=d, holds=holds)


# ---------------------------------------------------------------------------
# seeded generator used by the theorem test suites


def random_triangular_keller(
    ring: Ring,
    nvars: int,
    max_degree: int,
    rng,
    conjugate: bool = False,
) -> PolyMap:
    """Random Keller map F_i = c_i X_i + h_i(X_{i+1},...,X_n) with unit c_i,
    prod(c_i) = 1 and deg h_i <= max_degree, optionally conjugated by a
    random linear automorphism of determinant 1 (degree preserving)."""
    if max_degree < 1:
        raise PreconditionFailed("max_degree must be >= 1")
    units = [ring.random_unit(rng) for _ in range(nvars - 1)]
    prod = ring.one
    for u in units:
        prod = prod * u
    units.append(prod.inverse())
    comps = []
    for i in range(nvars):
        f = MultiPoly.variable(ring, nvars, i).scale(units[i])
        later = list(range(i + 1, nvars))
        for _ in range(rng.randrange(0, 3)):
            exp = [0] * nvars
            total = rng.randrange(0, max_degree + 1)
            for _ in range(total):
                if not later:
                    break
                exp[rng.choice(later)] += 1
            f = f + MultiPoly(ring, nvars, {tuple(exp): ring.random_element(rng)})
        comps.append(f)
    out = PolyMap(comps)
    out.cache_keller(True)
    if conjugate and nvars > 1:
        sampled = random_affine_keller(ring, nvars, rng)
        lin = AffineKellerAuto(sampled.a, [ring.zero] * nvars)
        out = apply_affine(lin.inverse(), apply_affine(lin, out, "left"), "right")
    return out
