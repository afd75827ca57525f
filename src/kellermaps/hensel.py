"""Valuation-aware Newton lifting, fiber enumeration and univariate roots.

The lift follows the classical statement: if every component of F vanishes
at alpha to order at least 2m+1, where m is the valuation of det(JF) at
alpha, then a root exists at working precision, unique in the congruence
class alpha + M^{m+1}. The Newton step solves the linear system through the
adjugate and divides by det(JF) exactly, tracking valuations; no floating
arithmetic is involved. For m > 0 the iteration runs at an internally
boosted precision so the divisions never cost digits of the final answer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    BadPrime,
    InvalidInput,
    NoRootWithinBudget,
    NotKeller,
    PreconditionFailed,
    PrecisionTooLow,
    TheoremViolation,
)
from .jacobian import adjugate_scalar, det_scalar, is_keller, jacobian_matrix, mat_vec
from .polynomials import MultiPoly, PolyMap, least_root, residue_values
from .rings import (
    DEFAULT_BUDGET,
    RESIDUE_FIELD,
    Record,
    RingElement,
    build_unramified,
    lift_from_residue,
    lift_to_precision,
    point_index,
    project_to_precision,
    residue_field,
)


class HenselLiftResult(Record):
    __slots__ = (
        "beta",
        "m",
        "iterations",
        "uniqueness_exponent",  # beta is unique in alpha + M^uniqueness_exponent
        "precision",
        "progress",  # worst component valuation after each iteration
    )

    def __iter__(self):
        return iter(self.beta)


def _div_exact(a: RingElement, b: RingElement) -> RingElement:
    """Solve y*b = a, requiring ord(a) >= ord(b); canonical least solution.

    The result is determined modulo M^{N - ord(b)}; the canonical choice
    zeroes the ambiguous digits, which is why callers divide only at a
    boosted working precision.
    """
    ring = a.ring
    m = b.ord
    if m == 0:
        return a * b.inverse()
    if a.ord < m:
        raise PreconditionFailed("division would leave the ring")
    shift = ring.arith.div_uniformizer
    unit = RingElement(ring, shift(b.val, m))
    return RingElement(ring, shift(a.val, m)) * unit.inverse()


def hensel_lift(
    f: PolyMap, alpha: Sequence, target_precision: Optional[int] = None
) -> HenselLiftResult:
    """Refine alpha to a root of F at the target precision."""
    ring = f.ring
    if ring.kind == RESIDUE_FIELD:
        raise InvalidInput("lifting needs a truncated ring, not a field")
    n_target = ring.precision if target_precision is None else target_precision
    if not 1 <= n_target <= ring.precision:
        raise InvalidInput("target precision must be within the ring precision")
    alpha = tuple(ring(x) for x in alpha)
    if len(alpha) != f.nvars:
        raise PreconditionFailed("point length does not match the map")

    jac = jacobian_matrix(f)
    j_alpha = [[e.eval(alpha) for e in row] for row in jac.entries]
    det_alpha = det_scalar(j_alpha)
    m = det_alpha.ord
    if m >= ring.precision:
        raise PreconditionFailed(
            "det JF(alpha) vanishes at working precision (m is unbounded at truncation)"
        )
    if n_target < 2 * m + 1:
        raise PrecisionTooLow(f"need precision >= {2 * m + 1} for m = {m}")
    values = f.eval(alpha)
    worst = min(v.ord for v in values)
    if worst < 2 * m + 1:
        raise PreconditionFailed(
            f"component value has ord {worst} < 2m+1 = {2 * m + 1} at alpha"
        )

    # Boosted internal precision: each Newton division by det costs m digits.
    # For m > 0 the input data only determines the root up to a sublattice of
    # M^{N-m}-small perturbations; the canonical coefficient lift makes the
    # returned representative deterministic.
    if m == 0:
        work_ring = ring
    else:
        steps = max(1, n_target.bit_length()) + 2
        work_ring = ring.with_precision(ring.precision + m * steps)
    lift = (lambda x: x) if work_ring is ring else (
        lambda x: lift_to_precision(x, work_ring)
    )
    comps = [
        MultiPoly(work_ring, f.nvars, {e: lift(c) for e, c in comp.terms.items()})
        for comp in f.components
    ]
    fw = PolyMap(comps)
    jw = jacobian_matrix(fw)
    beta = tuple(lift(x) for x in alpha)

    iterations = 0
    progress = []
    current = [c.eval(beta) for c in fw.components]
    worst = min(v.ord for v in current)
    while worst < n_target:
        j_beta = [[e.eval(beta) for e in row] for row in jw.entries]
        det = det_scalar(j_beta)
        if det.ord != m:
            raise PreconditionFailed("det JF drifted away from its starting valuation")
        correction = [_div_exact(num, det) for num in mat_vec(adjugate_scalar(j_beta), current)]
        beta = tuple(b - c for b, c in zip(beta, correction))
        iterations += 1
        current = [c.eval(beta) for c in fw.components]
        new_worst = min(min(v.ord for v in current), n_target)
        if new_worst <= worst:
            raise PreconditionFailed("no valuation progress; lift diverged")
        worst = new_worst
        progress.append(worst)

    if work_ring is not ring:
        beta = tuple(project_to_precision(x, ring) for x in beta)
    if min(v.ord for v in f.eval(beta)) < n_target:
        raise TheoremViolation("lifted point is not a root at the target precision")
    if any((b - a).ord < m + 1 for b, a in zip(beta, alpha)):
        raise TheoremViolation("lifted point left the congruence class of alpha")
    return HenselLiftResult(
        beta=beta,
        m=m,
        iterations=iterations,
        uniqueness_exponent=m + 1,
        precision=n_target,
        progress=tuple(progress),
    )


def fiber_points(
    f: PolyMap,
    c: Optional[Sequence] = None,
    require_keller: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> tuple:
    """All solutions of F(x) = c at working precision, one per residue solution.

    For a Keller map the determinant is a unit at every point, so each
    residue solution lifts uniquely; the returned tuple is canonically
    ordered and its length equals the residue solution count.
    """
    ring = f.ring
    n = f.nvars
    c = tuple(ring(x) for x in (c if c is not None else [0] * n))
    if len(c) != n:
        raise PreconditionFailed("target point length does not match the map")
    keller = is_keller(f)
    if require_keller and not keller:
        raise NotKeller("fiber bijection requires det JF = 1")
    shifted = PolyMap(
        [comp - MultiPoly.constant(ring, n, v) for comp, v in zip(f.components, c)]
    )
    if keller:
        shifted.cache_keller(True)
    k = ring.residue_ring()
    solutions = [pt for pt, v in residue_values(shifted, budget) if not any(v)]
    lifted = []
    for pt in solutions:
        start = tuple(lift_from_residue(k.from_index(i), ring) for i in pt)
        lifted.append(hensel_lift(shifted, start).beta)
    out = sorted(set(lifted), key=point_index)
    if len(out) != len(solutions):  # pragma: no cover - uniqueness guarantees this
        raise PreconditionFailed("lifted fiber collided; uniqueness violated")
    return tuple(out)


# ---------------------------------------------------------------------------
# univariate integer polynomials: discriminant and root lifting


def _int_det(rows: list) -> int:
    """Fraction-free Bareiss determinant, exact over the integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _as_coeff_list(f) -> list:
    """Accept {exp: int} maps (1-variable) or ascending coefficient sequences."""
    if isinstance(f, dict):
        deg = max((e[0] if isinstance(e, tuple) else e) for e in f)
        out = [0] * (deg + 1)
        for e, cval in f.items():
            out[e[0] if isinstance(e, tuple) else e] = cval
        return out
    out = list(f)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def resultant(f, g) -> int:
    """Sylvester resultant of two integer polynomials (ascending coefficients)."""
    f = _as_coeff_list(f)
    g = _as_coeff_list(g)
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0 or (m == 0 and n == 0):
        raise InvalidInput("resultant needs nonconstant input")
    size = m + n
    fd = list(reversed(f))
    gd = list(reversed(g))
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (size - i - n - 1))
    return _int_det(rows)


def discriminant(f) -> int:
    """disc(f) = (-1)^{d(d-1)/2} Res(f, f') / lc(f), exact."""
    coeffs = _as_coeff_list(f)
    d = len(coeffs) - 1
    if d < 1:
        raise InvalidInput("discriminant needs degree >= 1")
    if d == 1:
        return 1
    deriv = [i * coeffs[i] for i in range(1, d + 1)]
    res = resultant(coeffs, deriv)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    lc = coeffs[-1]
    if res % lc:
        raise TheoremViolation(f"Res(f, f') = {res} is not divisible by lc(f) = {lc}")
    return sign * res // lc


class UnivariateLift(Record):
    __slots__ = ("ring", "root", "residue_degree", "lift")


def lift_univariate_root(
    f, p: int, precision: int, budget: int = DEFAULT_BUDGET
) -> UnivariateLift:
    """Root of an integer polynomial in the smallest unramified extension.

    Requires p not to divide the discriminant (every residue root is then
    simple) nor the leading coefficient. Extensions are searched in degree
    order; the residue root chosen is the least in canonical order.
    """
    coeffs = _as_coeff_list(f)
    if len(coeffs) < 2:
        raise InvalidInput("need a nonconstant polynomial")
    if coeffs[-1] % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    d = discriminant(coeffs)
    if d % p == 0:
        raise BadPrime(f"{p} divides the discriminant {d}")
    degree = len(coeffs) - 1
    for k in range(1, degree + 1):
        if p**k > budget:
            raise NoRootWithinBudget(f"GF({p}^{k}) exceeds the enumeration budget")
        root_bar = least_root(coeffs, residue_field(p, k))
        if root_bar is None:
            continue
        ring = build_unramified(p, k, precision)
        poly = MultiPoly.from_int_terms(ring, 1, {(e,): cv for e, cv in enumerate(coeffs)})
        start = lift_from_residue(root_bar, ring)
        result = hensel_lift(PolyMap([poly]), (start,))
        return UnivariateLift(
            ring=ring, root=result.beta[0], residue_degree=k, lift=result
        )
    raise NoRootWithinBudget(  # pragma: no cover - some factor always has a root
        "no residue root in any extension up to the polynomial degree"
    )
