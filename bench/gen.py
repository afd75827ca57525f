"""Seeded job lists for the three benchmark workloads.

Every job is a ring/map document written here as text, plus the operation
to run on it. The generator does not use the library's samplers: linear
changes of variables are substituted as text, so the library's parser does
all the expansion, and the library only ever receives documents.

Each workload is a fixed list of job slots. A slot fixes the shape of its
job: ring, number of variables, degrees and which monomials occur. The seed
picks the values: coefficients, start points, Hensel constants, targets,
probe seeds and witness positions. Shapes come from a generator keyed by
the slot alone, so a pass costs about the same for every seed, and the
spread of a metric over seeds is the machine's, not the inputs'. Indicator
scans come in pairs whose witness positions are digit-wise complements, so
the pair scans the same number of points for every seed; the leading digit
of the witness is part of the shape and the later digits are seeded.

A job is a plain dict so that a job list serialises to canonical JSON:
  id       "<workload>-<index>"
  op       a CLI command (check lift fiber restrict probe bound construct)
           or a library call without a CLI form (zerocount bezout keller
           hensel fiber_at)
  doc      the ring/map document
  options  CLI options for commands (point trials seed budget name dim d)
  args     arguments of library calls (ext, point, target)
  expect   facts the generator knows about the answer, for the checks
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("scan", "algebra", "cli")

# zp maps with p > 3 get the d(F) degree-bound certificate, which computes
# 3^(2^d + n) exactly; d counts monomials of degree > 3, so it stays small.
MAX_D_MONOMIALS = 16


# ---------------------------------------------------------------------------
# rings and elements


class RingSpec:
    """A ring line plus what the generator needs to write elements of it."""

    def __init__(self, kind: str, p: int, prec: int, deg: int = 1):
        self.kind, self.p, self.prec, self.deg = kind, p, prec, deg
        self.q = p**deg

    def line(self) -> str:
        if self.kind == "unram":
            return f"ring unram p={self.p} deg={self.deg} prec={self.prec}"
        return f"ring {self.kind} p={self.p} prec={self.prec}"

    def residue(self, index: int) -> list:
        """Coefficient vector of the residue element with canonical index."""
        out = []
        for _ in range(self.deg):
            out.append(index % self.p)
            index //= self.p
        return out

    def text(self, coeffs: list) -> str:
        """Literal for an element given by its residue coefficient vector."""
        if self.kind == "unram" and any(coeffs[1:]):
            return "[" + ",".join(str(c) for c in coeffs) + "]"
        return str(coeffs[0])

    def unit_text(self, rng: random.Random) -> str:
        """A seeded element whose residue coefficients are all nonzero, so
        that its zero pattern, and the cost of expanding with it, are fixed."""
        return self.text([rng.randrange(1, self.p) for _ in range(self.deg)])

    def uniformizer_power(self, k: int, c: int) -> str:
        """Literal for c * pi^k, pi = p (zp, unram) or T (fpt)."""
        if self.kind == "fpt":
            return "[" + ",".join(["0"] * k + [str(c % self.p)]) + "]"
        return str(c * self.p**k)


def _doc(ring: RingSpec, comps: list) -> str:
    lines = [ring.line(), f"map n={len(comps)}"]
    lines += [f"F{i + 1} = {c}" for i, c in enumerate(comps)]
    return "\n".join(lines)


def _signed_sum(pieces: list) -> str:
    """Join (int coefficient, text) pairs; zero coefficients are dropped."""
    out = ""
    for c, body in pieces:
        if c == 0:
            continue
        mag = abs(c)
        if body == "1":
            term = str(mag)
        else:
            term = body if mag == 1 else f"{mag}*{body}"
        if not out:
            out = term if c > 0 else f"-{term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out or "0"


def _shape(slot: str) -> random.Random:
    """Generator for the seed-independent shape of one slot."""
    return random.Random(f"kellermaps-bench-shape:{slot}")


# ---------------------------------------------------------------------------
# linear changes of variables and conjugated triangular Keller maps


def _unimodular_pair(shape: random.Random, n: int, ops: int) -> tuple:
    """(L, L^-1) over Z with det L = 1, from `ops` row additions
    row_i += row_j. L is part of the shape: with seeded multipliers the
    cancellations, and so the cost of expanding L^-1 F(L X), vary too much."""
    lmat = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return lmat, inv
    for _ in range(ops):
        i, j = shape.sample(range(n), 2)
        # L <- E L with E = I + e_ij, so L^-1 <- L^-1 E^-1
        lmat[i] = [a + b for a, b in zip(lmat[i], lmat[j])]
        for row in inv:
            row[j] -= row[i]
    return lmat, inv


def _linear_form(row: list) -> str:
    return "(" + _signed_sum([(c, f"X{k + 1}") for k, c in enumerate(row)]) + ")"


def _conjugated_keller(slot: str, rng: random.Random, ring: RingSpec, n: int, max_deg: int,
                       terms: int = 2, ops: int = 0, broken: bool = False) -> str:
    """Document for L^-1 F(L X) with F_i = X_i + h_i(X_{i+1}, ..., X_n): det J = 1.

    Each h_i has `terms` monomials of degree 1..max_deg (shape) with unit
    coefficients (seed); L comes from `ops` row additions (default n).
    With `broken`, the first component is doubled, so det J = 2.
    """
    shape = _shape(slot)
    lmat, inv = _unimodular_pair(shape, n, ops or n)
    names = [_linear_form(row) for row in lmat]
    subbed = []
    for i in range(n):
        pieces = [names[i]]
        later = list(range(i + 1, n))
        for _ in range(terms if later else 0):
            exps = {}
            for _ in range(shape.randrange(1, max_deg + 1)):
                k = shape.choice(later)
                exps[k] = exps.get(k, 0) + 1
            mono = "*".join(names[k] if e == 1 else f"{names[k]}^{e}" for k, e in sorted(exps.items()))
            pieces.append(f"{ring.unit_text(rng)}*{mono}")
        if shape.random() < 0.5:
            pieces.append(ring.unit_text(rng))
        subbed.append("(" + " + ".join(pieces) + ")")
    comps = [_signed_sum([(inv[j][i], subbed[i]) for i in range(n)]) for j in range(n)]
    if broken:
        comps[0] = f"2*({comps[0]})"
    return _doc(ring, comps)


# ---------------------------------------------------------------------------
# Frobenius and indicator scans


def _frobenius_doc(shape: random.Random, rng: random.Random, ring: RingSpec, n: int,
                   extras: int, digits: list) -> str:
    """X_i - X_i^q, plus `extras` terms c*X_j^e*(X_k^q - X_k) that vanish on
    residue points, plus on the last component the indicator
    prod_i (1 - (X_i - a_i)^(q-1)) of the residue prefix `digits`."""
    q = ring.q
    comps = [f"X{i + 1} - X{i + 1}^{q}" for i in range(n)]
    # extras on components i < n-1 use variables strictly between i and n-1,
    # so the Jacobian stays block triangular with unit diagonal
    for _ in range(extras):
        i = shape.randrange(0, n - 2)
        j, k = shape.randrange(i + 1, n - 1), shape.randrange(i + 1, n - 1)
        comps[i] += f" + {ring.unit_text(rng)}*X{j + 1}^{shape.randrange(1, 3)}*(X{k + 1}^{q} - X{k + 1})"
    factors = [f"(1 - (X{i + 1} - {ring.text(ring.residue(a))})^{q - 1})"
               for i, a in enumerate(digits)]
    if factors:
        comps[-1] += " + " + "*".join(factors)
    return _doc(ring, comps)


def _scan_checks(slot: str, rng: random.Random, ring: RingSpec, n: int, prefix: int,
                 extras: int = 0) -> list:
    """A full not-unimodular Frobenius scan (prefix 0), or two indicator scans
    whose witnesses sit at digit-wise complementary seeded positions."""
    q = ring.q
    if ring.kind == "zp" and ring.p > 3 and (prefix > 1 or n + ring.p - 4 + 2 * extras > MAX_D_MONOMIALS):
        raise ValueError(f"slot {slot}: too many monomials of degree > 3")
    expect = {"keller": True, "required": q**n}
    if prefix == 0:
        doc = _frobenius_doc(_shape(slot), rng, ring, n, extras, [])
        return [{"op": "check", "doc": doc, "expect": dict(expect, verdict="not-unimodular")}]
    # digits avoid 0 and q-1, whose indicators expand to fewer terms; the
    # leading digit is the middle one, so both jobs of a pair scan about half
    # of the points and the seeded later digits move each job's cost little
    digits = [(q - 1) // 2] + [rng.randrange(1, q - 1) for _ in range(prefix - 1)]
    jobs = []
    for ds in (digits, [q - 1 - a for a in digits]):
        index = 0
        for a in ds:
            index = index * q + a
        index *= q ** (n - prefix)
        doc = _frobenius_doc(_shape(slot), rng, ring, n, extras, ds)
        jobs.append({"op": "check", "doc": doc,
                     "expect": dict(expect, verdict="unimodular", witness_index=index)})
    return jobs


def _zerocount(slot: str, rng: random.Random, op: str, ring: RingSpec, ext: int) -> dict:
    """Conjugated Frobenius map in 2 variables over GF(q); its zeros over
    any extension GF(q^e) are exactly GF(q)^2."""
    q = ring.q
    lmat, inv = _unimodular_pair(_shape(slot), 2, 3)
    names = [_linear_form(row) for row in lmat]
    subbed = [f"({names[i]} - {names[i]}^{q})" for i in range(2)]
    comps = [_signed_sum([(inv[j][i], subbed[i]) for i in range(2)]) for j in range(2)]
    return {"op": op, "doc": _doc(ring, comps), "args": {"ext": ext},
            "expect": {"count": q**2, "bound": q**2, "scanned": q ** (2 * ext)}}


def _bezout(slot: str, rng: random.Random, ring: RingSpec, ext: int) -> dict:
    return {"op": "bezout", "doc": _conjugated_keller(slot, rng, ring, 2, 3),
            "args": {"ext": ext}, "expect": {"satisfied": True, "scanned": ring.q ** (2 * ext)}}


def _keller(slot: str, rng: random.Random, ring: RingSpec, n: int, max_deg: int, terms: int,
            ops: int, broken: bool = False) -> dict:
    doc = _conjugated_keller(slot, rng, ring, n, max_deg, terms, ops, broken)
    return {"op": "keller", "doc": doc, "expect": {"keller": not broken}}


def _early_check(slot: str, rng: random.Random, ring: RingSpec, n: int) -> dict:
    """Conjugated triangular Keller map: a bijection on residue points, so the
    witness comes within the first two points."""
    return {"op": "check", "doc": _conjugated_keller(slot, rng, ring, n, 2),
            "expect": {"keller": True, "verdict": "unimodular", "required": ring.q**n}}


# ---------------------------------------------------------------------------
# lifting


def _hensel(slot: str, rng: random.Random, ring: RingSpec, n: int, m: int) -> dict:
    """F(X) = A (X - a) + quadratic terms + pi^(2m+1) c, with det A = pi^m
    times a unit, so the lift starts at a with valuation m."""
    shape = _shape(slot)
    a = [ring.residue(rng.randrange(1, ring.q)) for _ in range(n)]
    shifts = [f"(X{j + 1} - {ring.text(a[j])})" for j in range(n)]
    lmat, _ = _unimodular_pair(shape, n, n)
    comps = []
    for i in range(n):
        body = _signed_sum([(lmat[i][j], shifts[j]) for j in range(n)])
        if i == 0 and m:
            body = f"{ring.uniformizer_power(m, 1)}*({body})"
        for _ in range(2):
            j, k = shape.randrange(n), shape.randrange(n)
            body += f" + {rng.randrange(1, ring.p)}*{shifts[j]}*{shifts[k]}"
        body += " + " + ring.uniformizer_power(2 * m + 1, rng.randrange(1, ring.p))
        comps.append(body)
    return {"op": "hensel", "doc": _doc(ring, comps), "args": {"point": a},
            "expect": {"m": m, "precision": ring.prec}}


def _fiber_at(rng: random.Random, p: int, prec: int) -> dict:
    """Fiber of X - X^p in 2 variables over GF(p)[T]/T^N above a target in
    (T): every one of the p^2 residue points lifts."""
    ring = RingSpec("fpt", p, prec)
    comps = [f"X{i + 1} - X{i + 1}^{p}" for i in range(2)]
    target = [[0, rng.randrange(1, p), rng.randrange(p)] for _ in range(2)]
    return {"op": "fiber_at", "doc": _doc(ring, comps), "args": {"target": target},
            "expect": {"count": p**2}}


def _root_degree(coeffs: list, p: int) -> int:
    """Smallest k with a root in GF(p^k), for a squarefree quadratic or cubic
    mod p: 1 with a root in GF(p), else the degree (2, or 3 when irreducible)."""
    if any(sum(c * x**e for e, c in enumerate(coeffs)) % p == 0 for x in range(p)):
        return 1
    return len(coeffs) - 1


def _univariate(rng: random.Random, p: int, prec: int, degree: int, k: int) -> dict:
    """Monic integer polynomial of the given degree, discriminant prime to p,
    whose smallest root field over GF(p) has degree k; the CLI lift (no
    --point) finds the root in that unramified extension."""
    while True:
        if degree == 2:
            b, c = rng.randrange(-4, 5), rng.randrange(-6, 7)
            coeffs, disc = [c, b, 1], b * b - 4 * c
        else:
            a, b = rng.randrange(-3, 4), rng.randrange(1, 6)
            coeffs, disc = [b, a, 0, 1], -4 * a**3 - 27 * b * b
        if disc % p and _root_degree(coeffs, p) == k:
            break
    text = _signed_sum([(c, "1" if e == 0 else ("X1" if e == 1 else f"X1^{e}"))
                        for e, c in reversed(list(enumerate(coeffs)))])
    return {"op": "lift", "doc": _doc(RingSpec("zp", p, prec), [text]),
            "expect": {"coeffs": coeffs, "extension_degree": k}}


def _cli_lift_point(slot: str, rng: random.Random, ring: RingSpec, n: int, m: int) -> dict:
    """Hensel lift from an integer start point, expressible on the CLI."""
    job = _hensel(slot, rng, ring, n, m)
    point = ",".join(str(c[0]) for c in job["args"]["point"])
    return {"op": "lift", "doc": job["doc"], "options": {"point": point},
            "expect": dict(job["expect"], point=job["args"]["point"])}


# ---------------------------------------------------------------------------
# constructions, probes, descent, bounds


def _probe(slot: str, rng: random.Random, ring: RingSpec, trials: int) -> dict:
    return {"op": "probe", "doc": _conjugated_keller(slot, rng, ring, 2, 2),
            "options": {"trials": trials, "seed": rng.randrange(1, 1000)},
            "expect": {"trials": trials}}


def _restrict(slot: str, rng: random.Random, ring: RingSpec) -> dict:
    """Descent of a 2-variable Keller map over an unramified extension."""
    return {"op": "restrict", "doc": _conjugated_keller(slot, rng, ring, 2, 2),
            "expect": {"nvars": 2 * ring.deg}}


def _bound(rng: random.Random, p: int, n: int) -> dict:
    d = rng.randrange(0, 7)
    return {"op": "bound", "doc": f"ring zp p={p} prec=2", "options": {"d": d, "dim": n},
            "expect": {"holds": 3 ** (2**d + n) <= p**n, "n": n}}


def _construct(rng: random.Random, name: str, p: int, dim: int, prec: int) -> dict:
    doc = f"ring {'zp' if name == 'extension' else 'fpt'} p={p} prec={prec}"
    if name == "charp":
        return {"op": "construct", "doc": doc, "options": {"name": "charp", "dim": dim},
                "expect": {"verdict": "not-unimodular", "required": p**dim}}
    if name == "gmap":
        return {"op": "construct", "doc": doc, "options": {"name": "gmap", "dim": dim},
                "expect": {"verdict": "unimodular", "witness_index": 0, "required": 5**dim,
                           "composition_zero_points": 4**dim}}
    d = rng.randrange(2, 60)
    return {"op": "construct", "doc": doc, "options": {"name": "extension", "d": d},
            "expect": {"d": d}}


_INVALID = (
    "ring zp p=4 prec=2\nmap n=1\nF1 = X1",
    "ring zp p=5 prec=2\nmap n=2\nF1 = X1 +* X2\nF2 = X2",
    "ring fpt p=3 prec=2\nmap n=1\nF1 = X2",
    "ring zp p=7 prec=2\nmap n=2\nF1 = X1",
)


# ---------------------------------------------------------------------------
# workloads


def _zp(p, prec=1):
    return RingSpec("zp", p, prec)


def _fpt(p, prec=1):
    return RingSpec("fpt", p, prec)


def _unram(p, deg, prec=1):
    return RingSpec("unram", p, prec, deg)


def _scan(rng: random.Random) -> list:
    # The list is built around its percentiles. Of its 35 jobs, 15 cost less
    # than a group of five equal median jobs (ranks 16-20, the median is rank
    # 18) and 8 cost between those and a group of six equal heavy jobs (ranks
    # 29-34, the 90th percentile is rank 31.5), and one costs more. So each
    # percentile falls in the middle of a group of equal jobs for every seed.
    jobs = []
    # light: one job for every other layer, small scans and re-scanning
    # constructors
    jobs += [_hensel("scan-h", rng, _zp(7, 16), 1, 0), _fiber_at(rng, 3, 4),
             _univariate(rng, 5, 16, 2, 2), _probe("scan-p", rng, _zp(5, 3), 1),
             _restrict("scan-r", rng, _unram(3, 2, 6)),
             _keller("scan-k", rng, _zp(7, 8), 3, 2, 2, 3), _bound(rng, 7, 3)]
    jobs += [_construct(rng, "charp", 5, 3, 2), _construct(rng, "gmap", 5, 2, 1)]
    jobs.append(_zerocount("scan-z1", rng, "zerocount", _unram(2, 2), 2))
    jobs.append(_zerocount("scan-z2", rng, "bezout", _zp(2), 3))
    jobs += _scan_checks("scan-i1", rng, _zp(7), 3, 1)
    jobs += _scan_checks("scan-i2", rng, _zp(3), 4, 3, extras=2)
    # median group: full scans of 343 points
    for _ in range(5):
        jobs += _scan_checks("scan-m", rng, _zp(7), 3, 0, extras=1)
    # between: full scans and indicator pairs that stop near the middle
    jobs += _scan_checks("scan-f1", rng, _zp(5), 4, 0, extras=2)
    jobs += _scan_checks("scan-f2", rng, _unram(2, 3), 3, 0, extras=1)
    jobs += _scan_checks("scan-f3", rng, _unram(5, 2), 2, 0)
    jobs += _scan_checks("scan-f4", rng, _fpt(5, 2), 4, 0, extras=1)
    jobs += _scan_checks("scan-i3", rng, _unram(3, 2), 3, 1, extras=1)
    jobs += _scan_checks("scan-i4", rng, _zp(11), 3, 1)
    # heavy group: full scans of 1331 points, then one of 2401
    for _ in range(6):
        jobs += _scan_checks("scan-t", rng, _zp(11), 3, 0, extras=2)
    jobs += _scan_checks("scan-f5", rng, _fpt(7, 2), 4, 0, extras=1)
    return jobs


def _algebra(rng: random.Random) -> list:
    jobs = []
    for i, (ring, n, m) in enumerate((
            (_zp(7, 256), 1, 0), (_zp(5, 200), 2, 1), (_zp(11, 128), 3, 0), (_zp(3, 160), 3, 1),
            (_fpt(5, 32), 1, 0), (_fpt(3, 24), 2, 1), (_fpt(7, 16), 3, 0),
            (_unram(3, 2, 128), 1, 0), (_unram(5, 2, 64), 2, 1), (_unram(2, 3, 96), 2, 0),
            (_unram(7, 2, 48), 3, 0))):
        jobs.append(_hensel(f"algebra-h{i}", rng, ring, n, m))
    jobs += [_fiber_at(rng, 3, 16), _fiber_at(rng, 5, 10), _fiber_at(rng, 7, 6)]
    for p, prec, degree, k in ((3, 256, 2, 2), (7, 128, 3, 3), (11, 200, 3, 1), (5, 64, 2, 1)):
        jobs.append(_univariate(rng, p, prec, degree, k))
    # shape seeds chosen so that is_keller costs grow with n (about 5 to 300 ms)
    for slot, ring, n, max_deg, terms, ops in (
            ("algebra-k3", _unram(3, 2, 8), 3, 3, 3, 6), ("algebra-k4", _zp(7, 24), 4, 3, 3, 8),
            ("algebra-k5d", _zp(7, 16), 5, 2, 3, 10), ("algebra-k6", _zp(11, 16), 6, 2, 3, 10)):
        jobs.append(_keller(slot, rng, ring, n, max_deg, terms, ops))
    jobs.append(_keller("algebra-kb", rng, _zp(5, 20), 4, 2, 2, 5, broken=True))
    jobs += [_early_check("algebra-c2", rng, _zp(5, 6), 2),
             _early_check("algebra-c3", rng, _unram(3, 2, 3), 3),
             _early_check("algebra-c3b", rng, _fpt(5, 2), 3),
             _early_check("algebra-c2b", rng, _fpt(7, 3), 2)]
    jobs += [_probe("algebra-p1", rng, _zp(5, 4), 4), _probe("algebra-p2", rng, _unram(3, 2, 2), 3)]
    jobs += [_restrict("algebra-r2", rng, _unram(5, 2, 12)),
             _restrict("algebra-r3", rng, _unram(3, 3, 6))]
    # light scan and construction jobs
    jobs += [_zerocount("algebra-z", rng, "zerocount", _zp(3), 2),
             _bezout("algebra-b", rng, _zp(7, 3), 1),
             _construct(rng, "extension", 3, 0, 7), _bound(rng, 101, 3)]
    return jobs


def _cli(rng: random.Random) -> list:
    jobs = []
    jobs += _scan_checks("cli-f1", rng, _fpt(5), 3, 0, extras=1)
    jobs += _scan_checks("cli-i1", rng, _unram(2, 3), 2, 1)
    frob = _zerocount("cli-z", rng, "check", _zp(7), 1)
    jobs.append(dict(frob, args={}, expect={"verdict": "not-unimodular", "required": 49}))
    jobs += [_early_check("cli-c2", rng, _unram(3, 3, 7), 2),
             _early_check("cli-c3", rng, _zp(5, 31), 3)]
    over = _scan_checks("cli-f2", rng, _zp(3), 4, 0)[0]
    over["options"] = {"budget": 3**4 - 1 - rng.randrange(10)}
    over["expect"] = {"verdict": "budget-exceeded", "required": 3**4}
    jobs.append(over)
    jobs += [_cli_lift_point("cli-l1", rng, _zp(5, 46), 2, 0),
             _cli_lift_point("cli-l2", rng, _zp(7, 40), 1, 1)]
    jobs += [_univariate(rng, 11, 13, 3, 1), _univariate(rng, 3, 42, 2, 2)]
    jobs.append({"op": "fiber", "doc": _doc(_fpt(3, 4), ["X1 - X1^3", "X2 - X2^3"]),
                 "options": {"point": "0,0"}, "expect": {"count": 9}})
    jobs.append({"op": "fiber", "doc": _conjugated_keller("cli-fb", rng, _zp(7, 6), 2, 2),
                 "options": {"point": f"{rng.randrange(7)},{rng.randrange(7)}"},
                 "expect": {"count": 1}})
    jobs += [_restrict("cli-r1", rng, _unram(2, 2, 6)), _restrict("cli-r2", rng, _unram(3, 2, 7))]
    jobs += [_probe("cli-p1", rng, _zp(7, 3), 2), _probe("cli-p2", rng, _zp(5, 4), 2)]
    jobs += [_bound(rng, 7, 3), _bound(rng, 1009, 4)]
    jobs.append({"op": "bound", "doc": _conjugated_keller("cli-b", rng, _zp(11, 3), 2, 3),
                 "expect": {"holds": True, "n": 2, "d": 0}})
    jobs += [_construct(rng, "charp", 5, 2, 2), _construct(rng, "gmap", 5, 2, 1),
             _construct(rng, "extension", 5, 0, 7), _construct(rng, "extension", 2, 0, 1)]
    jobs.append({"op": "check", "doc": rng.choice(_INVALID), "expect": {"exit": 2}})
    return jobs


_JOB_LISTS = {"scan": _scan, "algebra": _algebra, "cli": _cli}


def job_list(workload: str, seed: int) -> list:
    """The seeded job list of one workload; equal seeds give equal lists."""
    rng = random.Random(f"kellermaps-bench:{workload}:{seed}")
    jobs = _JOB_LISTS[workload](rng)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:03d}"
        job.setdefault("options", {})
        job.setdefault("args", {})
    return jobs


def job_list_text(workload: str, seed: int) -> str:
    return json.dumps(job_list(workload, seed), sort_keys=True, separators=(",", ":"))


def micro_docs(workload: str, seed: int, p: int, prec: int) -> dict:
    """Inputs of the microbenchmark rows, over the workload's own zp ring:
    a 6-variable conjugated triangular Keller map, and a 2-variable Hensel
    system at precision 256 over the same prime."""
    rng = random.Random(f"kellermaps-bench-micro:{workload}:{seed}")
    lift = _hensel("micro-h", rng, _zp(p, 256), 2, 0)
    return {"keller_n6": _conjugated_keller("micro-k6e", rng, _zp(p, prec), 6, 2, 2, 10),
            "lift_doc": lift["doc"], "lift_point": lift["args"]["point"]}
