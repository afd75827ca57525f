"""Correctness checks on job outputs.

For seeds with recorded digests (golden.json) every output must match its
sha256. For every seed, cheap invariants are checked as well: witnesses are
re-evaluated with PolyMap.eval, Hensel roots are substituted back, fibers
are counted against their residue solutions, and every fact the generator
knows about a job (verdict, witness position, counts) must hold.

Checks call the library, so they run outside the timed region and with
tracing off.
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(Exception):
    pass


def _require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


def digest(output) -> str:
    """sha256 of an in-process output text, or of a CLI (exit, stdout) pair."""
    if isinstance(output, str):
        return hashlib.sha256(output.encode()).hexdigest()
    code, stdout, _ = output
    return hashlib.sha256(f"exit={code}\n".encode() + stdout).hexdigest()


def _split_point(text: str) -> list:
    """'1,[2,3],4' -> [[1], [2, 3], [4]] (commas inside brackets kept)."""
    out, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            out.append(cur)
            cur = ""
            continue
        depth += (ch == "[") - (ch == "]")
        cur += ch
    out.append(cur)
    return [[int(c) for c in item.strip("[]").split(",")] for item in out]


def _point(ring, coeff_lists) -> tuple:
    return tuple(ring.from_coeffs(c) for c in coeff_lists)


def _index(point) -> int:
    idx = 0
    for x in point:
        idx = idx * x.ring.element_count + x.index
    return idx


def _is_zero_vector(values) -> bool:
    return all(v.is_zero for v in values)


def check_output(km, job: dict, output):
    """Raise CheckFailed unless `output` is a correct answer to `job`.

    `output` is the canonical text of an in-process job, or the
    (exit code, stdout bytes, stderr bytes) of a CLI job.
    """
    expect = job["expect"]
    if not isinstance(output, str):
        code, stdout, stderr = output
        if "exit" in expect:
            _require(code == expect["exit"], f"exit {code}, expected {expect['exit']}")
            _require(stdout == b"" and stderr.startswith(b"error:"), "rejection not reported")
            return
        _require(code == 0, f"exit {code}: {stderr.decode(errors='replace')[-200:]}")
        _require(stdout.endswith(b"\n") and stdout.count(b"\n") == 1, "not one JSON line")
        output = stdout.decode()
    doc = json.loads(output)
    op = job["op"]
    if op in ("check", "construct") and job["options"].get("name") != "extension":
        _check_report(km, job, doc)
    elif op == "construct":
        _check_extension(job, doc)
    elif op == "lift" and "point" in job["options"]:
        ring, f, _ = km.parsing.parse_map_document(job["doc"])
        beta = _point(ring, _split_point(doc["beta"]))
        _check_lift(job, f, beta, doc)
    elif op == "hensel":
        ring, f, _ = km.parsing.parse_map_document(job["doc"])
        _check_lift(job, f, _point(ring, doc["beta"]), doc)
    elif op == "lift":
        _check_univariate(km, job, doc)
    elif op in ("fiber", "fiber_at"):
        _check_fiber(km, job, doc)
    elif op == "restrict":
        _require(doc["nvars"] == expect["nvars"], "descended variable count")
        _require(len(doc["components"].split(" | ")) == expect["nvars"], "component count")
        _require(doc["keller_input"] and doc["keller_descended"], "descent lost det J = 1")
    elif op == "probe":
        failures = [k for k in doc if k.startswith("failure_")]
        _require(doc["trials"] == expect["trials"], "trial count")
        _require(doc["failures"] == len(failures), "failure lines")
        _require(doc["all_passed"] == (not failures), "all_passed flag")
    elif op == "bound":
        _require(doc["holds"] == expect["holds"] and doc["n"] == expect["n"], "bound verdict")
        _require(doc["d"] == job["options"].get("d", expect.get("d")), "bound d")
    elif op == "zerocount":
        _require(doc["count"] == expect["count"], f"zero count {doc['count']}")
    elif op == "bezout":
        _require(doc["satisfied"] and doc["count"] <= doc["bound"], "Bezout bound")
        for key in ("count", "bound"):
            if key in expect:
                _require(doc[key] == expect[key], f"Bezout {key}")
    elif op == "keller":
        _require(doc["keller"] == expect["keller"], "Keller verdict")
    else:
        raise CheckFailed(f"no check for op {op!r}")


def _check_report(km, job: dict, doc: dict):
    expect = job["expect"]
    for key in ("verdict", "keller", "composition_zero_points"):
        if key in expect:
            _require(doc[key] == expect[key], f"{key} {doc[key]!r}, expected {expect[key]!r}")
    if "required" in expect:
        _require(doc["required_points"] == expect["required"], "required point count")
    verdict = doc["verdict"]
    if verdict == "budget-exceeded":
        _require(doc["points_checked"] == 0 and doc["required_points"] > doc["budget"],
                 "budget verdict")
        return
    if verdict == "not-unimodular":
        _require(doc["points_checked"] == doc["zero_count"] == doc["required_points"],
                 "full scan counts")
        return
    _require(verdict == "unimodular", f"verdict {verdict!r}")
    if job["op"] == "construct":
        n = job["options"]["dim"]
        _require(doc["witness"] == ",".join(["0"] * n), "gmap witness")
        _require(doc["composition_zero_points"] + doc["composition_nonzero_points"]
                 == doc["required_points"], "composition point counts")
        index = 0
    else:
        _, f, _ = km.parsing.parse_map_document(job["doc"])
        res = f.reduce_to_residue()
        k = res.ring
        witness = _point(k, _split_point(doc["witness"]))
        value = res.eval(witness)
        _require(not _is_zero_vector(value), "witness maps to zero")
        _require(_point(k, _split_point(doc["witness_value"])) == value, "witness value")
        index = _index(witness)
        # the witness is the least point with nonzero image
        if index <= 64:
            n, q = f.nvars, k.element_count
            for idx in range(index):
                digits = [(idx // q ** (n - 1 - i)) % q for i in range(n)]
                pt = tuple(k.from_index(d) for d in digits)
                _require(_is_zero_vector(res.eval(pt)), "earlier point is not a zero")
    _require(doc["points_checked"] == index + 1 and doc["zero_count"] == index,
             "points_checked != witness index + 1")
    if "witness_index" in expect:
        _require(index == expect["witness_index"], f"witness index {index}")


def _check_lift(job: dict, f, beta: tuple, doc: dict):
    expect = job["expect"]
    ring = f.ring
    point = expect.get("point", job["args"].get("point"))
    alpha = _point(ring, point)
    m = doc["m"]
    _require(m == expect["m"], f"m = {m}, expected {expect['m']}")
    _require(doc["precision"] == expect["precision"], "precision")
    _require(_is_zero_vector(f.eval(beta)), "F(beta) is not 0 at working precision")
    _require(all((b - a).ord >= m + 1 for a, b in zip(alpha, beta)),
             "beta is not congruent to alpha mod M^(m+1)")


def _check_univariate(km, job: dict, doc: dict):
    coeffs = job["expect"]["coeffs"]
    base, _, _ = km.parsing.parse_map_document(job["doc"])
    k = doc["extension_degree"]
    _require(k == job["expect"]["extension_degree"], f"extension degree {k}")
    ring = km.build_unramified(base.p, k, base.precision)
    root = ring.from_coeffs(_split_point(doc["root"])[0])
    value = ring.zero
    for c in reversed(coeffs):
        value = value * root + c
    _require(value.is_zero, "root does not satisfy the polynomial")
    for j in range(1, k):
        field = km.residue_field(base.p, j)
        for x in field.elements():
            acc = field.zero
            for c in reversed(coeffs):
                acc = acc * x + c
            _require(not acc.is_zero, f"a root exists already in degree {j}")


def _check_fiber(km, job: dict, doc: dict):
    ring, f, _ = km.parsing.parse_map_document(job["doc"])
    if job["op"] == "fiber":
        target = tuple(ring.from_int(int(c)) for c in job["options"]["point"].split(","))
        points = [_point(ring, _split_point(t)) for t in doc["points"].split(" | ")] \
            if doc["count"] else []
        _require(doc["count"] == len(points), "count")
    else:
        target = _point(ring, job["args"]["target"])
        points = [_point(ring, pt) for pt in doc["points"]]
    _require(len(points) == job["expect"]["count"], f"fiber size {len(points)}")
    _require(len(set(points)) == len(points), "repeated fiber point")
    for pt in points:
        _require(tuple(f.eval(pt)) == target, "fiber point off the fiber")
    # one lifted point per residue solution
    residues = {tuple(x.reduce() for x in pt) for pt in points}
    _require(len(residues) == len(points), "two points over one residue solution")


def _check_extension(job: dict, doc: dict):
    base_p = int(job["doc"].split("p=")[1].split()[0])
    d, n = doc["d"], doc["extension_degree"]
    _require(d == job["expect"]["d"], "d")
    _require(base_p**n > d and base_p ** (n - 1) <= d, "extension degree not minimal")
    _require(doc["residue_size"] == base_p**n, "residue size")
    _require(doc["certificate_holds"] == (d**n < base_p ** (n * n)), "certificate")
