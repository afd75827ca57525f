"""Text grammar for rings, polynomials and maps, with canonical printing.

Ring lines:    ring zp p=<prime> prec=<N>
               ring fpt p=<prime> prec=<N>
               ring unram p=<prime> deg=<n> prec=<N>
Map header:    map n=<int>
Components:    F<k> = <polynomial>, one line per component, k = 1..n.

Polynomials use variables X1..Xn, integer literals, operators + - * ^ and
parentheses; whitespace is ignored. Coefficients may also be written as
bracketed vectors [c0,c1,...] naming an element of an extension or
series ring by its coefficient tuple.

Canonical printing sorts terms by (total degree, exponent vector) and
writes every coefficient as its least nonnegative residue, so that
parse -> print -> parse is the identity.
"""

from __future__ import annotations

import re

from .errors import InvalidInput, ParseError, ValidationError
from .polynomials import MultiPoly, PolyMap
from .rings import (  # MAX_PRECISION stays importable from here
    EQUAL,
    MAX_PRECISION,
    MIXED,
    RESIDUE_FIELD,
    UNRAMIFIED,
    Ring,
    build_unramified,
    text_of,
    truncated_fpt,
    truncated_zp,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>X\d+)|(?P<brack>\[[-\d,\s]*\])|(?P<op>[-+*^()]))"
)


def _int(text: str, line: int, col: int) -> int:
    """int(text), with a ParseError where int() fails: a literal above the
    interpreter's digit limit (4,300 by default) or a malformed digit run."""
    try:
        return int(text)
    except ValueError:
        shown = text if len(text) <= 20 else f"{text[:10]}... ({len(text)} characters)"
        raise ParseError(f"cannot read {shown!r} as an integer", line, col) from None


class _Tokens:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.items = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stray = text[pos:].lstrip()
                if not stray:
                    break
                raise ParseError(f"unexpected character {stray[0]!r}", line, pos + 1)
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.items[self.i] if self.i < len(self.items) else (None, None, len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_end(self):
        kind, value, col = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {value!r}", self.line, col)


def parse_poly(text: str, ring: Ring, nvars: int, line: int = 1) -> MultiPoly:
    """Parse one polynomial over `ring` in variables X1..X<nvars>."""

    def leaf(kind, value):
        if kind == "int":
            return MultiPoly.constant(ring, nvars, value)
        if kind == "brack":
            return MultiPoly.constant(ring, nvars, ring.from_coeffs(value))
        return MultiPoly.variable(ring, nvars, value)

    return _parse(text, leaf, nvars, line)


def _parse(text: str, leaf, nvars: int, line: int):
    """The shared grammar; `leaf(kind, value)` builds integer literals,
    bracket vectors and variables (0-based) in the target arithmetic."""
    toks = _Tokens(text, line)
    poly = _parse_sum(toks, leaf, nvars)
    toks.expect_end()
    return poly


def _parse_sum(toks, leaf, nvars):
    acc = _parse_signed_term(toks, leaf, nvars)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            term = _parse_term(toks, leaf, nvars)
            acc = acc + term if value == "+" else acc - term
        else:
            return acc


def _parse_signed_term(toks, leaf, nvars):
    kind, value, _ = toks.peek()
    if kind == "op" and value in "+-":
        toks.next()
        term = _parse_term(toks, leaf, nvars)
        return term if value == "+" else -term
    return _parse_term(toks, leaf, nvars)


def _parse_term(toks, leaf, nvars):
    acc = _parse_factor(toks, leaf, nvars)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "*":
            toks.next()
            acc = acc * _parse_factor(toks, leaf, nvars)
        else:
            return acc


def _parse_factor(toks, leaf, nvars):
    base = _parse_atom(toks, leaf, nvars)
    kind, value, col = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, col = toks.next()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", toks.line, col)
        return base ** _int(value, toks.line, col)
    return base


def _parse_atom(toks, leaf, nvars):
    kind, value, col = toks.next()
    if kind == "int":
        return leaf("int", _int(value, toks.line, col))
    if kind == "brack":
        inner = value[1:-1].strip()
        return leaf("brack", [_int(c, toks.line, col) for c in inner.split(",")] if inner else [0])
    if kind == "var":
        idx = _int(value[1:], toks.line, col + 1)
        if not 1 <= idx <= nvars:
            raise ParseError(f"variable {value} outside X1..X{nvars}", toks.line, col)
        return leaf("var", idx - 1)
    if kind == "op" and value == "(":
        poly = _parse_sum(toks, leaf, nvars)
        kind, value, col = toks.next()
        if value != ")":
            raise ParseError("expected ')'", toks.line, col)
        return poly
    if kind == "op" and value == "-":
        return -_parse_atom(toks, leaf, nvars)
    raise ParseError(f"expected a term, found {value!r}", toks.line, col)


class _IntPoly:
    """Sparse polynomial with exact int coefficients, for the grammar only."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _IntPoly(self.nvars, out)

    def __neg__(self):
        return _IntPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _IntPoly(self.nvars, out)

    def __pow__(self, k: int):
        acc = _IntPoly(self.nvars, {(0,) * self.nvars: 1})
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc


def parse_integer_poly(text: str, line: int = 1) -> dict:
    """Parse with exact integer coefficients; returns {exponent: int}.

    Used where the original integer polynomial matters (discriminants),
    before any reduction into a ring. Bracket literals are rejected.
    """
    if "[" in text:
        raise ParseError("bracket coefficients are not integers", line, text.index("[") + 1)
    nvars = max((_int(m[1], line, m.start(1) + 1) for m in re.finditer(r"X(\d+)", text)), default=1)

    def leaf(kind, value):
        if kind == "int":
            return _IntPoly(nvars, {(0,) * nvars: value})
        return _IntPoly(nvars, {tuple(int(i == value) for i in range(nvars)): 1})

    return _parse(text, leaf, nvars, line).terms


# ---------------------------------------------------------------------------
# ring lines


def parse_ring_line(text: str, line: int = 1) -> Ring:
    parts = text.split()
    if not parts or parts[0] != "ring":
        raise ParseError("expected 'ring ...'", line, 1)
    if len(parts) < 2 or parts[1] not in ("zp", "fpt", "unram"):
        raise ParseError("ring kind must be zp, fpt or unram", line, len("ring ") + 1)
    kv = {}
    for item in parts[2:]:
        if "=" not in item:
            raise ParseError(f"expected key=value, found {item!r}", line, text.index(item) + 1)
        k, v = item.split("=", 1)
        if not v.lstrip("-").isdigit():
            raise ParseError(f"value of {k} must be an integer", line, text.index(item) + 1)
        kv[k] = _int(v, line, text.index(item) + len(k) + 2)
    kind = parts[1]
    allowed = {"p", "prec"} | ({"deg"} if kind == "unram" else set())
    for k in kv:
        if k not in allowed:
            raise ParseError(f"unknown ring option {k!r}", line, 1)
    if "p" not in kv or "prec" not in kv:
        raise ValidationError("ring line requires p= and prec=")
    p, prec = kv["p"], kv["prec"]
    try:
        if kind == "zp":
            return truncated_zp(p, prec)
        if kind == "fpt":
            return truncated_fpt(p, prec)
        return build_unramified(p, kv.get("deg", 1), prec)
    except InvalidInput as exc:
        raise ValidationError(str(exc)) from None


def ring_line(ring: Ring) -> str:
    if ring.kind == MIXED:
        return f"ring zp p={ring.p} prec={ring.precision}"
    if ring.kind == EQUAL:
        return f"ring fpt p={ring.p} prec={ring.precision}"
    if ring.kind == UNRAMIFIED:
        return f"ring unram p={ring.p} deg={ring.residue_degree} prec={ring.precision}"
    raise ValidationError(f"{ring.describe()} has no ring-line form")


# ---------------------------------------------------------------------------
# canonical printing


def _monomial_text(exp) -> str:
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(f"X{i + 1}")
        elif e > 1:
            parts.append(f"X{i + 1}^{e}")
    return "*".join(parts)


def poly_text(f: MultiPoly) -> str:
    """Canonical text: graded-lex term order, least nonnegative coefficients."""
    if f.is_zero:
        return "0"
    pieces = []
    for exp in sorted(f.terms, key=lambda e: (sum(e), e)):
        c = f.terms[exp]
        mono = _monomial_text(exp)
        ctext = text_of(c)
        if not mono:
            pieces.append(ctext)
        elif c == f.ring.one:
            pieces.append(mono)
        else:
            pieces.append(f"{ctext}*{mono}")
    return " + ".join(pieces)


def map_document(f: PolyMap) -> str:
    """Canonical multi-line document for a map, including its ring line."""
    lines = [ring_line(f.ring) if f.ring.kind != RESIDUE_FIELD else f"# {f.ring.describe()}"]
    lines.append(f"map n={f.nvars}")
    for i, comp in enumerate(f.components):
        lines.append(f"F{i + 1} = {poly_text(comp)}")
    return "\n".join(lines)


def map_digest(f: PolyMap) -> str:
    import hashlib  # loaded by the commands that print a digest only

    return hashlib.sha256(map_document(f).encode()).hexdigest()[:16]


def parse_map_document(text: str) -> tuple:
    """Parse 'ring ... / map n=... / F1 = ... / ...'; returns (ring, map, raw).

    Lines may be separated by newlines or by '/'. `raw` keeps the component
    texts for callers that need the pre-reduction integer polynomials.
    """
    lines = []
    for ln, chunk in enumerate(text.replace("/", "\n").split("\n"), start=1):
        s = chunk.strip()
        if s and not s.startswith("#"):
            lines.append((ln, s))
    if not lines:
        raise ParseError("empty input", 1, 1)
    ring = None
    nvars = None
    comps = []
    raw = []
    for ln, s in lines:
        if s.startswith("ring"):
            if ring is not None:
                raise ValidationError("duplicate ring line")
            ring = parse_ring_line(s, ln)
        elif s.startswith("map"):
            m = re.fullmatch(r"map\s+n\s*=\s*(\d+)", s)
            if m is None:
                raise ParseError("expected 'map n=<int>'", ln, 1)
            nvars = _int(m.group(1), ln, m.start(1) + 1)
            if nvars < 1:
                raise ValidationError("map needs n >= 1")
        elif s.startswith("F"):
            m = re.match(r"F(\d+)\s*=\s*(.*)$", s)
            if m is None:
                raise ParseError("expected 'F<k> = <polynomial>'", ln, 1)
            if ring is None or nvars is None:
                raise ValidationError("ring and map lines must precede components")
            k = _int(m.group(1), ln, 2)
            if k != len(comps) + 1:
                raise ValidationError(f"component F{k} out of order")
            comps.append(parse_poly(m.group(2), ring, nvars, ln))
            raw.append(m.group(2))
        else:
            raise ParseError(f"unrecognized line {s!r}", ln, 1)
    if ring is None:
        raise ValidationError("missing ring line")
    if nvars is None:
        return ring, None, tuple(raw)
    if len(comps) != nvars:
        raise ValidationError(f"expected {nvars} components, found {len(comps)}")
    return ring, PolyMap(comps), tuple(raw)
