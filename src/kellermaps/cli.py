"""Command-line front end.

One job per invocation: a ring/map document (file or stdin) plus a command
flag selects a library operation; the report is printed as an aligned text
table or, with --json, as a flat JSON document with sorted keys, so
identical jobs produce byte-identical machine-readable output.

Commands:
  check      Keller + unimodularity report for the parsed map.
  lift       Hensel-lift --point, or (n = 1, no point) find a root of the
             integer polynomial in the smallest unramified extension.
  fiber      All solutions of F(x) = --point at working precision.
  restrict   Restriction of scalars for a map over an unram ring.
  probe      Seeded invariance probe (--trials, --seed).
  bound      Monomial-count bound report (--d, ring supplies p, map or
             --dim supplies n).
  construct  Named example builders (--name charp|gmap|extension).
"""

from __future__ import annotations

import argparse
import json
import sys

# Only what argument parsing and error reporting need is imported here; each
# command imports its library modules when it runs, so --help, usage errors
# and unreadable input load no library module, `check` never loads hensel or
# constructions, and `construct`, `probe` and `restrict` never load hensel.
from .errors import DEFAULT_BUDGET, KellermapsError, ParseError, ValidationError


class JobSpec:
    """A validated job: ring, parsed map (None without map lines), the raw
    component texts, the command and its options."""

    __slots__ = ("ring", "map", "raw_components", "command", "options")

    def __init__(self, ring, map, raw_components, command="check", options=None):
        self.ring = ring
        self.map = map
        self.raw_components = raw_components
        self.command = command
        self.options = {} if options is None else options


DEFAULT_OPTIONS = {
    "point": None,
    "trials": 20,
    "seed": 1,
    "budget": DEFAULT_BUDGET,
    "name": None,
    "dim": 2,
    "d": None,
}


def parse_input(text: str, command: str = "check", options: dict | None = None) -> JobSpec:
    """Validate a ring/map document and the job options into a JobSpec."""
    opts = dict(DEFAULT_OPTIONS)
    if options:
        opts.update(options)
    for key in ("trials", "dim", "budget"):
        if opts[key] < 0:
            raise ValidationError(f"--{key} must be >= 0, got {opts[key]}")
    from .parsing import parse_map_document

    ring, poly_map, raw = parse_map_document(text)
    return JobSpec(ring=ring, map=poly_map, raw_components=raw, command=command, options=opts)


def _parse_point(ring, text: str) -> tuple:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            value = int(chunk)
        except ValueError:
            raise ValidationError(f"--point: {chunk!r} is not an integer") from None
        out.append(ring.from_int(value))
    return tuple(out)


def run_job(spec: JobSpec) -> dict:
    """Dispatch a validated job; returns the flat report document."""
    handler = _HANDLERS.get(spec.command)
    if handler is None:
        raise ValidationError(f"unknown command {spec.command!r}")
    return handler(spec)


def _need_map(spec: JobSpec):
    if spec.map is None:
        raise ValidationError(f"command {spec.command!r} requires map components")
    return spec.map


def _cmd_check(spec: JobSpec) -> dict:
    from . import unimodular

    f = _need_map(spec)
    report = unimodular.check_unimodular(f, budget=spec.options["budget"])
    doc = report.to_dict()
    doc["command"] = "check"
    return doc


def _cmd_lift(spec: JobSpec) -> dict:
    from . import hensel
    from .parsing import map_digest, parse_integer_poly
    from .rings import point_text, text_of

    f = _need_map(spec)
    budget = spec.options["budget"]
    if spec.options["point"] is not None:
        alpha = _parse_point(spec.ring, spec.options["point"])
        result = hensel.hensel_lift(f, alpha)
        return {
            "command": "lift",
            "ring": spec.ring.describe(),
            "map_digest": map_digest(f),
            "beta": point_text(result.beta),
            "m": result.m,
            "iterations": result.iterations,
            "uniqueness_modulus_exponent": result.uniqueness_exponent,
            "precision": result.precision,
        }
    if f.nvars != 1:
        raise ValidationError("univariate root lifting needs a one-variable map")
    coeffs = parse_integer_poly(spec.raw_components[0])
    result = hensel.lift_univariate_root(
        coeffs, spec.ring.p, spec.ring.precision, budget=budget
    )
    return {
        "command": "lift",
        "ring": result.ring.describe(),
        "extension_degree": result.residue_degree,
        "root": text_of(result.root),
        "iterations": result.lift.iterations,
        "precision": result.lift.precision,
    }


def _cmd_fiber(spec: JobSpec) -> dict:
    from . import hensel
    from .parsing import map_digest
    from .rings import point_text

    f = _need_map(spec)
    c = None
    if spec.options["point"] is not None:
        c = _parse_point(spec.ring, spec.options["point"])
    points = hensel.fiber_points(f, c, budget=spec.options["budget"])
    return {
        "command": "fiber",
        "ring": spec.ring.describe(),
        "map_digest": map_digest(f),
        "target": point_text(c) if c else "0" + ",0" * (f.nvars - 1),
        "count": len(points),
        "points": " | ".join(point_text(pt) for pt in points),
    }


def _cmd_restrict(spec: JobSpec) -> dict:
    from . import constructions
    from .jacobian import is_keller
    from .parsing import poly_text

    f = _need_map(spec)
    descended = constructions.restrict_scalars(f)
    return {
        "command": "restrict",
        "ring": spec.ring.describe(),
        "descended_ring": descended.ring.describe(),
        "nvars": descended.nvars,
        "keller_input": is_keller(f),
        "keller_descended": is_keller(descended),
        "components": " | ".join(poly_text(c) for c in descended.components),
    }


def _cmd_probe(spec: JobSpec) -> dict:
    from . import constructions
    from .parsing import map_digest

    f = _need_map(spec)
    report = constructions.invariance_probe(
        f,
        trials=spec.options["trials"],
        seed=spec.options["seed"],
        budget=spec.options["budget"],
    )
    doc = {
        "command": "probe",
        "ring": spec.ring.describe(),
        "map_digest": map_digest(f),
        "trials": report.trials,
        "seed": report.seed,
        "failures": len(report.failures),
        "all_passed": report.all_passed,
    }
    for i, failure in enumerate(report.failures):
        doc[f"failure_{i}"] = f"{failure.kind} trial={failure.trial} {failure.detail}"
    return doc


def _cmd_bound(spec: JobSpec) -> dict:
    from . import unimodular

    d = spec.options["d"]
    if d is None:
        if spec.map is None:
            raise ValidationError("--d or map components required for bound")
        d = spec.map.monomials_above_degree(3)
    n = spec.map.nvars if spec.map is not None else spec.options["dim"]
    result = unimodular.degree_bound_predicate(spec.ring.p, n, d)
    return {
        "command": "bound",
        "p": spec.ring.p,
        "n": n,
        "d": result.lhs,
        "rhs": f"{result.rhs:.6f}",
        "holds": result.holds,
    }


def _cmd_construct(spec: JobSpec) -> dict:
    from . import constructions, unimodular

    name = spec.options["name"]
    n = spec.options["dim"]
    ring = spec.ring
    if name == "charp":
        f = constructions.char_p_counterexample(ring.p, n, ring.precision, ring)
        report = unimodular.check_unimodular(f, budget=spec.options["budget"])
        doc = report.to_dict()
        doc.update({"command": "construct", "name": "charp", "n": n})
        return doc
    if name == "gmap":
        f = constructions.g_composition_example(n, ring.precision, ring)
        report = unimodular.check_unimodular(f, budget=spec.options["budget"])
        defect = constructions.g_composition_zero_defect(f, budget=spec.options["budget"])
        doc = report.to_dict()
        doc.update(
            {
                "command": "construct",
                "name": "gmap",
                "n": n,
                "composition_residue_zero": defect["nonzeros"] == 0,
                "composition_zero_points": defect["zeros"],
                "composition_nonzero_points": defect["nonzeros"],
            }
        )
        return doc
    if name == "extension":
        d = spec.options["d"]
        if d is None:
            raise ValidationError("--d is required for the extension construct")
        result = constructions.find_d_unimodular_extension(ring.p, d, ring.precision)
        return {
            "command": "construct",
            "name": "extension",
            "p": ring.p,
            "d": d,
            "extension_degree": result.n,
            "residue_size": result.residue_size,
            "ring": result.ring.describe(),
            "certificate": f"{result.certificate_lhs} < {result.certificate_rhs}",
            "certificate_holds": result.certificate_holds,
        }
    raise ValidationError("--name must be one of charp, gmap, extension")


_HANDLERS = {
    "check": _cmd_check,
    "lift": _cmd_lift,
    "fiber": _cmd_fiber,
    "restrict": _cmd_restrict,
    "probe": _cmd_probe,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
}


def render_text(doc: dict) -> str:
    width = max(len(k) for k in doc)
    return "\n".join(f"{k.ljust(width)}  {doc[k]}" for k in sorted(doc))


def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellermaps",
        description="Unimodularity checks and Hensel lifting for Keller maps "
        "over truncated local rings.",
    )
    parser.add_argument("input", nargs="?", default="-",
                        help="ring/map document (path, or - for stdin)")
    parser.add_argument("--cmd", default="check",
                        choices=sorted(_HANDLERS), help="operation to run")
    parser.add_argument("--point",
                        help="comma-separated integers (lift start / fiber target)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--budget", type=int,
                        help="maximum number of enumerated points")
    parser.add_argument("--name",
                        help="construct name: charp, gmap or extension")
    parser.add_argument("--dim", type=int,
                        help="dimension for constructs without map lines")
    parser.add_argument("--d", type=int,
                        help="degree/monomial bound for bound and extension")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.set_defaults(**DEFAULT_OPTIONS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        options = {key: getattr(args, key) for key in DEFAULT_OPTIONS}
        spec = parse_input(text, command=args.cmd, options=options)
        doc = run_job(spec)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KellermapsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    rendered = render_json(doc) if args.json else render_text(doc)
    if not args.out:
        print(rendered)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
