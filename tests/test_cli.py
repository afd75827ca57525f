import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kellermaps
from kellermaps.cli import main, parse_input, render_json, run_job
from kellermaps.errors import BadPrime, ParseError, ValidationError
from kellermaps.parsing import (
    MAX_PRECISION,
    map_document,
    parse_integer_poly,
    parse_map_document,
    parse_poly,
    parse_ring_line,
    poly_text,
)
from kellermaps.polynomials import MultiPoly
from kellermaps.rings import build_unramified, truncated_fpt, truncated_zp

COUNTEREXAMPLE = "ring fpt p=5 prec=2 / map n=2 / F1 = X1 - X1^5 / F2 = X2 - X2^5"


def test_parse_example_document():
    spec = parse_input("ring zp p=5 prec=2 / map n=2 / F1 = X1 - X1^5 / F2 = X2 - X2^5")
    assert spec.ring == truncated_zp(5, 2)
    assert spec.map.nvars == 2


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_input("ring zp p=5 prec=2 / map n=1 / F1 = X1^^2")
    with pytest.raises(ValidationError):
        parse_input("ring zp p=6 prec=2 / map n=1 / F1 = X1")
    with pytest.raises(ValidationError):
        parse_input("ring zp p=5 prec=2 / map n=2 / F1 = X1")
    with pytest.raises(ParseError):
        parse_input("ring zp p=5 prec=2 / map n=1 / F1 = X2 + 1")


def test_ring_line_round_trip():
    for text in ("ring zp p=7 prec=3", "ring fpt p=2 prec=4", "ring unram p=3 deg=2 prec=2"):
        ring = parse_ring_line(text)
        assert parse_ring_line(text) == ring


def test_poly_round_trip_canonical():
    for ring in (truncated_zp(5, 2), truncated_fpt(3, 2), build_unramified(2, 2, 2)):
        f = parse_poly("2 - X1*X2 + 3*X2^4 - X1^5", ring, 2)
        printed = poly_text(f)
        again = parse_poly(printed, ring, 2)
        assert again == f
        assert poly_text(again) == printed


def test_map_document_round_trip():
    ring, f, _ = parse_map_document(COUNTEREXAMPLE)
    doc = map_document(f)
    ring2, f2, _ = parse_map_document(doc)
    assert ring2 == ring and f2 == f


def test_bracket_coefficients_round_trip():
    u = build_unramified(2, 2, 2)
    f = MultiPoly.constant(u, 1, u.theta()) * MultiPoly.variable(u, 1, 0)
    printed = poly_text(f)
    assert "[" in printed
    assert parse_poly(printed, u, 1) == f


def test_run_check_counterexample():
    spec = parse_input(COUNTEREXAMPLE, command="check")
    doc = run_job(spec)
    assert doc["verdict"] == "not-unimodular"
    assert doc["zero_count"] == 25
    assert doc["keller"] is True


def test_run_lift_with_point():
    spec = parse_input(
        "ring zp p=7 prec=4 / map n=1 / F1 = X1^2 - 2",
        command="lift",
        options={"point": "3"},
    )
    doc = run_job(spec)
    assert int(doc["beta"]) % 7 == 3
    assert doc["m"] == 0


def test_run_lift_univariate_search():
    spec = parse_input("ring zp p=3 prec=4 / map n=1 / F1 = X1^2 + 1", command="lift")
    doc = run_job(spec)
    assert doc["extension_degree"] == 2
    assert doc["ring"].startswith("unramified")


def test_run_fiber():
    spec = parse_input(
        "ring zp p=3 prec=3 / map n=2 / F1 = X1 + X2^2 / F2 = X2",
        command="fiber",
        options={"point": "0,0"},
    )
    doc = run_job(spec)
    assert doc["count"] == 1
    assert doc["points"] == "0,0"


def test_run_construct_gmap_reports_defect_honestly():
    spec = parse_input(
        "ring fpt p=5 prec=2",
        command="construct",
        options={"name": "gmap", "dim": 2},
    )
    doc = run_job(spec)
    assert doc["keller"] is True
    assert doc["verdict"] == "unimodular"
    # computed truth: the composed residue map is not the zero function
    assert doc["composition_residue_zero"] is False
    assert doc["composition_zero_points"] == 16


def test_run_construct_charp():
    spec = parse_input(
        "ring fpt p=5 prec=2",
        command="construct",
        options={"name": "charp", "dim": 2},
    )
    doc = run_job(spec)
    assert doc["verdict"] == "not-unimodular"
    assert doc["zero_count"] == 25


def test_main_construct_charp_over_budget_reports_verdict(tmp_path, capsys):
    # 11^8 residue points exceed the default budget: the constructor must not
    # scan on its own, so the report carries the budget verdict.
    job = tmp_path / "job.txt"
    job.write_text("ring fpt p=11 prec=2")
    argv = [str(job), "--cmd", "construct", "--name", "charp", "--dim", "8", "--json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "budget-exceeded"
    assert doc["required_points"] == 11**8
    assert doc["points_checked"] == 0


def test_run_bound():
    spec = parse_input(
        "ring zp p=5 prec=2", command="bound", options={"d": 2, "dim": 82}
    )
    doc = run_job(spec)
    assert doc["holds"] is True
    assert doc["rhs"] == "5.252772"


def test_run_restrict():
    spec = parse_input(
        "ring unram p=3 deg=2 prec=1 / map n=2 / F1 = X1 + X2 / F2 = X2",
        command="restrict",
    )
    doc = run_job(spec)
    assert doc["nvars"] == 4
    assert doc["keller_input"] is True and doc["keller_descended"] is True


def test_report_determinism():
    ok = "ring zp p=3 prec=2 / map n=2 / F1 = X1 / F2 = X2"
    spec1 = parse_input(ok, command="probe", options={"trials": 3, "seed": 5})
    spec2 = parse_input(ok, command="probe", options={"trials": 3, "seed": 5})
    assert render_json(run_job(spec1)) == render_json(run_job(spec2))


def test_main_exit_codes(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(COUNTEREXAMPLE.replace(" / ", "\n"))
    assert main([str(job), "--cmd", "check", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["verdict"] == "not-unimodular"

    bad = tmp_path / "bad.txt"
    bad.write_text("ring zp p=6 prec=2")
    assert main([str(bad), "--cmd", "check"]) == 2

    notkeller = tmp_path / "notkeller.txt"
    notkeller.write_text("ring zp p=5 prec=2\nmap n=2\nF1 = X1 - X1^5\nF2 = X2 - X2^5\n")
    assert main([str(notkeller), "--cmd", "fiber"]) == 1


def test_integer_poly_keeps_large_coefficients():
    big = 2**63 + 1
    assert parse_integer_poly(f"X1^2 + {big}") == {(2,): 1, (0,): big}
    assert parse_integer_poly("-(X1 - 3)^3 + 2*X1") == {(3,): -1, (2,): 9, (1,): -25, (0,): 27}


def test_run_lift_rejects_prime_dividing_large_discriminant():
    # 3 divides 2^63 + 1, so the discriminant -4 (2^63 + 1) of X^2 + 2^63 + 1
    spec = parse_input(
        f"ring zp p=3 prec=4 / map n=1 / F1 = X1^2 + {2**63 + 1}", command="lift"
    )
    with pytest.raises(BadPrime):
        run_job(spec)


def test_main_bad_point_is_a_usage_error(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text("ring zp p=7 prec=4\nmap n=1\nF1 = X1^2 - 2\n")
    assert main([str(job), "--cmd", "lift", "--point", "a", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_main_missing_input_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "missing.txt"), "--cmd", "check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "missing.txt" in captured.err


def test_main_writes_output_file(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(COUNTEREXAMPLE.replace(" / ", "\n"))
    out = tmp_path / "report.json"
    assert main([str(job), "--cmd", "check", "--json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["zero_count"] == 25


def test_main_unwritable_output_is_a_usage_error(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(COUNTEREXAMPLE.replace(" / ", "\n"))
    out = tmp_path / "no-such-dir" / "r.txt"
    assert main([str(job), "--cmd", "check", "--json", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["--cmd", "probe", "--trials", "-1"], ["--cmd", "construct", "--name", "charp", "--dim", "-1"],
     ["--cmd", "check", "--budget", "-5"]],
)
def test_main_negative_count_is_a_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("ring fpt p=5 prec=2 / map n=1 / F1 = X1"))
    assert main(["-", "--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {argv[-2]} must be >= 0")
    with pytest.raises(ValidationError):
        parse_input("ring zp p=3 prec=2 / map n=1 / F1 = X1", "probe", {"trials": -1})


HUGE = "9" * 5000  # above the interpreter's 4,300-digit int() limit


@pytest.mark.parametrize(
    "doc",
    [f"ring zp p=5 prec=2 / map n=1 / F1 = X1 + {HUGE}",
     f"ring zp p=5 prec=2 / map n=1 / F1 = X1^{HUGE}",
     f"ring zp p=5 prec=2 / map n=1 / F1 = X{HUGE}",
     f"ring zp p=5 prec={HUGE} / map n=1 / F1 = X1",
     f"ring zp p=5 prec=2 / map n={HUGE} / F1 = X1",
     f"ring zp p=5 prec=2 / map n=1 / F{HUGE} = X1",
     "ring unram p=2 deg=2 prec=2 / map n=1 / F1 = [1-2]*X1"],
    ids=["literal", "exponent", "variable", "ring-value", "map-n", "component", "bracket"],
)
def test_main_unreadable_integer_is_a_parse_error(doc, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["-", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ") and "as an integer" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["zp", "fpt"])
def test_main_huge_precision_is_a_usage_error(kind):
    # a separate process, so that building the ring cannot hang the suite
    src = str(Path(kellermaps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kellermaps.cli", "-", "--cmd", "check"],
                          input=f"ring {kind} p=5 prec=99999999 / map n=1 / F1 = X1",
                          capture_output=True, text=True, env=env, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: prec must be between 1 and {MAX_PRECISION}")
    assert parse_ring_line(f"ring {kind} p=5 prec={MAX_PRECISION}").precision == MAX_PRECISION
    with pytest.raises(ValidationError):
        parse_ring_line(f"ring {kind} p=5 prec={MAX_PRECISION + 1}")


def _run_cli(argv, document):
    # a separate process with a timeout, so that a hang fails the test
    src = str(Path(kellermaps.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "kellermaps.cli", "-", *argv], input=document,
                          capture_output=True, text=True, env=env, timeout=20)


@pytest.mark.parametrize("name, p", [("charp", 3), ("gmap", 5)])
def test_main_construct_checks_the_dimension_before_building(name, p):
    proc = _run_cli(["--cmd", "construct", "--name", name, "--dim", "100000"], f"ring fpt p={p} prec=2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: SizeGuardExceeded: determinant of size 100000 exceeds guard 8\n"


def test_main_huge_prime_is_a_usage_error():
    proc = _run_cli(["--cmd", "check"], "ring zp p=1000000000000000000000000000057 prec=2 / map n=1 / F1 = X1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot decide primality of integers >= ")
