"""The import contract: the package namespace is lazy and each CLI command
loads only the library modules it runs.

Module sets are read in fresh interpreters, since this test process has
already imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kellermaps

SRC = Path(kellermaps.__file__).resolve().parent.parent
SUBMODULES = ("cli", "constructions", "errors", "hensel", "jacobian", "parsing",
              "polynomials", "rings", "unimodular")
# every library module that a process may import, dataclasses and hashlib
WATCHED = ["dataclasses", "hashlib"] + [f"kellermaps.{name}" for name in SUBMODULES]

CHECK_DOC = "ring fpt p=5 prec=2 / map n=2 / F1 = X1 - X1^5 / F2 = X2 - X2^5"
LIFT_DOC = "ring zp p=7 prec=4 / map n=1 / F1 = X1^2 - 2"
PROBE_DOC = "ring zp p=5 prec=2 / map n=2 / F1 = X1 + X2^2 / F2 = X2"
RESTRICT_DOC = "ring unram p=2 deg=2 prec=2 / map n=1 / F1 = X1"


def loaded_after(code: str) -> set:
    """The watched modules in sys.modules after running `code` in a fresh
    interpreter with this checkout's sources first on the path."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))"
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_library_module():
    assert loaded_after("import kellermaps.cli") == {"kellermaps.cli", "kellermaps.errors"}


@pytest.mark.parametrize("argv", [["--help"], ["--cmd", "nope"], ["no-such-input.txt"]],
                         ids=["help", "usage-error", "unreadable-input"])
def test_cli_exits_early_without_loading_the_library(argv):
    code = (
        "import contextlib, io\n"
        "from kellermaps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    assert loaded_after(code) == {"kellermaps.cli", "kellermaps.errors"}


def test_package_names_load_their_own_module_only():
    assert loaded_after("import kellermaps") == set()
    assert loaded_after("import kellermaps; kellermaps.truncated_zp") == {
        "kellermaps.errors", "kellermaps.rings"}


def run_main(doc: str, *argv: str) -> str:
    return (
        "import contextlib, io, sys\n"
        f"sys.stdin = io.StringIO({doc!r})\n"
        "from kellermaps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['-', '--json', *{list(argv)!r}]) == 0\n"
    )


@pytest.mark.parametrize(
    "doc, argv, absent",
    [
        (CHECK_DOC, ["--cmd", "check"], {"kellermaps.hensel", "kellermaps.constructions"}),
        ("ring zp p=7 prec=1", ["--cmd", "bound", "--d", "2"],
         {"kellermaps.hensel", "kellermaps.constructions", "hashlib"}),
        (LIFT_DOC, ["--cmd", "lift", "--point", "3"],
         {"kellermaps.unimodular", "kellermaps.constructions"}),
        (CHECK_DOC, ["--cmd", "fiber"],
         {"kellermaps.unimodular", "kellermaps.constructions"}),
        ("ring fpt p=5 prec=2", ["--cmd", "construct", "--name", "charp"], {"kellermaps.hensel"}),
        (PROBE_DOC, ["--cmd", "probe", "--trials", "2"], {"kellermaps.hensel"}),
        (RESTRICT_DOC, ["--cmd", "restrict"], {"kellermaps.hensel", "hashlib"}),
    ],
    ids=["check", "bound", "lift", "fiber", "construct", "probe", "restrict"],
)
def test_cli_command_loads_only_its_modules(doc, argv, absent):
    loaded = loaded_after(run_main(doc, *argv))
    assert "kellermaps.cli" in loaded
    assert not loaded & (absent | {"dataclasses"})


def test_no_process_imports_dataclasses():
    code = "import kellermaps\n" + "".join(f"import kellermaps.{m}\n" for m in SUBMODULES)
    loaded = loaded_after(code)
    assert "dataclasses" not in loaded
    assert len(loaded) == len(SUBMODULES)


def test_public_names_and_submodules_resolve():
    for name in SUBMODULES:
        assert getattr(kellermaps, name) is sys.modules[f"kellermaps.{name}"]
    assert kellermaps.check_unimodular is kellermaps.unimodular.check_unimodular
    assert kellermaps.DEFAULT_BUDGET == kellermaps.rings.DEFAULT_BUDGET == 10_000_000
    assert kellermaps.__version__ == "0.1.0"
    namespace = {}
    exec("from kellermaps import *", namespace)
    for name in kellermaps.__all__:
        assert namespace[name] is getattr(kellermaps, name)
    assert set(kellermaps.__all__) <= set(dir(kellermaps))
    assert "cli" not in kellermaps.__all__ and "constructions" in kellermaps.__all__
    with pytest.raises(AttributeError):
        kellermaps.no_such_name
