"""No command loads SciPy: the library runs on NumPy alone.

SciPy's optimizers take about 0.3 s and 40 MB of RSS to import, which is
more than a 10M-pulse ``simulate`` costs; the tests keep it as a reference.
The run check uses a fresh interpreter because this test process imports
SciPy through other tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qkdlink

SCRIPT = """
import sys

import qkdlink
import qkdlink.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


out = sys.argv[1]
commands = [
    ["simulate", "--pulses", "20000", "--out", f"{out}/tags.bin",
     "--sifted-key", f"{out}/key.txt"],
    ["histogram", "--pulses", "20000", "--bin-ps", "5", "--out", f"{out}/h.csv"],
    ["sweep-distance", "--out", f"{out}/d.csv"],
    ["sweep-distance", "--engine", "mc", "--pulses", "20000", "--out", f"{out}/dmc.csv"],
    ["sweep-bias", "--out", f"{out}/b.csv"],
    ["calibrate", "--out", f"{out}/fit.cfg"],
]
for argv in commands:
    assert qkdlink.cli.main(argv) == 0, argv
assert scipy_modules() == [], scipy_modules()
print("ok")
"""


def test_no_command_imports_scipy(tmp_path):
    src = str(Path(qkdlink.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def test_import_builds_no_parser():
    # A process that only imports the package and loads its config pays
    # nothing for the command-line parser; the first main() call builds it.
    src = str(Path(qkdlink.__file__).resolve().parents[1])
    code = ("import qkdlink, qkdlink.cli; qkdlink.default_config(); "
            "print(qkdlink.cli._build_parser.cache_info().currsize)")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_no_library_module_imports_scipy():
    imported = []  # (file, top-level package) of every absolute import
    for path in sorted(Path(qkdlink.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
    assert ("keyrate.py", "math") in imported and ("calibrate.py", "numpy") in imported
    assert [item for item in imported if item[1] == "scipy"] == []


def test_package_imports_form_no_cycle():
    """The package's modules import one another without a cycle, so each
    module's decisions sit below the modules that use them."""
    package = Path(qkdlink.__file__).resolve().parent
    imports = {}  # module -> the package modules it imports, at any depth of its code
    for path in sorted(package.glob("*.py")):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[path.stem] |= {node.module} if node.module else {
                    alias.name for alias in node.names}
    assert {"linkbudget", "protocol"} <= imports["montecarlo"]
    # Peel off modules whose imports are all peeled; what is left holds a cycle.
    left = dict(imports)
    while ready := [name for name, targets in left.items() if not targets & left.keys()]:
        for name in ready:
            del left[name]
    assert left == {}, left
