import json
import subprocess
import sys
from pathlib import Path

import cstardom

# Imports every module named on the command line, after putting the source
# directory first on sys.path, and prints the top-level modules that neither
# belong to the package nor ship with Python.
PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    importlib.import_module(name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in loaded
    if name != "cstardom" and name not in sys.stdlib_module_names
)))
"""


def test_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies; an isolated
    # interpreter (-I: no PYTHONPATH, no user site) imports every module of
    # the package and must load nothing from outside the standard library.
    # -B keeps the probe from writing bytecode into the checkout.
    package = Path(cstardom.__file__).parent
    modules = ["cstardom"] + sorted(
        f"cstardom.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE, str(package.parent), *modules],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
