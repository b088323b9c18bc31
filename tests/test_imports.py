"""Every name in ``repro`` has one import path: the module that defines
it.

Nine package ``__init__`` files hold only a docstring, and
``repro.system`` and ``repro.workloads`` bind only the names that
``bench/run.py`` and the README quickstart import through them. So a
benchmark child, which imports ``repro.harness.cache``,
``repro.system`` and ``repro.workloads``, loads the simulator but not
the runner, the sanitizer, telemetry, the energy model or
``multiprocessing``. And since no package init imports a submodule
that imports back into it, every module can be the first one a
process imports: a module-level import that brings an import cycle
back fails here.

The probe runs in a fresh interpreter: purging ``sys.modules`` inside
the pytest process would split class identities under the sanitizer
fixture.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

PROBE = """
import importlib
import os
import pkgutil
import sys

# (a) What bench/run.py imports, then one small run.
from repro.harness.cache import code_fingerprint
from repro.system import Chip, make_config
from repro.workloads import build_programs
chip = Chip(make_config("sf", core="ooo8", cols=2, rows=2, scale=64))
chip.run(build_programs("mv", chip.num_cores, scale=64, seed=0))
loaded = [name for name in (
    "multiprocessing", "repro.harness.runner", "repro.sim.sanitizer",
    "repro.obs.telemetry", "repro.energy.model") if name in sys.modules]
if loaded:
    sys.exit(f"a benchmark child loaded {loaded}")

root = os.path.dirname(sys.modules["repro"].__file__)
names = []
for dirpath, dirnames, filenames in os.walk(root):
    dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
    package = os.path.relpath(dirpath, os.path.dirname(root))
    package = package.replace(os.sep, ".")
    for filename in sorted(filenames):
        if filename.endswith(".py"):
            names.append(package if filename == "__init__.py"
                         else f"{package}.{filename[:-3]}")

failures = []
for name in names:
    # (b) Each module imports first, into a table with no repro entry.
    for key in [k for k in sys.modules if k.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        module = importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{name} does not import first: {exc!r}")
        continue
    # (c) A package init binds no public name but its submodules.
    if hasattr(module, "__path__") and name not in (
            "repro.system", "repro.workloads"):
        submodules = {info.name for info in pkgutil.iter_modules(
            module.__path__)}
        extra = sorted(n for n in vars(module)
                       if not n.startswith("_") and n not in submodules)
        if extra:
            failures.append(f"{name} binds {extra}")
if failures:
    sys.exit("\\n".join(failures))
print(len(names))
"""


def test_each_name_has_one_import_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    modules = sum(
        name.endswith(".py")
        for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro"))
        for name in files
    )
    assert int(proc.stdout) == modules
