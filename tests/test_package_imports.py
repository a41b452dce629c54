"""What importing a package costs, and what its lazy re-exports give.

The inits of ``repro``, ``repro.core`` and ``repro.analysis`` resolve
their public names on first use, so a process that only serves loads
the service stack and no simulator package until a job runs one.  Each
check that depends on what an interpreter has already imported runs in
a fresh one.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Simulator packages a served process must not load until a job of a
#: simulator kind runs.
SIMULATOR = ("core", "cp", "fpu", "links", "memory", "occam",
             "algorithms", "system", "runtime", "topology", "baselines")

LAZY = ("repro", "repro.core", "repro.analysis")

SUBPACKAGES = sorted(
    f"repro.{name}" for name in os.listdir(os.path.join(SRC, "repro"))
    if os.path.isfile(os.path.join(SRC, "repro", name, "__init__.py")))


def fresh(code):
    """Run ``code`` in a new interpreter on ``src/``; its stdout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_and_job_keys_load_no_simulator():
    loaded = json.loads(fresh(
        "import json, sys\n"
        "import repro.service.__main__\n"
        "from repro.service.jobkey import JobSpec, job_key\n"
        "job_key(JobSpec(kind='service.chaos', tier='turbo',\n"
        "                spec={'label': 'a', 'x': 7, 'rounds': 3}))\n"
        "job_key(JobSpec(kind='events', tier='turbo',\n"
        "                spec={'kind': 'events', 'channels': 1,\n"
        "                      'stores': [], 'resources': [],\n"
        "                      'procs': [], 'interrupts': []}))\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    # A loaded module's package is loaded too, so packages suffice.
    assert sorted({f"repro.{name}" for name in SIMULATOR}
                  & set(loaded)) == []
    assert "numpy" not in loaded
    assert "repro.service.net.server" in loaded


@pytest.mark.parametrize("module", ["repro"] + SUBPACKAGES + [
    "repro.links.frame", "repro.core.specs", "repro.analysis.tracing"])
def test_module_imports_first(module):
    # No import cycle depends on another package having loaded first.
    assert fresh(f"import {module}; print('ok')").strip() == "ok"


@pytest.mark.parametrize("package", LAZY)
def test_every_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    # ``repro`` re-exports from ``repro.core``'s modules.
    subtree = ("repro.core" if package == "repro" else package) + "."
    for name in pkg.__all__:
        value = getattr(pkg, name)
        if name in vars(pkg):
            continue  # ``__version__``: the init defines it
        homes = {module_name: vars(module)[name]
                 for module_name, module in list(sys.modules.items())
                 if module_name.startswith(subtree)
                 and name in vars(module)}
        assert homes, name
        assert all(bound is value for bound in homes.values()), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in homes, name


@pytest.mark.parametrize("package", LAZY)
def test_star_import_and_dir_list_every_export(package):
    bound = json.loads(fresh(
        "import json\n"
        f"from {package} import *\n"
        f"import {package} as pkg\n"
        "print(json.dumps([sorted(pkg.__all__),\n"
        "                  sorted(n for n in pkg.__all__\n"
        "                         if n in globals()),\n"
        "                  sorted(set(pkg.__all__) & set(dir(pkg)))]))\n"))
    names, star, listed = bound
    assert star == names
    assert listed == names


@pytest.mark.parametrize("package", LAZY)
def test_unknown_name_is_an_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
    assert getattr(pkg, "no_such_name", 7) == 7
