import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fatpoint3

MODULES = ["cremona", "literals", "oracle", "speciality", "systems"]


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_each_modules_public_names(name):
    module = importlib.import_module(f"fatpoint3.{name}")
    for public in module.__all__:
        assert getattr(fatpoint3, public) is getattr(module, public)


def test_package_names_are_declared_in_a_module():
    modules = [importlib.import_module(f"fatpoint3.{name}") for name in MODULES]
    declared = {public for module in modules for public in module.__all__}
    exported = {
        name
        for name, value in vars(fatpoint3).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == declared


def test_package_import_loads_the_oracle():
    # bench/tracing.py reads sys.modules["fatpoint3.oracle"] after ``import fatpoint3``
    src = str(Path(fatpoint3.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, fatpoint3; sys.exit('fatpoint3.oracle' not in sys.modules)"
    subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120
    )


def test_readme_library_sketch_runs_as_written(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # the values the block's comments give
    assert namespace["dim"] == 19
    assert namespace["special"] is True and namespace["excess"] == 9
    assert namespace["check"] == 19
    assert capsys.readouterr().out.startswith("16 11 7^8\n")
