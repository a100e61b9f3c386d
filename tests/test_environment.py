"""pyproject.toml declares the environment the CI workflow installs and runs the suite on, and the grouse script."""
import importlib
import re
import tomllib
from pathlib import Path

from grouse import cli

ROOT = Path(__file__).resolve().parent.parent


def test_declared_floors_are_the_ci_pins():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pythons = re.findall(r'python-version:\s*"([\d.]+)"', workflow)
    pins = dict(re.findall(r"\b([a-z][\w-]*)==([\d.]+)", workflow))
    assert len(pythons) == 1 and project["requires-python"] == f">={pythons[0]}"
    floors = dict(re.fullmatch(r"([a-z][\w-]*)>=([\d.]+)", dep).groups() for dep in project["dependencies"])
    assert floors and floors == {name: pins.get(name) for name in floors}


def test_console_script_is_the_cli_main():
    # every README example calls the grouse script that this entry declares
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["grouse"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
