"""pyproject.toml declares the environment the CI workflow installs and runs the suite on."""
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_declared_floors_are_the_ci_pins():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    pythons = re.findall(r'python-version:\s*"([\d.]+)"', workflow)
    pins = dict(re.findall(r"\b([a-z][\w-]*)==([\d.]+)", workflow))
    assert len(pythons) == 1 and project["requires-python"] == f">={pythons[0]}"
    floors = dict(re.fullmatch(r"([a-z][\w-]*)>=([\d.]+)", dep).groups() for dep in project["dependencies"])
    assert floors and floors == {name: pins.get(name) for name in floors}
