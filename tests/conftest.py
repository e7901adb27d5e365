import os
from pathlib import Path

import pytest

import wiretaplab


def pytest_configure(config):
    # pyproject.toml's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so a PYTHONPATH naming another tree would be ignored without a word.
    imported = Path(wiretaplab.__file__).resolve().parent
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        package = Path(entry, "wiretaplab")
        if (package / "__init__.py").is_file():
            if package.resolve() != imported:
                raise pytest.UsageError(
                    f"PYTHONPATH names wiretaplab at {package.resolve()}, but {imported} "
                    "was imported; run pytest with -c and --rootdir set to that tree"
                )
            break


def pytest_report_header(config):
    return f"wiretaplab under test: {Path(wiretaplab.__file__).parent}"
