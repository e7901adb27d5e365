from pathlib import Path

import wiretaplab


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this checkout's src ahead of PYTHONPATH,
    # so name the package a run actually tests.
    return f"wiretaplab under test: {Path(wiretaplab.__file__).parent}"
