"""Packaging metadata for the ``repro`` library.

The package lives under ``src/`` (``src/repro``); its version is read from
``repro.__version__``.  The runtime, test and benchmark dependencies are
listed once, in ``requirements.txt``: install them with
``pip install -r requirements.txt``, then the package with ``pip install -e .``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
