"""Setup script.

The project has no ``pyproject.toml`` or ``setup.cfg``: the bare ``setup()``
call lets setuptools auto-discover the package under ``src/``, so it builds
as ``repro``, version 0.0.0 (see ``python3 setup.py egg_info``).  Editable
installs also work on environments whose ``pip``/``setuptools`` lack PEP 660
support (e.g. offline machines without the ``wheel`` package):

    pip install -e . --no-use-pep517 --no-build-isolation
"""

from setuptools import setup

setup()
