"""Setuptools shim for offline editable installs: ``python setup.py
develop`` works without the ``wheel`` package that ``pip install -e .``
(the PEP-660 editable path) requires.  All metadata lives in
pyproject.toml.
"""

from setuptools import setup

setup()
