"""Legacy setup shim.

The environment's setuptools is too old for PEP 660 editable installs without
the ``wheel`` package; ``python setup.py develop`` (or ``pip install -e .
--no-build-isolation``) works through this shim.
"""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The simulated hardware is a C extension compiled from this source on
    # first import (repro.hardware.native), so the source ships as data.
    package_data={"repro.hardware": ["_cachesim.c"]},
    # Every dataset is drawn from numpy's PCG64 stream and the vectorized
    # engine's kernels compute with it.
    install_requires=["numpy>=1.24"],
    python_requires=">=3.10",
)
