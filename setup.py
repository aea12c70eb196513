"""Setuptools entry point.

A classic setup.py is kept (and pyproject.toml carries no [build-system]
table) so that ``pip install -e .`` works in fully offline environments
where the 'wheel' package is unavailable: pip then uses the legacy
``setup.py develop`` path, which needs only setuptools.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "mu-cuDNN reproduction: accelerating deep learning frameworks "
        "with micro-batching (CLUSTER 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
