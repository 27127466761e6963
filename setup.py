"""Packaging metadata for the DTR robust-routing reproduction.

Metadata lives here (not in a ``pyproject.toml`` ``[project]`` table) so
that offline environments without ``wheel`` can still take the legacy
``setup.py develop`` path; CI installs with ``pip install -e .`` and gets
the ``repro-exp`` console entry point either way.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dtr-routing",
    version="1.0.0",
    description=(
        "Reproduction of 'Balancing Performance, Robustness and "
        "Flexibility in Routing Systems' (CoNEXT 2008)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
        "networkx>=3.0",
    ],
    extras_require={
        "test": [
            "pytest>=7.0",
            "pytest-benchmark>=4.0",
            "hypothesis>=6.0",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-exp=repro.exp.runner:main",
        ],
    },
)
