"""Setup shim: keeps ``pip install -e .`` working on offline environments
whose setuptools lacks the PEP 660 editable-wheel path (no ``wheel`` pkg)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'ImageNet Training in Minutes' (You et al., ICPP 2018): "
        "LARS large-batch training on a simulated HPC cluster"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
