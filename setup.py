"""Legacy setup shim.

The reproduction environment is offline and has no ``wheel`` package, so the
PEP 517/660 editable-install path (which builds a wheel) is unavailable.
Keeping a ``setup.py`` lets ``pip install -e .`` fall back to the classic
``setup.py develop`` route.  It is the package's only metadata file.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Python reproduction of 'DROM: Enabling Efficient and Effortless "
        "Malleability for Resource Managers' (ICPP 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # Only figure queries (IPC histograms, binned timelines) use numpy and
    # import it on first call; campaigns, workers and the store CLIs run
    # without it.
    install_requires=["numpy>=1.24"],
)
