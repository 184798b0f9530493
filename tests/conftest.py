import importlib
import os
import pkgutil
import sys

# make the sibling oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))

import tcpsync
from hypothesis import settings

# property tests draw the same examples on every run: derandomize fixes each
# property's seed and turns the example database off
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# Hypothesis also draws from the literals of the project modules loaded so
# far, so a property's examples would depend on which test files were
# collected with it.  Loading every tcpsync module here gives each property
# the same examples under `pytest tests/` as under its own file.
for module in pkgutil.iter_modules(tcpsync.__path__):
    importlib.import_module(f"tcpsync.{module.name}")
