import os
import sys

# make the sibling oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
