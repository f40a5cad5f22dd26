"""Shared test settings.

Property tests run derandomized, so every run draws the same examples; with
no deadline, so a slow host does not fail them; and with no example
database.  Hypothesis also mines literal constants from the project modules
that are loaded and caches them under its home directory: importing every
module here keeps the drawn examples the same whichever tests are selected,
and the home directory is moved out of the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import bifree  # noqa: F401
import bifree.cli  # noqa: F401

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "bifree-hypothesis")
settings.register_profile("bifree", derandomize=True, deadline=None, database=None)
settings.load_profile("bifree")
