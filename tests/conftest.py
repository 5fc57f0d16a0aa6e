"""Pytest configuration: make the shared helpers importable, and let a
failing property test report under ``-W error``."""

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis reports a falsifying example through ``hypothesis.extra.
# _patching``, which imports ``libcst``; on some versions that import raises
# a DeprecationWarning (``mypy_extensions.TypedDict``), and ``-W error`` turns
# it into a pytest INTERNALERROR that loses the test's name and example and
# ends the run. Importing libcst once here, with only DeprecationWarning
# ignored and only for this import, keeps every other warning an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
