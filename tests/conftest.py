import sys
import warnings
from pathlib import Path

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

# When a Hypothesis test fails, its pytest plugin imports this module to
# write a patch; through libcst it imports mypy_extensions, whose import-time
# DeprecationWarning the error::DeprecationWarning filter would turn into an
# INTERNALERROR that ends the session.  Import it once here, with only that
# warning silenced; the filter still applies to every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is optional; without it the plugin skips the patch
        pass
