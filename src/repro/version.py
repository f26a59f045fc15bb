"""The package version, sourced from the installed distribution metadata.

Lives in its own tiny module so the CLI (and ``repro.__version__``) can read
it without importing the whole package.  When running from a source checkout
(``PYTHONPATH=src``) there is no installed distribution to ask, so the value
falls back to the version pinned in ``pyproject.toml``.
"""

from __future__ import annotations

from importlib.metadata import PackageNotFoundError, version as _distribution_version

#: kept in sync with ``[project] version`` in pyproject.toml for checkouts
_FALLBACK_VERSION = "2.0.0"

try:
    __version__ = _distribution_version("repro")
except PackageNotFoundError:  # running from a source tree
    __version__ = _FALLBACK_VERSION
