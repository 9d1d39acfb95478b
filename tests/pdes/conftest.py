"""pdes suite configuration: opt-in sanitized runs.

Mirrors ``tests/simmpi/conftest.py``: ``REPRO_SANITIZE=1`` forces the
simulation sanitizer onto every ``Cluster.run`` — the byte-identity
tests still pass because the sanitizer leaves canonical artifacts
untouched, and the reference (single-engine) path is exercised with it
armed.  A test that must run without the sanitizer opts out with
``@pytest.mark.no_sanitize``.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _sanitize_when_requested(request):
    if os.environ.get("REPRO_SANITIZE") and "no_sanitize" not in request.keywords:
        request.getfixturevalue("sanitize_runs")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "no_sanitize: skip the REPRO_SANITIZE autouse sanitizer"
    )
