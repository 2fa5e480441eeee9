"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def table_cache(tmp_path_factory, monkeypatch):
    """Give each test an empty cache of its own, and return its path.

    The JSONL loaders cache what they parse in $SEARCHBIAS_CACHE_DIR, so no
    test sees entries another test wrote, and none writes into the user's
    cache. Subprocesses, such as the benchmark smoke runs, inherit it.
    """
    path = tmp_path_factory.mktemp("table-cache")
    monkeypatch.setenv("SEARCHBIAS_CACHE_DIR", str(path))
    return path
