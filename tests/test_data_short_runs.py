"""The load_csv tests of test_data.py again, with the body read in runs of
8 characters, so that every table they make spans runs: one ``np.loadtxt``
call per line or two, and a ``csv.reader`` tail that starts mid-table."""

from unittest.mock import patch

import pytest

import test_data


@pytest.fixture(autouse=True)
def _short_runs():
    with patch("mlscore.data._CHUNK_CHARS", 8):
        yield


globals().update(
    (name, test) for name, test in vars(test_data).items() if name.startswith("test_load_csv")
)
