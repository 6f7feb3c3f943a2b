"""Suite-wide fixtures.

Engine-backed commands cache completed cells under ``$REPRO_CACHE_DIR``
(default ``~/.cache/repro``).  The suite points that at one temp dir
per session, so no test reads a cell an earlier session left behind or
writes into the user's cache.
"""

import pytest

from repro.exec.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def session_result_cache(tmp_path_factory):
    """Point the result cache at a fresh directory for this session."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            CACHE_DIR_ENV, str(tmp_path_factory.mktemp("result-cache"))
        )
        yield
