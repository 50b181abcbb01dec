"""Strict parsing of the ``REPRO_SERVE_PREDICT`` switch.

Same contract as ``test_env.py`` / ``test_sweep_env.py``: a mistyped
value must raise :class:`~repro.errors.ConfigError` naming the variable,
never silently change which campaign gets measured; unset means the
built-in default.
"""

import pytest

from repro.errors import ConfigError
from repro.serving.settings import serve_predict


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_PREDICT", raising=False)


class TestDefaults:
    def test_unset_means_defaults(self):
        assert serve_predict() is False


class TestPredictFlag:
    @pytest.mark.parametrize("value,expected", [("1", True), ("0", False)])
    def test_valid(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SERVE_PREDICT", value)
        assert serve_predict() is expected

    @pytest.mark.parametrize("garbage", ["true", "yes", "2", "enable"])
    def test_garbage_raises(self, monkeypatch, garbage):
        monkeypatch.setenv("REPRO_SERVE_PREDICT", garbage)
        with pytest.raises(ConfigError, match="REPRO_SERVE_PREDICT"):
            serve_predict()
