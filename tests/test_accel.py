"""``repro.accel``: the two calls ``perfbench/`` still makes."""

import pytest

from repro import accel


class TestSelection:
    def test_default_is_python(self):
        with accel.use("python") as name:
            assert name == "python"
            assert accel.resolved_backend() == "python"

    def test_unknown_backend_rejected(self):
        for name in ("compiled", "auto", "lanes"):
            with pytest.raises(ValueError, match=name):
                with accel.use(name):
                    pass
