"""Unit tests for the PowerTM token manager."""

import pytest

from repro.htm.power import PowerTokenManager


class TestGranting:
    def test_free_token_granted_immediately(self):
        mgr = PowerTokenManager()
        granted = []
        mgr.request(3, lambda: granted.append(3))
        assert granted == [3]
        assert mgr.holder == 3

    def test_held_token_queues(self):
        mgr = PowerTokenManager()
        granted = []
        mgr.request(1, lambda: granted.append(1))
        mgr.request(2, lambda: granted.append(2))
        assert granted == [1]
        mgr.release(1)
        assert granted == [1, 2]
        assert mgr.holder == 2

    def test_fifo_order(self):
        mgr = PowerTokenManager()
        granted = []
        for cid in (1, 2, 3, 4):
            mgr.request(cid, lambda c=cid: granted.append(c))
        for cid in (1, 2, 3):
            mgr.release(cid)
        assert granted == [1, 2, 3, 4]

    def test_re_request_by_holder_is_granted(self):
        mgr = PowerTokenManager()
        granted = []
        mgr.request(1, lambda: granted.append("a"))
        mgr.request(1, lambda: granted.append("b"))
        assert granted == ["a", "b"]

    def test_double_queue_rejected(self):
        mgr = PowerTokenManager()
        mgr.request(1, lambda: None)
        mgr.request(2, lambda: None)
        with pytest.raises(RuntimeError):
            mgr.request(2, lambda: None)


class TestRelease:
    def test_release_by_non_holder_rejected(self):
        mgr = PowerTokenManager()
        mgr.request(1, lambda: None)
        with pytest.raises(RuntimeError):
            mgr.release(2)

    def test_release_empty_queue(self):
        mgr = PowerTokenManager()
        mgr.request(1, lambda: None)
        mgr.release(1)
        assert mgr.holder is None


class TestStats:
    def test_grant_count(self):
        mgr = PowerTokenManager()
        mgr.request(1, lambda: None)
        mgr.release(1)
        mgr.request(2, lambda: None)
        assert mgr.grants == 2
