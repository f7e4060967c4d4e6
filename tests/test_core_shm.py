"""Tests for the repo-wide start-method policy (repro.core.shm)."""

from __future__ import annotations

import multiprocessing

from repro.core.shm import mp_context


class TestMpContext:
    def test_default_prefers_fork_where_available(self):
        context = mp_context()
        available = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in available else available[0]
        assert context.get_start_method() == expected
