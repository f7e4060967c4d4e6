"""The repo-wide multiprocessing start-method policy.

No training or scoring path starts a process pool any more; this
module stays only because the end-to-end benchmark (``perfbench/``)
imports :func:`mp_context` for the start method of its host block
(``benchmarks/bench_lib.py`` records the same field).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.context import BaseContext


def mp_context() -> BaseContext:
    """The ``fork`` context where the platform offers it, else the
    platform's first start method."""
    available = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in available else available[0]
    )
