"""End-to-end smoke test of ``repro serve`` as a real subprocess.

The serving test suites exercise :class:`repro.serve.ReproServer`
in-process; this script covers the one seam they cannot — the CLI
entry point itself: model loading from disk, ephemeral-port binding,
the startup banner, every endpoint over a real socket from a separate
process, and a clean SIGTERM shutdown.  Used by ``make serve-smoke``
and the CI serving job.

Exit status 0 on success; any failure prints a diagnostic and exits
non-zero within the overall deadline (no hung CI jobs).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.meter import FuzzyPSM  # noqa: E402
from repro.obs.core import now  # noqa: E402
from repro.persistence import save_meter  # noqa: E402

#: Overall wall-clock budget for the whole smoke run.
DEADLINE = 120.0

BASE_DICTIONARY = [
    "password", "iloveyou", "monkey", "dragon", "sunshine",
    "princess", "football", "woaini", "qwerty", "letmein",
]
TRAINING = [
    "password", "password123", "iloveyou1", "woaini520",
    "monkey99", "qwerty12", "sunshine!", "dragon2008",
    "letmein1", "princess7", "football12", "123456",
]

_BANNER = re.compile(r"serving \d+ worker\(s\) on http://([\d.]+):(\d+)")


def _fail(message: str, process: subprocess.Popen) -> "NoReturn":  # noqa: F821
    # Kill the server's whole process group: anything left alive
    # holding the server's stdout open would block the read below.
    os.killpg(process.pid, signal.SIGKILL)
    tail = process.stdout.read() if process.stdout else ""
    print(f"serve-smoke FAILED: {message}", file=sys.stderr)
    if tail:
        print(f"--- server output ---\n{tail}", file=sys.stderr)
    sys.exit(1)


def _request(port: int, method: str, path: str, body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def main() -> int:
    started = now()
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as workdir:
        model_path = os.path.join(workdir, "smoke-model.json")
        meter = FuzzyPSM.train(BASE_DICTIONARY, TRAINING)
        expected = meter.probability("password123")
        save_meter(meter, model_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", model_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO_ROOT, start_new_session=True,
        )
        try:
            banner = process.stdout.readline()
            match = _BANNER.search(banner)
            if match is None:
                _fail(f"bad startup banner: {banner!r}", process)
            port = int(match.group(2))
            print(f"server up on port {port}")

            status, payload = _request(
                port, "POST", "/check", {"password": "password123"}
            )
            assert status == 200 and payload["probability"] == expected, (
                "check",
                payload,
            )
            status, payload = _request(
                port, "POST", "/suggest", {"password": "password123"}
            )
            assert status == 200 and payload["suggestions"], payload
            status, payload = _request(
                port, "POST", "/policy",
                {"password": "abc", "policy": "6-20"},
            )
            assert status == 200 and payload["allowed"] is False, payload
            status, payload = _request(
                port, "POST", "/accept",
                {"password": "zebra42!", "count": 5},
            )
            assert status == 200 and payload["epoch"] >= 1, payload
            accepted_epoch = payload["epoch"]
            # The accept updates the served meter: the next check must
            # score the updated grammar exactly as a local meter given
            # the same update.
            meter.update("zebra42!", 5)
            status, payload = _request(
                port, "POST", "/check", {"password": "zebra42!"}
            )
            assert status == 200 \
                and payload["probability"] == meter.probability("zebra42!") \
                and payload["epoch"] == accepted_epoch, ("check", payload)
            status, payload = _request(port, "GET", "/healthz")
            assert status == 200 and payload["status"] == "healthy", (
                payload
            )
            status, payload = _request(port, "GET", "/metrics")
            counters = payload["counters"]
            assert counters.get("serve.requests", 0) >= 5, counters
            assert counters.get("serve.accepts", 0) == 1, counters
            print(f"endpoints OK: {counters.get('serve.requests')} "
                  f"requests, epoch {payload['epoch']}")
        except AssertionError as error:
            _fail(f"endpoint assertion: {error}", process)
        finally:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(
                        timeout=max(1.0, DEADLINE
                                    - (now() - started))
                    )
                except subprocess.TimeoutExpired:
                    _fail("server ignored SIGTERM", process)

        if process.returncode != 0:
            print(f"serve-smoke FAILED: exit {process.returncode}",
                  file=sys.stderr)
            print(process.stdout.read(), file=sys.stderr)
            return 1
    print(f"serve-smoke OK in {now() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
