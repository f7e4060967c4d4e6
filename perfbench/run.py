"""fuzzyPSM end-to-end benchmark: the analyst pipeline and /check beside /accept.

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 40 --trace 0

One run measures one workload:

1. ``corpora.py`` writes the seeded inputs (base dictionary, training
   corpus, scored stream) and plans the serve requests;
2. ``analyst.py`` runs the offline path in a child process, one round
   at a time: streamed training to a saved FPSMBIN1 model, reload and
   bulk scoring, and in the first round guess enumeration and mask
   compilation;
3. ``serving.py`` launches ``repro serve`` with its defaults on the
   first round's model, ``LAUNCHES`` times, and drives each launch
   through an open-loop phase at a fixed Poisson rate and a closed-loop
   phase on two keep-alive connections.  An analyst round runs after
   each launch, so rounds and launches alternate over the whole run;
4. ``checks.py`` verifies the outputs of both paths.

The host this benchmark was built on runs each of its two cores at one
of two speeds, about 2x apart, in spells of a few seconds, and the
share of slow spells drifts over minutes.  Two devices keep the
results steady:

* every launch sends the same plans to a fresh server, and each
  open-loop request's latency is its fastest over the launches: a
  request sits inside one spell, and its counterparts, some seconds
  apart, give it several chances to meet a fast one;
* a fixed workload of the benchmark's own (probe.py) times the host
  during the analyst rounds, and the CPU-bound numbers (the analyst's,
  and ``check_rps``, whose closed loop keeps the core busy) are scaled
  to a reference host speed by it.  Low-load latencies are not scaled:
  much of them is wake-ups and loopback I/O, which the probe does not
  track.  The numbers as measured are printed beside.

The end-to-end serve numbers are ``check_p50_ms`` and ``check_rps``.
The closed loop sends one accept per 20 checks, and the rebuilds the
accepts trigger take most of its time, so ``check_rps`` carries the
cost of the write path.  ``check_p99_ms`` and the accept latencies are
per-layer numbers: over ten seeds their spread (third quartile minus
first, over the median) reached 0.26, and over the same five seeds
their medians moved by about a quarter between two sets of runs while
the host factor moved 3%.

The last stdout line is the result: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, its per-layer metrics from a traced
run with ``--trace 1``.  The lines before it give the host, the
measured input properties and every number measured, with its sample
count.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

import checks
import corpora
import serving
from corpora import ACCEPT, CHECK
from serving import SEGMENT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Open-loop offered rate (req/s), named in BENCHMARK.json's workload
#: reasons.  It is about a fifth of the closed-loop rate as measured on
#: a 2-core host.  At 100 req/s on ``tail`` the frozen-grammar rebuilds
#: after each accept kept the server busy so much of the time that
#: ``check_p50_ms`` moved between the idle and the queued regime from
#: one run to the next.
OPEN_RATE = 75.0
WORKLOADS = ("tail", "zipf")

#: ``repro serve`` launches per run; ``LAUNCHES + 1`` analyst rounds.
LAUNCHES = 4
#: Shares of ``--seconds`` given to the open- and closed-loop phases,
#: summed over the launches.
OPEN_SHARE = 0.6
CLOSED_SHARE = 0.16
#: Seconds the analyst may take to answer one command.
ANALYST_TIMEOUT = 150.0
#: Inputs deleted once a run has passed its checks.
BULKY = ("base.txt", "corpus.txt", "stream.txt", "model.fpsm", "round.fpsm")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def _git_sha() -> str:
    """HEAD's commit when the checkout is a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Analyst:
    """The ``analyst.py`` child process, driven one round at a time."""

    def __init__(self, work: str, trace: int, seed: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "analyst.py"), "--work",
             work, "--trace", str(trace), "--seed", str(seed)],
            cwd=ROOT, env=serving.program_env(ROOT), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Analyst":
        return self

    def __exit__(self, *_exc) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            with contextlib.suppress(OSError):
                pipe.close()

    def round(self) -> None:
        self.process.stdin.write("round\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    ANALYST_TIMEOUT)
        if not (ready and self.process.stdout.readline()):
            raise RuntimeError("analyst.py did not finish a round")

    def finish(self) -> Dict:
        out, _ = self.process.communicate("finish\n", ANALYST_TIMEOUT)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"analyst.py exited with status {self.process.returncode}"
            )
        return json.loads(out.splitlines()[-1])


def _fastest_latencies(launches: List[Dict],
                       budget_ms: float) -> Dict[str, List[float]]:
    """Each open-loop request's fastest latency (ms) over the launches.

    A failed request counts as slower than every answered one: its
    latency is the phase's whole time budget.
    """
    fastest: Dict[str, List[float]] = {CHECK: [], ACCEPT: []}
    for counterparts in zip(*(launch["open"] for launch in launches)):
        fastest[counterparts[0].kind].append(min(
            (r.done - r.due) * 1000.0 if r.ok else budget_ms
            for r in counterparts
        ))
    return fastest


def _closed_rate(launches: List[Dict]) -> Tuple[float, int]:
    """Closed-loop checks per second as measured, and the segment count.

    Each segment every launch completed counts with its median time
    over the launches.
    """
    segments = [statistics.median(times) for times in
                zip(*(launch["segments"] for launch in launches))]
    checked = sum(1 for r in launches[0]["closed"][:len(segments) * SEGMENT]
                  if r.kind == CHECK)
    return checked / sum(segments), len(segments)


def _serve_numbers(launches: List[Dict], verdicts: List[Dict],
                   open_seconds: float,
                   host_factor: float) -> Dict[str, Tuple[float, int]]:
    """Serve-side numbers as ``name -> (value, samples)``.

    Latency percentiles are over each request's fastest launch, as
    measured.  ``check_rps`` is scaled by the run's ``host_factor``
    (see probe.py): the closed loop keeps the core busy, so its rate
    follows the host's speed; ``check_rps.median`` is as measured.
    """
    fastest = _fastest_latencies(
        launches, (open_seconds + serving.GRACE) * 1000.0
    )
    rate, segments = _closed_rate(launches)
    opened = [r for launch in launches for r in launch["open"]]
    waits = [(r.sent - r.due) * 1000.0 for r in opened if r.sent is not None]
    late = [r.late * 1000.0 for r in opened if r.late is not None]
    server = [launch["metrics_open"]["latency"] for launch in launches]
    counters = [launch["metrics_end"]["counters"] for launch in launches]

    def total(name: str) -> int:
        return sum(block.get(name, 0) for block in counters)

    dispatches = total("serve.batch.dispatches")
    checked = sum(v["checks"] for v in verdicts)
    return {
        "serve_rss_mib": (max(launch["rss_mib"] for launch in launches),
                          len(launches)),
        "check_p50_ms": (percentile(fastest[CHECK], 0.50),
                         len(fastest[CHECK])),
        "check_p99_ms": (percentile(fastest[CHECK], 0.99),
                         len(fastest[CHECK])),
        "accept_p50_ms": (percentile(fastest[ACCEPT], 0.50),
                          len(fastest[ACCEPT])),
        "accept_p90_ms": (percentile(fastest[ACCEPT], 0.90),
                          len(fastest[ACCEPT])),
        "check_rps": (rate * host_factor, segments),
        "check_rps.median": (rate, segments),
        "serve.ready_s": (
            statistics.median(launch["setup"][0] for launch in launches),
            len(launches),
        ),
        "serve.first_check_s": (
            statistics.median(launch["setup"][1] for launch in launches),
            len(launches),
        ),
        "serve.server_p50_ms": (
            statistics.median(block["p50"] for block in server) * 1000.0,
            sum(block["count"] for block in server),
        ),
        "serve.server_p99_ms": (
            statistics.median(block["p99"] for block in server) * 1000.0,
            sum(block["count"] for block in server),
        ),
        "serve.client_queue_p99_ms": (percentile(waits, 0.99), len(waits)),
        "serve.batch_mean": (
            total("serve.batch.requests") / max(1, dispatches), dispatches,
        ),
        "serve.errors": (total("serve.http.errors")
                         + total("serve.internal.errors"), len(launches)),
        "client.late_p99_ms": (percentile(late, 0.99), len(late)),
        "stale_frac": (sum(v["stale"] for v in verdicts) / max(1, checked),
                       checked),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fuzzyPSM end-to-end benchmark, one workload per run."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses 0.05)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: the program source src/repro is missing",
              file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, so the processes this run started stop.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)
    import repro.cli  # noqa: F401  (byte-compiles the serve path once)
    from repro.core.shm import mp_context
    from repro.persistence import load_meter

    work = os.path.join(
        ROOT, ".perfbench",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}",
    )
    os.makedirs(work)
    open_seconds = OPEN_SHARE * args.seconds / LAUNCHES
    closed_seconds = CLOSED_SHARE * args.seconds / LAUNCHES
    inputs = corpora.build(args.workload, args.seed, args.scale, work,
                           OPEN_RATE, open_seconds, closed_seconds)
    model = os.path.join(work, "model.fpsm")
    launches: List[Dict] = []
    with open(os.path.join(work, "serve.log"), "w",
              encoding="utf-8") as log, \
            Analyst(work, args.trace, args.seed) as analyst:
        analyst.round()
        for _launch in range(LAUNCHES):
            launches.append(serving.launch(ROOT, model, inputs, open_seconds,
                                           closed_seconds, log))
            analyst.round()
        offline = analyst.finish()
    verdicts = [checks.verify_serve(load_meter(model), launch["records"])
                for launch in launches]

    records = sum(len(launch["records"]) for launch in launches)
    attempted = offline["attempted"] + records
    failed = offline["failed"] + sum(v["failed"] for v in verdicts)
    rounds = offline["rounds"]
    measured: Dict[str, Tuple[float, int]] = {
        "setup_s": (offline["setup_s"], rounds),
        "setup_s.median": (offline["setup_s.median"], rounds),
        "host_factor": (offline["host_factor"], rounds),
        "train_eps": (offline["train_eps"], rounds),
        "score_pps": (offline["score_pps"], rounds),
        "guess_gps": (offline["guess_gps"], 1),
        "peak_rss_mib": (offline["peak_rss_mib"], 1),
    }
    for name, value in offline["medians"].items():
        measured[f"{name}.median"] = (value, rounds)
    measured.update(_serve_numbers(launches, verdicts, open_seconds,
                                   offline["host_factor"]))
    measured["failed_frac"] = (failed / attempted, attempted)
    for name, value in (offline["layers"] or {}).items():
        measured[name] = (value, 1)
    report = {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "start_method": mp_context().get_start_method(),
            "git_sha": _git_sha(),
            "seed": args.seed,
        },
        "inputs": inputs["properties"],
        "segments": dict(offline["segments"],
                         closed=measured["check_rps"][1]),
        "parse_rules": offline["parse_rules"],
        "checks": {
            "attempted": attempted,
            "failed": failed,
            "stale": sum(v["stale"] for v in verdicts),
            "serve_checks": sum(v["checks"] for v in verdicts),
            "accepts": sum(v["accepts"] for v in verdicts),
            "notes": offline["faults"]
            + [note for v in verdicts for note in v["notes"]][:10],
        },
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    for key, value in report.items():
        print(f"# {key} {json.dumps(value, sort_keys=True)}")
    for name, (value, samples) in measured.items():
        print(f"# {name} = {value!r} {units.get(name, '')} (n={samples})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    with open(os.path.join(work, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dict(report, measured=measured, result=result,
                       stages=offline["stages"]), handle, indent=1)
    if failed == 0:
        for name in BULKY:
            path = os.path.join(work, name)
            if os.path.exists(path):
                os.remove(path)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
