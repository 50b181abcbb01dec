"""Host-time benchmark of the simulator: how fast it compiles new design
points, serves long request traces and searches a design space.

Run from the repository root::

    python3 hostbench/run.py --workload compile-sweep --seed 0 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``compile-sweep``: cold ``GraphEngine.compile_graph`` of resnet50,
  bert-base (seq 128) and gesture, each op on a seeded design-point
  variant of ``ascend`` or ``ascend-max`` the process has never seen;
  then a warm pass recompiles every pair from the disk tier in a fresh
  process.  Throughput is scheduled instruction events per second.
* ``serve-overload`` / ``serve-light``: continuous-batching campaigns of
  the serve-smoke tenant mix at rate scale 2.0 / 0.5, one seeded trace
  of 3,500 requests per op.  Throughput is requests reaching a terminal
  state per second.
* ``dse-edge``: predictor-gated searches over the ``edge`` space, each
  op one seeded search whose candidates the supervisor simulates in the
  measured process.  Throughput is proposed candidates per second of
  the whole search.

Load is a closed loop from one process: each op starts when the previous
one returned.  ``--seed`` generates the inputs (design-point variants,
traces, search seeds); ``--seconds`` sets how many ops a run makes, at
a fixed number of ops per second for each workload (enough ops that
the median over ops repeats from seed to seed).

``--trace 0`` prints the end-to-end metrics: the median of three set-up
samples (two set-up-only processes and the measured run's own), peak
RSS of the measured process, the median op time and the throughput.
Set-up and op times are host seconds scaled to a reference host speed
by the probe in ``probe.py``, which measures how fast this shared host
runs Python while the workload runs; the summary line also prints the
plain wall-clock median op.
``--trace 1`` runs the workload untraced and then traced, checks that
both give identical outputs, and prints the per-layer metrics of the
traced run with the tracing overhead (traced / untraced median op).
The span columns are kept in ``.hostbench/trace-<workload>.npz``.

Simulated outputs are checked (pinned digests at ``--seed 0``,
invariants at every seed) but never scored: the repository holds no
hardware reference.  The last line of standard output is the JSON
result; everything before it is a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (not an op failure)."""


class Runner:
    """Starts worker processes for one invocation and cleans up after."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = ROOT / ".hostbench" / (
            f"{args.workload}-{args.seed}-{os.getpid()}")
        self.work.mkdir(parents=True)
        self.count = 0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.env = env

    def child(self, mode: str, *extra: str) -> dict:
        self.count += 1
        work = self.work / f"{mode}-{self.count}"
        work.mkdir()
        out = work / "result.json"
        cmd = [sys.executable, str(WORKER), mode,
               "--workload", self.args.workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--work", str(work), "--out", str(out), *extra]
        # A private compile cache per process: every set-up sample and
        # every measured run starts cold.
        env = {**self.env, "REPRO_CACHE_DIR": str(work / "cache")}
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0,
                                         self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # The worker's own children (pool workers, the warm pass)
            # share its session: stop any that outlived it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise BenchmarkError(
                f"{mode} worker for {self.args.workload} "
                f"{'timed out' if code is None else f'exited {code}'}")
        return json.loads(out.read_text())

    def close(self) -> None:
        trace = next(self.work.glob("*/trace.npz"), None)
        if trace is not None:
            os.replace(trace, ROOT / ".hostbench" /
                       f"trace-{self.args.workload}.npz")
        shutil.rmtree(self.work, ignore_errors=True)


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, as
    (percentile, value); None when that is below the median."""
    n = len(samples)
    if n < 20:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)
    return pct, sorted(samples)[rank - 1]


def pin_ok(run: dict) -> bool:
    pin = run["pin"]
    return pin is None or pin["expected"] == pin["actual"]


def describe(name: str, run: dict, label: str) -> None:
    ops = run["op_s"]
    line = (f"{name} [{label}]: {len(ops)} ops, op p50 {median(ops):.4f} s "
            f"(wall {median(run['op_wall_s']):.4f} s)"
            if ops else f"{name}: no ops")
    t = tail(ops)
    if t is not None:
        line += f", op p{t[0]} {t[1]:.4f} s (n={len(ops)})"
    line += f", throughput {run['throughput']:.6g}/s"
    warm = run["info"].get("warm_op_p50_s")
    if warm is not None:
        line += (f", warm op p50 {warm:.4f} s "
                 f"(n={run['info']['warm_ops']})")
    line += f", setup {run['setup_s']:.3f} s, rss {run['rss_mb']:.1f} MB"
    if "probe_p50_s" in run["info"]:
        line += f", probe p50 {run['info']['probe_p50_s'] * 1e6:.0f} us"
    print(line)
    if run["pin"] is not None:
        print(f"  pinned digest {run['pin']['actual']} "
              f"{'ok' if pin_ok(run) else 'MISMATCH'}")
    for err in run["errors"][:3]:
        print(err, file=sys.stderr)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    # A terminated run still stops its workers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = Runner(args)
    try:
        if args.trace:
            base = runner.child("run", "--raw")
            traced = runner.child("run", "--trace")
            runs = [base, traced]
            describe(args.workload, base, "untraced")
            describe(args.workload, traced, "traced")
            values = dict(traced["layers"])
            values["trace.overhead"] = (median(traced["op_s"])
                                        / median(base["op_s"]))
            same = base["outputs"] == traced["outputs"]
            print(f"  traced outputs {'equal' if same else 'DIFFER from'} "
                  f"untraced; overhead x{values['trace.overhead']:.3f}")
            wanted = spec["per_layer"]
        else:
            setups = [runner.child("setup")
                      for _ in range(SETUP_SAMPLES - 1)]
            run = runner.child("run")
            runs = [run]
            same = True
            describe(args.workload, run, "untraced")
            values = {
                "setup_s": median([s["setup_s"] for s in setups]
                                  + [run["setup_s"]]),
                "peak_rss_mb": run["rss_mb"],
                "op_p50_s": median(run["op_s"]),
                "throughput": run["throughput"],
            }
            wanted = spec["end_to_end"]
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and same and all(pin_ok(r) for r in runs)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
