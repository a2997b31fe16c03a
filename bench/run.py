#!/usr/bin/env python3
"""Seeded, oracle-checked benchmark of entcost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Operation times are given in units of a
fixed reference computation that never calls entcost; see README.md.
"""

import os

# Pinned before numpy loads: this OpenBLAS would otherwise start a thread
# per configured core on a 2-core machine.  Child processes inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, WrongOutput  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 7
IMPORT_PROBES = 3
# Seconds per reference unit used to report set-up time: the median duration
# of the unit while set-up probes ran on the machine this benchmark was
# written on (2 vCPUs, 2.1 GHz Xeon).  See README.md.
NOMINAL_REF_S = 3.3e-3

# -- reference computation ---------------------------------------------------
# One reference unit is 200 fixed 3x3 Hermitian eigvalsh calls plus a
# 1500-step scalar binary-entropy loop: the two kinds of work entcost's
# searches do.  It is run in tenths ("micro-references").  eigvalsh is bound
# here, before a traced run wraps numpy.linalg, so the reference never
# passes through a wrapper.
_eigvalsh = np.linalg.eigvalsh
_ref_rng = np.random.default_rng(20110826)
_REF_MATS = [g + g.conj().T for g in (_ref_rng.standard_normal((20, 3, 3))
                                       + 1j * _ref_rng.standard_normal((20, 3, 3)))]
_REF_XS = [0.0005 + 0.999 * i / 150 for i in range(150)]
MICRO_PER_REF = 10
SAMPLE_INTERVAL_S = 0.02


def cpu_seconds() -> float:
    """CPU time of this process plus that of the children it has waited for.

    CPU time rather than wall time, so that the periods in which another
    tenant's process holds the core do not count against entcost."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def micro_reference() -> float:
    """CPU seconds taken by one tenth of a reference unit."""
    t0 = time.process_time()
    for m in _REF_MATS:
        _eigvalsh(m)
    acc = 0.0
    log2 = math.log2
    for x in _REF_XS:
        acc -= x * log2(x) + (1.0 - x) * log2(1.0 - x)
    return time.process_time() - t0


class RefClock:
    """Times a call in reference units.

    The speed of this machine changes many times a second, so a reference
    taken only before and after a call that lasts a second misses the
    changes inside it.  A micro-reference therefore runs just before the
    call, every 20 ms of wall time during it (from a SIGALRM handler, between
    bytecodes; a child process keeps running meanwhile), and just after it.
    The call's CPU time, less the time spent in those samples, is divided by
    ten times their mean.  Samples over twice the median, which something
    else interrupted, are left out of the mean.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        t0 = time.process_time()
        self.samples.append(micro_reference())
        self.spent += time.process_time() - t0

    def time(self, fn):
        """Returns (ok, result or exception, CPU seconds, reference units)."""
        self.samples = [micro_reference()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = cpu_seconds()
        try:
            res, ok = fn(), True
        except Exception as exc:  # any failure of the program counts as a failed operation
            res, ok = exc, False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            dt = cpu_seconds() - t0 - self.spent
        self.samples.append(micro_reference())
        cut = 2.0 * statistics.median(self.samples)
        unit = MICRO_PER_REF * statistics.mean(x for x in self.samples if x <= cut)
        return ok, res, dt, dt / unit


# -- helpers -----------------------------------------------------------------

def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(clock: RefClock, workload: str, seed: int) -> float:
    """Set-up time of fresh interpreters that import entcost and build the
    workload's inputs: the median over probes, in reference units, read as
    seconds at NOMINAL_REF_S per unit.  The first probe, which may write
    bytecode caches, is not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    times, ratios = [], []
    for i in range(SETUP_PROBES + 1):
        ok, res, dt, ratio = clock.time(
            lambda: subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        if not ok:
            raise res
        if i:
            times.append(dt)
            ratios.append(ratio)
    log(f"setup: median {statistics.median(times):.4f} CPU s, "
        f"{statistics.median(ratios):.2f} ref")
    return statistics.median(ratios) * NOMINAL_REF_S


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import entcost.cli; "
            "print(time.perf_counter() - t)")
    out = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout)
           for _ in range(IMPORT_PROBES)]
    return statistics.median(out)


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- runs --------------------------------------------------------------------

def measured_run(clock: RefClock, wl, inputs, seconds: float, record_path: Path) -> dict:
    """Closed loop, one operation at a time, whole rounds until ``seconds``
    have passed.  Every operation is timed in reference units."""
    attempted = failed = 0
    wrong, op_refs, op_secs, round_refs, record = [], [], [], [], []
    rss_kb = 0
    clock.time(micro_reference)  # warm-up
    start = time.perf_counter()
    k = 0
    while True:
        total = 0.0
        for op in wl.round(inputs, k):
            attempted += 1
            ok, res, dt, ratio = clock.time(op.run)
            total += ratio
            record.append((k, op.label, dt, ratio, ok))
            if not ok:
                failed += 1
                if failed <= 2:
                    log(f"failed: {op.label}: {type(res).__name__}: {res}")
                continue
            op_refs.append(ratio)
            op_secs.append(dt)
            try:
                op.check(res)
            except WrongOutput as exc:
                wrong.append(f"{op.label}: {exc}")
            if wl.name == "cli":
                rss_kb = max(rss_kb, res[1])
        round_refs.append(total)
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    for msg in wrong[:5]:
        log(f"wrong: {msg}")
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    if wl.name != "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log(f"{wl.name}: {k} rounds, {attempted} ops, op median {statistics.median(op_secs):.4f} s")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "round_ref": statistics.median(round_refs),
            "op_p50_ref": statistics.median(op_refs),
            "peak_rss_mb": rss_kb / 1024.0,
        },
    }


def traced_run(wl, inputs, seconds: float) -> dict:
    """A fixed number of rounds, derived from ``seconds`` alone so that the
    counts repeat exactly for a seed.  Each operation runs untraced (checked
    against the oracle), then traced; the two results must be equal."""
    rounds = max(1, int(seconds / wl.trace_round_s))
    tracer = Tracer()
    tracer.install()
    attempted = failed = 0
    wrong, gaps = [], []
    plain_s = traced_s = 0.0

    def attempt(fn, traced):
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            return True, fn(), time.perf_counter() - t0
        except Exception as exc:  # a failure must fail the same way when traced
            return False, type(exc).__name__, time.perf_counter() - t0
        finally:
            tracer.active = False

    try:
        for k in range(rounds):
            for op in wl.round(inputs, k):
                attempted += 1
                ok, res, dt = attempt(op.run, False)
                if op.inproc is not op.run:  # cli: the base is the same command in-process
                    _, _, dt = attempt(op.inproc, False)
                plain_s += dt
                ok_t, res_t, dt_t = attempt(op.inproc, True)
                traced_s += dt_t
                if ok != ok_t or (ok and op.key(res) != op.key(res_t)):
                    wrong.append(f"{op.label}: traced result differs from untraced")
                if not ok:
                    failed += 1
                    continue
                try:
                    gap = op.check(res)
                except WrongOutput as exc:
                    wrong.append(f"{op.label}: {exc}")
                    continue
                if gap is not None:
                    gaps.append(gap)
    finally:
        tracer.uninstall()
    for msg in wrong[:5]:
        log(f"wrong: {msg}")
    metrics = tracer.metrics()
    metrics["cli.import_s"] = import_seconds()
    metrics["eof.gap_max_bits"] = max(gaps) if gaps else 0.0
    metrics["eof.gap_p50_bits"] = statistics.median(gaps) if gaps else 0.0
    metrics["tracing.overhead"] = traced_s / plain_s
    log(f"{wl.name}: traced {rounds} rounds, {attempted} ops, {len(gaps)} exact gaps")
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only import entcost and build the inputs (set-up timing)")
    args = parser.parse_args(argv)

    if not (SRC / "entcost" / "__init__.py").is_file():
        log(f"error: no entcost sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import entcost

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.probe:
        wl.build(args.seed, entcost, ROOT)
        return 0

    manifest = load_manifest()
    oracles.selfcheck()
    inputs = wl.build(args.seed, entcost, ROOT)
    if args.trace:
        result = traced_run(wl, inputs, args.seconds)
        declared = manifest["per_layer"]
        values = result["metrics"]
        full = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        full.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    else:
        clock = RefClock()
        setup = setup_seconds(clock, args.workload, args.seed)
        result = measured_run(clock, wl, inputs, args.seconds,
                              RESULTS / f"ops-{args.workload}-seed{args.seed}.json")
        declared = manifest["end_to_end"]
        values = dict(result["metrics"], setup_s=setup)
    # A layer the workload never enters reads 0; every end-to-end metric must exist.
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0) if args.trace
                                     else values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
