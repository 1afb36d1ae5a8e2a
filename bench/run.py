"""nanolab benchmark runner: one process, one closed-loop client.

    python3 bench/run.py --workload {ensemble,spectrum,sweep,bigtube} \
        --seed N --seconds S --trace {0,1}

Imports nanolab from ``src/`` of the checkout this file sits in, draws the
workload's inputs from the seed, sets up, then repeats the workload for about
S seconds (no repetition starts that would end past S by the mean repetition
time), each repetition starting after the previous one returned.
Every output is checked against a known answer.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: setup_s (median of five complete
set-ups: this process and four fresh interpreters), norm_wall_s (median
repetition time), pass_frac (checked operations that passed / attempted) and
peak_rss_mb.  Both times are read on speedclock.SpeedClock, which rescales
wall time by the machine's momentary speed; the raw repetition wall times go
to stderr.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of bench/layers.py instead, from raw wall times.

Exits non-zero without a result line when nanolab cannot be imported from the
checkout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()


def _keep_freed_memory_mapped() -> None:
    """Stop glibc from returning freed memory to the kernel.

    The library allocates and frees large temporary arrays in its inner loops.
    With glibc's default thresholds each one is unmapped on free and faulted in
    again on the next allocation; in a virtual machine those page faults made a
    quarter of the ensemble's time system time and varied by about 30 % from
    one repetition to the next.  Keeping freed memory mapped removes that noise
    (and that cost) from every measurement.
    """
    import ctypes
    import ctypes.util

    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return  # not glibc: nothing to tune
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    mallopt(m_mmap_threshold, 1 << 30)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_top_pad, 64 << 20)


_keep_freed_memory_mapped()

import speedclock  # noqa: E402

CLOCK = speedclock.SpeedClock()
CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SUBPROCESS_TIMEOUT_S = 120
FRESH_SETUPS = 4  # set-ups in fresh interpreters, besides this process's own


def _import_program():
    if not (SRC / "nanolab" / "__init__.py").is_file():
        sys.exit(f"bench: no nanolab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import nanolab

    if Path(nanolab.__file__).resolve().parent != SRC / "nanolab":
        sys.exit(f"bench: imported nanolab from {nanolab.__file__}, not from {SRC}")


def _warm_up() -> None:
    """Pay the lazy costs the first verdict would otherwise pay: the
    scipy.linalg import inside null_space_report and the first BLAS calls."""
    import numpy as np
    import scipy.linalg  # noqa: F401

    a = np.random.default_rng(0).standard_normal((96, 96))
    np.linalg.eigh(a @ a.T)


def _setup(workload: str, seed: int, workdir: Path):
    import numpy as np
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    state = WORKLOADS[workload][0](np.random.default_rng(seed), workdir)
    _warm_up()
    return state


def _fresh_setup_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports, inputs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SETUP_SUBPROCESS_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _repetition(run, state, outdir: Path):
    from workloads import Checks

    shutil.rmtree(outdir, ignore_errors=True)  # no stale output can pass a check
    outdir.mkdir(parents=True)
    checks = Checks(outdir)
    start = time.perf_counter()
    run(state, checks)
    return start, time.perf_counter(), checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["ensemble", "spectrum", "sweep", "bigtube"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    _import_program()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        state = _setup(args.workload, args.seed, workdir / "in")
        setup_s = CLOCK.cost(_T0, time.perf_counter())
        if args.setup_only:
            print(repr(setup_s))
            return 0
        result = _measure(args, state, workdir / "out", setup_s)
    finally:
        CLOCK.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"env": _environment(args)}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _measure(args, state, outdir: Path, setup_s: float) -> dict:
    import layers
    import spans
    from workloads import WORKLOADS

    _, run, exact_calls = WORKLOADS[args.workload]
    tracer = spans.Tracer()
    untraced, traced, verdicts, reference = [], [], [], None
    correct = True
    count_mismatch = 0
    missing: list[str] = []
    if args.trace == 1:
        CLOCK.stop()  # traced and untraced repetitions alike on raw wall time
    start = time.perf_counter()
    while True:
        with_trace = args.trace == 1 and len(traced) < len(untraced)
        if with_trace:
            first_span = len(tracer.spans)
            missing, uninstall = spans.install(tracer, layers.TARGETS)
            try:
                rep_start, rep_end, checks = _repetition(run, state, outdir)
            finally:
                uninstall()
            wall = rep_end - rep_start
            rep_spans = tracer.spans[first_span:]
            rep_stats = spans.summarize(rep_spans)
            traced.append((wall, rep_stats["covered_s"]))
            for name, expected in exact_calls(state).items():
                seen = rep_stats["functions"].get(name, {}).get("calls", 0)
                if seen != expected:
                    count_mismatch += 1
                print(f"bench: exact count {name}.calls = {seen}, expected {expected}", file=sys.stderr)
        else:
            rep_start, rep_end, checks = _repetition(run, state, outdir)
            untraced.append((rep_start, rep_end))
        verdicts += checks.verdicts
        for name, ok, detail in checks.failed:
            print(f"bench: check failed: {name}: {detail}", file=sys.stderr)
        # identical inputs must give byte-identical -o files, traced or not
        outputs = checks.outputs
        if reference is None:
            reference = outputs
        elif outputs != reference:
            correct = False
            diff = sorted(k for k in set(outputs) | set(reference) if outputs.get(k) != reference.get(k))
            print(f"bench: outputs differ between repetitions: {diff}", file=sys.stderr)
        # start no repetition that would end past the measuring time
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / (len(untraced) + len(traced))) > args.seconds and (args.trace == 0 or traced):
            break

    CLOCK.stop()
    untraced_wall = [end - begin for begin, end in untraced]
    print(f"bench: repetition walls untraced {[round(w, 4) for w in untraced_wall]} "
          f"traced {[round(w, 4) for w, _ in traced]}", file=sys.stderr)
    if args.trace == 0:
        print(f"bench: repetition costs {[round(CLOCK.cost(b, e), 4) for b, e in untraced]}, speed probe median "
              f"{statistics.median(CLOCK.probe_s()) * 1e3:.4f} ms of {len(CLOCK.starts)}", file=sys.stderr)
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if not v[1])
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median([setup_s] + [_fresh_setup_s(args.workload, args.seed) for _ in range(FRESH_SETUPS)]), "s"),
            "norm_wall_s": (statistics.median(CLOCK.cost(begin, end) for begin, end in untraced), "s"),
            "pass_frac": ((attempted - failed) / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        if missing:
            print(f"bench: tracer could not find: {', '.join(missing)}", file=sys.stderr)
        stats = spans.summarize(tracer.spans)["functions"]
        metrics = layers.per_layer_metrics(stats, len(traced), missing)
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced) - statistics.median(untraced_wall), "s")
        metrics["trace.unattributed_s"] = (statistics.median(w - c for w, c in traced), "s")
        metrics["trace.missing"] = (len(missing), "count")
        metrics["trace.count_mismatch"] = (count_mismatch, "count")
        for name, (value, unit) in metrics.items():
            print(f"bench: {name:<46} {value:>14.6g} {unit}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _environment(args) -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


if __name__ == "__main__":
    sys.exit(main())
