"""Benchmark command: ``python3 adabench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload (``plan``, ``replan`` or ``robust``) as a closed loop
with one client in one single-threaded process, checks every op against
the committed golden answers, and prints one JSON object as the last line
of standard output::

    {"correct": true, "attempted": 104, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``ops_per_s``, ``op_p50_s``, ``op_p90_s``, ``ok_frac``, ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones, from a run that executes
every op twice, once untraced and once with the span wrappers of
``spans.py`` installed. See README.md in this directory.

The script first byte-compiles the package into ``.bench_build/pycache``
and then re-executes itself with a pinned hash seed and one BLAS/OpenMP
thread, so no run pays compilation and every run hashes alike. Before the
measuring interpreter, ``SETUP_PROCESSES - 1`` fresh interpreters only set
up; ``setup_s`` is the median of all the set-ups, each timed from its
process's start to the point where its first timed op would start. Every
time metric is rescaled to a reference host speed measured with the
kernel of ``calibrate.py``, which the launcher also times just before it
starts each interpreter.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PYCACHE = os.path.join(BUILD_DIR, "pycache")
_CHILD_FLAG = "ADABENCH_EXEC_T0"
_SETUP_ONLY = "ADABENCH_SETUP_ONLY"
_PRIOR_SETUPS = "ADABENCH_PRIOR_SETUPS"
_KERNEL_BEFORE = "ADABENCH_KERNEL_BEFORE"

#: Cold set-ups per timed run, each in its own interpreter.
SETUP_PROCESSES = 3

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": PYCACHE,
}

WORKLOAD_NAMES = ("plan", "replan", "robust")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _start_env(env) -> dict:
    """``env`` plus the host speed now and the start time, for a new interpreter."""
    import calibrate  # here, once the bytecode prefix is set, so the cache holds it

    kernel = calibrate.host_speed(calibrate.SETUP_KERNELS)
    return dict(env, **{_KERNEL_BEFORE: repr(kernel), _CHILD_FLAG: repr(time.monotonic())})


def _cold_setup(argv, env) -> dict:
    """Run one set-up-only interpreter; returns its ``setup_s`` and verdict."""
    env = _start_env(dict(env, **{_SETUP_ONLY: "1"}))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)] + list(argv),
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        return {"setup_s": None, "ok": False}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"setup_s": None, "ok": False}
    return json.loads(lines[-1])


def _launch(argv) -> None:
    """Byte-compile the package, run the extra set-ups, exec the measuring interpreter."""
    args = _parse(argv)  # reject bad arguments before doing any work
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}")
    os.makedirs(PYCACHE, exist_ok=True)
    sys.pycache_prefix = PYCACHE
    for directory in (os.path.join(ROOT, "src"), HERE):
        if not compileall.compile_dir(directory, quiet=1):
            sys.exit(f"error: byte-compiling {directory} failed")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The prefix also holds the standard library's and numpy's bytecode;
    # one throwaway import writes it there before the first measured run.
    stamp = os.path.join(PYCACHE, ".imports-compiled")
    if not os.path.exists(stamp):
        subprocess.run([sys.executable, "-c", "import harness"], cwd=HERE, env=env, check=True)
        open(stamp, "w").close()
    prior = [] if args.trace else [_cold_setup(argv, env) for _ in range(SETUP_PROCESSES - 1)]
    env[_PRIOR_SETUPS] = json.dumps(prior)
    env = _start_env(env)
    script = os.path.abspath(__file__)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, script] + list(argv), env)


if __name__ == "__main__":
    if _CHILD_FLAG not in os.environ:
        _launch(sys.argv[1:])
    from harness import main

    sys.exit(
        main(
            _parse(sys.argv[1:]),
            float(os.environ[_CHILD_FLAG]),
            float(os.environ[_KERNEL_BEFORE]),
            BUILD_DIR,
            json.loads(os.environ.get(_PRIOR_SETUPS, "[]")),
            _SETUP_ONLY in os.environ,
        )
    )
