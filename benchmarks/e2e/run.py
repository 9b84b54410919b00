"""One repeatable end-to-end benchmark of the Koios serving stack.

    python3 benchmarks/e2e/run.py                      every workload, every metric
    python3 benchmarks/e2e/run.py --workload NAME      one workload
    python3 benchmarks/e2e/run.py --smoke              small corpora, seconds per workload
    python3 benchmarks/e2e/run.py --noise R            R runs as two interleaved sets
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                       one run; last line is one JSON object

Each run of a workload happens in a fresh subprocess started with the
BLAS and hash-seed pins below. ``--trace 0`` reports the end-to-end
metrics with no harness span recorded anywhere; ``--trace 1`` reports the
per-layer metrics from one traced pass. Names, units and bounds are the
ones in ``BENCHMARK.json`` at the repository root. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: One BLAS thread: two on two shared cores gave slower and far noisier
#: searches. A fixed hash seed fixes ``frozenset[str]`` iteration order,
#: which otherwise changes the work done from process to process. One
#: malloc arena: with one per thread, which executor thread happens to
#: run a search decides where its arrays live, and peak RSS moved by
#: 25 % and set-up time by 40 % from run to run.
PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
}
CHILD_TIMEOUT = 900.0


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- parent: subprocesses, output formats ----------------------------------


def child(workload: str, smoke: bool, *extra: str) -> str:
    """Standard output of ``run.py --child`` in a fresh pinned process."""
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, *extra,
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT,
        cwd=ROOT, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload}: worker exited with code {proc.returncode}"
        )
    return proc.stdout


def spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run one workload in a fresh pinned subprocess; its result dict
    with units attached from BENCHMARK.json. A missing corpus is built
    first, in a process of its own, so that the measured process never
    carries the generator's memory high-water mark."""
    import corpus
    from workloads import WORKLOADS

    if not corpus.is_cached(WORKLOADS[workload].corpus_spec(smoke)):
        child(workload, smoke, "--build")
    result = json.loads(child(
        workload, smoke, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ).splitlines()[-1])
    spec = contract()
    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end" if trace == 0 else "per_layer"]
    }
    if set(units) != set(result["metrics"]):
        raise SystemExit(
            f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}"
        )
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]}
            for name in units
        },
    }


def print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:18s} {name:32s} {metric['value']:14.6g} {metric['unit']}")


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median — the driver's
    run-to-run measure."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def box() -> dict:
    """The box a report was measured on."""
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def noise(args, names: list[str]) -> dict:
    """The whole benchmark ``R`` times, each time with another seed, as
    two interleaved sets; per workload and end-to-end metric both set
    medians, how far the second is from the first, and each set's
    spread."""
    spec = contract()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: dict = {name: {m: ([], []) for m in better} for name in names}
    for index in range(args.noise):
        for name in names:
            result = spawn(
                name, args.seed + index, args.seconds, 0, args.smoke
            )
            if not result["correct"]:
                raise SystemExit(f"{name}: failed ops at seed {args.seed + index}")
            for metric, value in result["metrics"].items():
                runs[name][metric][index % 2].append(value["value"])
            print(f"# run {index} {name} done", file=sys.stderr)
    report: dict = {"runs": args.noise, "seconds": args.seconds,
                    "smoke": args.smoke, "first_seed": args.seed,
                    "box": box(), "workloads": {}}
    for name in names:
        report["workloads"][name] = {}
        for metric, (first, second) in runs[name].items():
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if better[metric] == "lower" else (a - b) / a
            row = {
                "set_medians": [a, b],
                "second_worse_by": worse,
                "set_spreads": [spread(first), spread(second)],
                "values": [first, second],
            }
            report["workloads"][name][metric] = row
            print(
                f"{name:18s} {metric:14s} medians {a:10.4f} {b:10.4f} "
                f"second worse by {worse:+.3f}  spreads "
                f"{row['set_spreads'][0]:.3f} {row['set_spreads'][1]:.3f}"
            )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--noise", type=int, metavar="R")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print("no program to measure: src/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        # Every workload keeps at most one thread busy, so one CPU is
        # enough; on it a hand-off between threads never has to wake a
        # second virtual CPU, which on a shared host can cost more than
        # the request it carries.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        import worker

        if args.build:
            import corpus

            corpus.build_corpus(
                worker.WORKLOADS[args.workload].corpus_spec(args.smoke)
            )
            return 0
        print(json.dumps(worker.run(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, smoke=args.smoke,
        )))
        return 0
    spec = contract()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload (choose from {names})")
        names = [args.workload]

    if args.noise:
        report = noise(args, names)
        print(json.dumps(report))
        return 0
    if args.trace is not None:
        # The driver's form: one run, one JSON object on the last line.
        if len(names) != 1:
            parser.error("--trace needs --workload")
        print(json.dumps(spawn(names[0], args.seed, args.seconds,
                               args.trace, args.smoke)))
        return 0
    correct = True
    for name in names:
        for trace in (0, 1):
            result = spawn(name, args.seed, args.seconds, trace, args.smoke)
            print_metrics(name, result)
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
