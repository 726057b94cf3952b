"""epigame benchmark: one workload, one seed, one measured run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload presets --seed 1 --seconds 42 --trace 0

Workloads: ``presets``, ``fig3_sweep``, ``many_zones``, ``equilibrium_checks``
(see ``workloads.py``). All run closed loop, one command at a time, in this
one process, against the package under ``src/`` of the checkout. A pass runs
every command of the workload once through ``epigame.cli.main``; passes
repeat until ``--seconds`` are used up.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: time to import epigame and build the workload's inputs, in a
  fresh interpreter; the fastest of SETUP_PROBES interpreters, started
  between passes all through the run;
* ``wall_s``: the fastest whole pass, timed around the ``cli.main`` calls;
* ``ops_per_s``: for the fastest pass, the units of work the program
  reports, divided by the time the pass spent inside its library calls:
  ``simulate``, or ``construct_equilibrium`` and ``check_equilibrium``,
  each timed whole where ``epigame.cli`` calls it (a command that calls
  none of them counts whole). The units are simulated days (``presets``,
  ``fig3_sweep``, ``many_zones``; printed as ``days_per_s``) or
  equilibrium checks (``equilibrium_checks``; printed as ``checks_per_s``);
* ``peak_rss_mb``: peak resident memory of this process.

Fastest rather than median: on a shared host whose speed swings within a
factor of about two, over spells from a fraction of a second to minutes,
the median of a run's passes moves with the share of slow time in the run,
while the fastest pass moves only when the whole run is slow. The report
also prints the median and quartiles of all passes and probes.

With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead. Both modes
check every output (``workloads.py``) and count failed operations; the last
line of stdout is the JSON result. Full results and the spans of the last
traced pass go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy can be imported: the
# bundled OpenBLAS would otherwise start up to 64 threads on a 2-core machine.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import tracer_selftest  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _import_epigame():
    sys.path.insert(0, str(SRC))
    import epigame
    import epigame.cli

    if Path(epigame.__file__).resolve().parent != (SRC / "epigame").resolve():
        raise SystemExit(f"imported epigame from {epigame.__file__}, not from {SRC}")
    return epigame


def setup_probe(name: str, seed: int) -> None:
    """Child mode: time the import plus input building, print it, exit."""
    t0 = time.perf_counter()
    _import_epigame()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as tmp:
        WORKLOADS[name](seed, Path(tmp)).build()
        print(repr(time.perf_counter() - t0))


def measure_setup(name: str, seed: int) -> float:
    """One set-up probe in a fresh interpreter, in seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def throughput(samples: list[dict]) -> float:
    """Units of work per second of library time, of the fastest pass."""
    return max(s["units"] / s["library_s"] for s in samples)


class Run:
    """State of one benchmark run: workload, byte-identity baseline, counters."""

    def __init__(self, epigame, workload, tmp: Path):
        self.epigame = epigame
        self.workload = workload
        self.tmp = tmp
        self.baseline = None
        self.attempted = 0
        self.errors: list[str] = []
        self.missing: set[str] = set()
        self.passes = 0

    def one_pass(self, traced: bool) -> tuple[dict, tracing.Tracer]:
        """One pass; a traced pass wraps every layer, an untraced one only
        the library calls its throughput is timed on."""
        out = self.tmp / f"pass{self.passes}"
        self.passes += 1
        tracer = tracing.Tracer(only=None if traced else tracing.LIBRARY_CALLS)
        gc.collect()
        with tracer.installed(self.epigame):
            ops = run_pass(self.workload, out, self.baseline, tracer)
        self.attempted += len(ops)
        self.errors += [f"{op.key}: {op.error}" for op in ops if op.error]
        self.missing.update(tracer.missing)
        if self.baseline is None:
            self.baseline = {op.key: op.fingerprint for op in ops}
        sample = {
            "wall_s": sum(op.seconds for op in ops),
            "library_s": sum(op.library_s for op in ops),
            "units": sum(op.units for op in ops),
            "bytes": _dir_bytes(out),
            "retained_bytes": tracer.retained,
        }
        shutil.rmtree(out, ignore_errors=True)
        return sample, tracer


def measure(args, epigame, workload, tmp: Path):
    """Passes (and, untraced, set-up probes) for ``--seconds``; the metrics."""
    run = Run(epigame, workload, tmp)
    untraced, traced, layers, setup = [], [], [], []
    last_tracer = None
    # Measure rounds (a pass, or an untraced and a traced pass) while the
    # next round is expected to end less than half a round past --seconds,
    # so that runs of long passes last --seconds on average; always at least
    # one. The first pass's outputs are the byte-identity baseline.
    t_start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() + median(rounds) / 2 <= t_start + args.seconds:
        t_round = time.perf_counter()
        untraced.append(run.one_pass(traced=False)[0])
        if args.trace:
            sample, last_tracer = run.one_pass(traced=True)
            traced.append(sample)
            layers.append(tracing.layer_metrics(last_tracer))
        else:
            # Set-up probes spread over the run meet the host at the same
            # speeds as the passes do.
            due = SETUP_PROBES * (time.perf_counter() - t_start) / args.seconds
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(measure_setup(workload.name, args.seed))
        rounds.append(time.perf_counter() - t_round)

    if not args.trace:
        while len(setup) < SETUP_PROBES:
            setup.append(measure_setup(workload.name, args.seed))
        metrics = {
            "setup_s": (min(setup), "s"),
            "wall_s": (min(s["wall_s"] for s in untraced), "s"),
            "ops_per_s": (throughput(untraced), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail = {"passes": len(untraced), "setup_probes": setup, "samples": untraced}
        return run, metrics, detail

    def med(key):
        return median([s[key] for s in traced])

    metrics = {name: (median([m[name] for m in layers]), tracing.unit_of(name))
               for name in tracing.per_layer_metric_names()}
    retained = median([s["retained_bytes"] / s["units"] if s["units"] else 0.0 for s in traced])
    metrics["dynamics.retained_bytes_per_day"] = (retained, "B/day")
    metrics["cli.write_run_artifacts.bytes_per_pass"] = (med("bytes"), "B/pass")
    base, with_trace = throughput(untraced), throughput(traced)
    metrics["trace.ops_per_s.untraced"] = (base, "1/s")
    metrics["trace.ops_per_s.traced"] = (with_trace, "1/s")
    metrics["trace.traced_over_untraced"] = (with_trace / base, "ratio")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload.name}-seed{args.seed}-spans.json.gz"
    last_tracer.write(spans)
    detail = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_samples": untraced,
        "traced_samples": traced,
        "retained_bytes_per_pass": med("retained_bytes"),
        "spans_file": spans.name,
        "spans_last_traced_pass": len(last_tracer),
        "step_self_share": {
            f"z{z}": shares
            for z, shares in tracing.step_shares(last_tracer, last_tracer.self_times()).items()
        },
    }
    return run, metrics, detail


def _spread(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.6g}, quartiles {q[0]:.6g} .. {q[2]:.6g}"


def report(args, workload, run, metrics, detail, context) -> None:
    """Human-readable lines; the JSON result follows as the last line."""
    rate = workload.unit_name
    print(f"# epigame benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds} s measured")
    print(f"# passes: {detail['passes']} untraced"
          + (f" + {detail['traced_passes']} traced" if args.trace else
             f"; set-up probes: {len(detail['setup_probes'])}"))
    print("# context: " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = rate if name == "ops_per_s" else name
        print(f"{shown}: {value:.6g} {unit}")
    if args.trace:
        print(f"tracing overhead: traced {rate} {metrics['trace.ops_per_s.traced'][0]:.6g} "
              f"/ untraced {rate} {metrics['trace.ops_per_s.untraced'][0]:.6g} "
              f"= {metrics['trace.traced_over_untraced'][0]:.4f}")
        print(f"retained by simulation results: {detail['retained_bytes_per_pass']:.6g} B/pass")
        for zkey, shares in detail["step_self_share"].items():
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            print(f"step self-time shares at {zkey}: "
                  + ", ".join(f"{k} {v:.1%}" for k, v in top))
    else:
        print(f"all passes, wall_s: {_spread([s['wall_s'] for s in detail['samples']])}")
        print(f"all set-up probes, setup_s: {_spread(detail['setup_probes'])}")
    print(f"failed_frac: {len(run.errors)}/{run.attempted} = "
          f"{len(run.errors) / run.attempted:.6g} (failed / attempted)")
    if run.missing:
        print("not traced, absent from the program: " + ", ".join(sorted(run.missing)))
    for error in run.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "epigame" / "__init__.py").is_file():
        print(f"error: no epigame sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    epigame = _import_epigame()
    selftest_errors = tracer_selftest.run() if args.trace else []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_tmp-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.build()
        run, metrics, detail = measure(args, epigame, workload, Path(tmp))
    context = {**machine_context(), "passes": run.passes}
    report(args, workload, run, metrics, detail, context)
    for error in selftest_errors:
        print(f"tracer self-test failed: {error}", file=sys.stderr)

    result = {
        "correct": not run.errors and not selftest_errors,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "context": context,
              "errors": run.errors + selftest_errors, "detail": detail}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
