"""Benchmark for rnnlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (train-desk, train-multisample or eval-adapt) in this
process as a closed loop of rnnlab commands, checks the outputs, and prints
the metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The seed makes the corpus
and the training seed.  See perfbench/README.md.

Exit codes: 0 when a result was printed (correct or not), 2 when the
program under test cannot be imported from src/ next to this directory.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
WORKLOAD_NAMES = ("train-desk", "train-multisample", "eval-adapt")


def import_program():
    """Import rnnlab from the checkout's src/ and nowhere else."""
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    try:
        import rnnlab
    except ImportError as err:
        raise ProgramMissing(f"cannot import rnnlab from {SRC}: {err}") from None
    if not os.path.abspath(rnnlab.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"rnnlab was imported from {rnnlab.__file__}, not from {SRC}")
    return rnnlab


class ProgramMissing(Exception):
    pass


def pin_to_one_cpu() -> int:
    """Run on the last CPU this process may use.  The CPUs of a shared host
    can differ in speed by 10% for minutes at a time, and a process that
    lands on one or the other varies by that much from run to run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def environment(cpu_share: float) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu_model = names[0] if names else cpu_model
    except OSError:
        pass
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "process.cpu_share": cpu_share,
    }


def run(workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    """Run one workload and return the full record of the run."""
    import checks as checks_mod
    import layers
    import workloads as wl
    from tracer import Tracer

    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    wl.fresh_dir(work_dir)
    session = wl.Session()
    checks = checks_mod.Checks()
    setups, reps, spans, failure = [], [], None, None
    try:
        def iteration():
            for _ in range(workload.setups_per_rep):
                setups.append(workload.setup(session, work_dir, seed))
            reps.append(workload.rep(session, setups[-1]))

        if not trace:
            # At least two repeats, so the repeat checks have something to
            # compare; more while another one fits in the measuring time.
            loop_start = time.perf_counter()
            while True:
                iteration()
                elapsed = time.perf_counter() - loop_start
                if len(reps) >= 2 and elapsed + elapsed / len(reps) > seconds:
                    break
        else:
            # The first repeat warms up; the second is the untraced reference
            # for the tracing overhead; the third is traced.
            iteration()
            iteration()
            tracer = Tracer()
            session.tracer = tracer
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    setups.append(workload.setup(session, work_dir, seed))
                with tracer.span("bench.job"):
                    reps.append(workload.rep(session, setups[-1]))
            finally:
                tracer.uninstall()
                session.tracer = None
            spans = tracer.spans()
            spans.save(os.path.join(work_dir, "spans.npz"))
        workload.final_checks(checks, setups[-1])
    except wl.CommandFailed as err:
        failure = str(err)  # the exit check below counts it
    except Exception:  # noqa: BLE001 - report any failure as a failed run
        failure = traceback.format_exc()
        checks.record("workload_completed", False, failure.strip().splitlines()[-1])

    for i, cmd in enumerate(session.commands):
        checks.record(f"exit.{i}.{cmd.name}", cmd.code == 0, f"code {cmd.code}")
    if len(setups) >= 2 and len(reps) >= 2:
        wl.repeat_checks(checks, setups, reps)
    if setups and reps:
        wl.output_checks(checks, workload, setups[-1].vocab_size, reps)

    steps = sum(x.train_steps for x in setups + reps)
    restarts = sum(x.train_restarts for x in setups + reps)
    attempted = len(session.commands) + steps
    failed = len(checks.failed) + restarts
    failed_ratio = failed / max(attempted, 1)

    named = wl.summarise(reps) if reps else {}
    setup_s = statistics.median(s.seconds for s in setups) if setups else 0.0
    named["setup_s"] = setup_s
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["failed_ops_ratio"] = failed_ratio
    cpu_share = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)

    units = {name: unit for name, unit, *_ in layers.END_TO_END}
    if trace:
        untraced, traced = (reps[1].seconds, reps[2].seconds) if len(reps) == 3 else (0.0, 0.0)
        values = (
            layers.layer_metrics(
                spans, setups[-1].config["checkpoint_path"],
                steps, restarts, cpu_share, traced / untraced if untraced else 0.0,
            )
            if spans is not None
            else {name: 0.0 for name, *_ in layers.PER_LAYER}
        )
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values = {generic: named.get(figure, 0.0) for generic, figure in workload.headline.items()}
        for name in ("setup_s", "job_s", "peak_rss_mb"):
            values[name] = named.get(name, 0.0)
        values["ok_ops_ratio"] = 1.0 - failed_ratio
        values = {name: values[name] for name in units}

    result = {
        "correct": not checks.failed and restarts == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setups": len(setups),
        "repeats": len(reps),
        "env": environment(cpu_share),
        "named_metrics": named,
        "repeats_detail": [{"seconds": r.seconds, "bpc": r.bpc, "calls": r.calls}
                           for r in reps],
        "setup_seconds": [s.seconds for s in setups],
        "checks": checks.results,
        "failure": failure,
        "commands": [(c.name, c.code, c.seconds) for c in session.commands],
        "result": result,
    }


NAMED_UNITS = (("tokens_per_s", "tokens/s"), ("bpc", "bits/byte"), ("_mb", "MB"),
               ("_ratio", "ratio"), ("_s", "s"))


def named_unit(name: str) -> str:
    return next(unit for suffix, unit in NAMED_UNITS if name.endswith(suffix))


def report(record: dict):
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"setups={record['setups']} repeats={record['repeats']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, value in record["named_metrics"].items():
        print(f"metric {name} = {value!r} {named_unit(name)}")
    failed = [c for c in record["checks"] if not c[1]]
    print(f"checks {len(record['checks']) - len(failed)} passed, {len(failed)} failed")
    for name, ok, detail in record["checks"]:
        if not ok or not name.startswith("exit."):
            print(f"check {name} {'ok' if ok else 'FAILED'} {detail}")
    if record["failure"]:
        print("failure " + record["failure"].strip().replace("\n", " | "))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rnnlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads as wl

    pin_to_one_cpu()
    workload = wl.WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, bool(args.trace),
                 os.path.join(WORK, workload.name))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results",
                       f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    report(record)
    spans_path = os.path.join(WORK, workload.name, "spans.npz")
    if args.trace and os.path.exists(spans_path):
        import report as trace_report
        from tracer import Spans

        trace_report.report(Spans.load(spans_path))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
