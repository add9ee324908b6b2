"""Summarise the spans of a traced run.

    python3 perfbench/report.py perfbench/work/train-desk/spans.npz

`run.py --trace 1` writes the spans of its traced pass to
perfbench/work/<workload>/spans.npz.  This prints, for the timed commands,
each function's call count, self time and share of the wall time, and, per
training window, the forward, backward and optimizer times and the shares of
gemm, accumulate and sigmoid inside forward plus backward.
"""

import argparse
import sys

from tracer import Spans

LOSS = "model.loss_multisample"


def per_window(spans: Spans):
    windows = spans.count(LOSS)
    if not windows:
        print("no training windows in this trace")
        return
    in_loss = spans.under(LOSS)
    loss_ms = spans.total_ms(LOSS)
    print(f"\nper training window (mean over {windows} windows; call counts are medians):")
    for label in ("model.forward_window", "model.backward_window"):
        print(f"  {label:34s} {spans.total_ms(label, in_loss) / windows:9.1f} ms")
    for label in ("training.radam_step", "training.tta_update", "training.clip_global_norm"):
        calls = spans.count(label)
        if calls:
            print(f"  {label:34s} {spans.total_ms(label) / calls:9.2f} ms per step")
    for label in ("numerics.gemm", "ptree.accumulate"):
        print(f"  {label + ' calls':34s} {spans.median_per_parent(label, LOSS):9.0f}")
    print("  share of forward + backward:")
    for label in ("numerics.gemm", "ptree.accumulate", "numerics.sigmoid"):
        print(f"    {label:32s} {spans.self_ms(label, in_loss) / loss_ms:8.1%}")


ROWS = 20  # functions in the self-time table


def self_time_table(spans: Spans):
    job = spans.under("bench.job")
    wall = spans.total_ms("bench.job")
    rows = []
    for label in spans.names:
        if label.startswith(("bench.", "cli.")):
            continue
        calls = spans.count(label, job)
        if calls:
            rows.append((spans.self_ms(label, job), calls, label))
    rows.sort(reverse=True)
    print(f"timed commands: {wall:.0f} ms wall, {len(spans)} spans in the whole trace")
    print(f"{'function':36s} {'calls':>9s} {'self ms':>10s} {'share':>7s}")
    for self_ms, calls, label in rows[:ROWS]:
        print(f"{label:36s} {calls:9d} {self_ms:10.1f} {self_ms / wall:7.1%}")
    traced = sum(r[0] for r in rows)
    print(f"{'(outside traced functions)':36s} {'':9s} {wall - traced:10.1f} "
          f"{(wall - traced) / wall:7.1%}")


def report(spans: Spans):
    self_time_table(spans)
    per_window(spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarise a perfbench trace")
    parser.add_argument("spans", help="spans.npz written by run.py --trace 1")
    args = parser.parse_args(argv)
    report(Spans.load(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
