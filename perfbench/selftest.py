"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

A minimal-size pass of every workload (tiny model, untraced and traced) must
print every metric of BENCHMARK.json with its unit, and the checks must turn
tampered outputs into named failures.  Writes only under perfbench/work/.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

import run  # sets the BLAS thread variables before numpy is imported

run.import_program()

import checks as checks_mod  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
SELFTEST_WORK = os.path.join(run.WORK, "selftest")

# Named figures each workload reports, besides setup_s, peak_rss_mb
# and failed_ops_ratio.
NAMED = {
    "train-desk": ["train_tokens_per_s", "train_val_bpc", "eval_batched_tokens_per_s",
                   "eval_batched_bpc", "job_s"],
    "train-multisample": ["train_tokens_per_s", "train_val_bpc",
                          "eval_batched_tokens_per_s", "eval_batched_bpc", "job_s"],
    "eval-adapt": ["eval_exact_tokens_per_s", "test_bpc", "tune_temperature_s",
                   "dyneval_tune_s", "dyneval_tokens_per_s", "dyneval_bpc", "job_s"],
}


# gemm calls per token and layer in one training window: the cell's forward
# and backward (rlstm 7 + 14, lstm 8 + 16) plus, per full-rank mogrifier
# round, one forward and two backward.  The output layer adds 1 + 2 per token.
CELL_GEMMS = {"rlstm": 21, "lstm": 24}


def expected_per_window(model: dict) -> tuple:
    """(gemm, accumulate) calls per training window: D samples, each running
    forward_window and backward_window, which accumulates the cell and
    mogrifier gradients of every layer at every step; each sample's
    gradients are then accumulated once more."""
    layers_, rounds = model["layers"], model["mogrifier_rounds"]
    samples = model.get("dropout_samples", 1)
    gemm = samples * wl.WINDOW * (layers_ * (CELL_GEMMS[model["cell"]] + 3 * rounds) + 3)
    accumulate = samples * (2 * layers_ * wl.WINDOW + 1)
    return gemm, accumulate


def tiny_run(name: str, trace: bool) -> dict:
    return run.run(wl.WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace,
                   work_dir=os.path.join(SELFTEST_WORK, name))


class BenchmarkFile(unittest.TestCase):
    def test_matches_code(self):
        with open(BENCHMARK, encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
            [(n, u, b, bound) for n, u, b, bound, _ in layers.END_TO_END],
        )
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         layers.PER_LAYER)


class TinyPasses(unittest.TestCase):
    def check_pass(self, name: str, trace: bool):
        record = tiny_run(name, trace)
        result = record["result"]
        failed = [c for c in record["checks"] if not c[1]]
        self.assertEqual(failed, [], record["failure"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = [m[:2] for m in (layers.PER_LAYER if trace else layers.END_TO_END)]
        self.assertEqual([(k, v["unit"]) for k, v in result["metrics"].items()], expected)
        for key in NAMED[name] + ["setup_s", "peak_rss_mb", "failed_ops_ratio"]:
            self.assertIn(key, record["named_metrics"])
            run.named_unit(key)  # every named figure has a unit
        return record

    def check_window_counts(self, name: str, samples: int):
        metrics = self.check_pass(name, True)["result"]["metrics"]
        gemm, accumulate = expected_per_window(wl.WORKLOADS[name].tiny().model)
        self.assertEqual(metrics["numerics.gemm.calls_per_window"]["value"], gemm)
        self.assertEqual(metrics["ptree.accumulate.calls_per_window"]["value"], accumulate)
        self.assertEqual(metrics["model.forward_window.calls_per_step"]["value"], samples)

    def test_window_counts_at_full_size(self):
        # The per-window counts of the README quick-start model, as traced at
        # re-anchor; the tiny traced passes check the same formula.
        self.assertEqual(expected_per_window(wl.WORKLOADS["train-desk"].model), (8832, 513))

    def test_train_desk(self):
        self.check_pass("train-desk", False)
        self.check_window_counts("train-desk", 1)

    def test_train_multisample(self):
        self.check_pass("train-multisample", False)
        self.check_window_counts("train-multisample", 4)

    def test_eval_adapt(self):
        self.check_pass("eval-adapt", False)
        metrics = self.check_pass("eval-adapt", True)["result"]["metrics"]
        self.assertEqual(metrics["evaluation.tune_dyneval.passes"]["value"], 11)
        # 31 temperatures, each a batch-1 pass over the valid split in
        # windows of 128 targets.
        valid = os.path.getsize(os.path.join(SELFTEST_WORK, "eval-adapt", "valid.txt"))
        windows = -(-(valid - 1) // wl.WINDOW)
        self.assertEqual(metrics["evaluation.forward_passes_per_tune"]["value"], 31 * windows)


class TamperedOutputs(unittest.TestCase):
    def test_changed_checkpoint_hash_fails(self):
        checks = checks_mod.Checks()
        checks.identical("repeat.checkpoint_sha256", ["ab" * 32, "ab" * 32, "ab" * 31 + "ac"])
        self.assertEqual(checks.failed, ["repeat.checkpoint_sha256"])

    def test_unequal_lr0_total_fails(self):
        checks = checks_mod.Checks()
        checks.bitwise_equal("lr0", "4.289884331022451", "4.2898843310224515")
        checks.bitwise_equal("same", "4.289884331022451", "4.289884331022451")
        self.assertEqual(checks.failed, ["lr0"])

    def test_bad_bpc_and_state_fail(self):
        checks = checks_mod.Checks()
        checks.bpc("above_uniform", 6.3, 74)
        checks.bpc("not_finite", float("nan"), 74)
        checks.bpc("fine", 1.4, 74)
        checks.bounded_state("escaped", 1.0000000001)
        checks.bounded_state("inside", 0.99)
        self.assertEqual(checks.failed, ["above_uniform", "not_finite", "escaped"])

    def test_workload_checks_catch_tampering(self):
        workload = wl.WORKLOADS["eval-adapt"]
        setup = wl.Setup("d", {}, 74, {}, 1.0, {"checkpoint_sha256": "aa"})
        bpc = {name: 5.0 for name in workload.headline.values() if name.endswith("bpc")}
        fp = {"events": ["event=eval x=1"], "static_nats_per_token": "4.25",
              "lr0_nats_per_token": "4.25"}
        good = wl.Rep(bpc, {}, fp, 1.0)
        tampered = wl.Rep(bpc, {}, {**fp, "events": ["event=eval x=2"],
                                    "lr0_nats_per_token": "4.250000000000001"}, 1.0)
        checks = checks_mod.Checks()
        wl.repeat_checks(checks, [setup, setup], [good, tampered])
        wl.output_checks(checks, workload, 74, [good, tampered])
        self.assertEqual(checks.failed, ["repeat.events", "dyneval_lr0_equals_static.rep1"])

    def test_failed_run_is_reported_not_raised(self):
        tiny = wl.WORKLOADS["train-desk"].tiny()
        broken = dataclasses.replace(tiny, model={**tiny.model, "cell": "gru"})
        record = run.run(broken, seed=3, seconds=0, trace=False,
                         work_dir=os.path.join(SELFTEST_WORK, "broken"))
        self.assertFalse(record["result"]["correct"])
        self.assertGreater(record["result"]["failed"], 0)
        self.assertTrue(any(name.startswith("exit.") for name, ok, _ in record["checks"]
                            if not ok))


class TracerInstall(unittest.TestCase):
    def test_rebinds_imported_names_and_restores(self):
        from rnnlab import cells, model, numerics, ptree, training

        originals = (numerics.gemm, ptree.accumulate, ptree.flatten)
        tracer = Tracer()
        tracer.install()
        try:
            for name, module, original in (("gemm", cells, originals[0]),
                                           ("accumulate", model, originals[1]),
                                           ("flatten", training, originals[2])):
                self.assertIsNot(getattr(module, name), original)
                self.assertIs(getattr(module, name).__wrapped__, original)
            self.assertIs(cells.gemm, numerics.gemm)
            cells.gemm([[1.0, 2.0]], [[3.0], [4.0]])
        finally:
            tracer.uninstall()
        self.assertEqual((cells.gemm, model.accumulate, training.flatten), originals)
        spans = tracer.spans()
        self.assertEqual(spans.count("numerics.gemm"), 1)
        self.assertEqual(spans.work[spans.select("numerics.gemm")][0], 4.0)

    def test_self_time_subtracts_children(self):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.spans()
        self.assertEqual(spans.total_ms("outer"), 10000.0)
        self.assertEqual(spans.self_ms("outer"), 8000.0)
        self.assertEqual(spans.per_parent("inner", "outer").tolist(), [1])


class ProgramMissing(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        bare = os.path.join(SELFTEST_WORK, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(BENCHMARK, bare)
        for entry in os.listdir(run.HERE):
            if entry.endswith((".py", ".md")):
                shutil.copy(os.path.join(run.HERE, entry), os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
