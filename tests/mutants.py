"""Committed mutants: defects the suite is known to catch.

Each mutant names a file under ``src/``, an exact snippet of it, the
snippet's replacement, and the test node ids that must fail once the
replacement is made. ``tests/test_mutants.py`` (tier-1) checks that every
snippet occurs exactly once in its file, so code that moves takes its
mutants with it. Running the mutants is opt-in:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied to a copy of ``src/`` in a temporary directory, and
its nodes run in one pytest subprocess that imports the package from the
copy. A mutant is caught when pytest reports a failed test (exit status 1);
any other status is an error, such as a node id that no longer collects.
The exit status is 1 unless every mutant run is caught.

A mutant that stops being caught is a finding to report, not a row to
delete. A mutant is removed only with the code it mutates.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/
    snippet: str  # occurs exactly once in the file
    replacement: str
    nodes: tuple[str, ...]  # pytest node ids, relative to the repo root


ENGINE = "fedunlearn/nn/engine.py"
PARAMS = "fedunlearn/nn/params.py"
FEDERATION = "fedunlearn/federation.py"
UNLEARNING = "fedunlearn/unlearning.py"
DATA = "fedunlearn/data.py"
EVALUATION = "fedunlearn/evaluation.py"
CLI = "fedunlearn/cli.py"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "label-mask-unchecked", ENGINE,
        "    if picked.size != n:\n"
        "        raise ValueError(f\"label out of range [0, {arch.num_classes})\")\n",
        "",
        ("tests/test_engine.py::TestLoss::test_rejects_out_of_range_label",
         "tests/test_engine.py::TestLoss::test_label_mask_marks_no_column_for_a_bad_label"),
    ),
    Mutant(
        "overflow-taken-for-non-finite", PARAMS,
        "if math.isfinite(np.vdot(vector, vector)) or np.isfinite(vector).all():",
        "if math.isfinite(np.vdot(vector, vector)):",
        ("tests/test_params.py::TestFiniteness::"
         "test_values_overflowing_the_sum_of_squares_are_finite",),
    ),
    Mutant(
        "client-delta-unchecked", FEDERATION,
        "    bad = layout.non_finite_tensor(w)\n"
        "    if bad is not None:\n"
        "        raise ValueError(f\"{where}: tensor {bad!r} contains non-finite values\")\n",
        "",
        ("tests/test_federation.py::TestDivergence::"
         "test_weights_overflowing_on_last_step_name_round_and_client",
         "tests/test_federation.py::TestDivergence::"
         "test_delta_overflowing_from_finite_weights_names_round_and_client"),
    ),
    # The window view's strides (in `_windows`, which every conv pass
    # slices its im2col chunks from) taken from a C-contiguous array.
    Mutant(
        "im2col-assumes-c-contiguous-input", ENGINE,
        "    sb, sc, sh, sw = x.strides\n",
        "    sb, sc, sh, sw = np.empty(x.shape).strides\n",
        ("tests/test_engine.py::TestKernelsBitEqualToReference::test_im2col",),
    ),
    # The flat-vector change: a step that rebinds the weights instead of
    # writing them, and a step scaled by 1 + 1e-15.
    Mutant(
        "sgd-step-rebinds-the-weights", FEDERATION,
        "            w -= np.multiply(lr, grads.vector, out=step)\n",
        "            w = w - np.multiply(lr, grads.vector, out=step)\n",
        ("tests/test_federation.py::TestInPlaceLocalTrain::test_bit_equal_to_oracle",),
    ),
    Mutant(
        "sgd-step-scaled", FEDERATION,
        "    lr = float(learning_rate)\n",
        "    lr = float(learning_rate) * (1 + 1e-15)\n",
        ("tests/test_federation.py::TestInPlaceLocalTrain::test_bit_equal_to_oracle",),
    ),
    # The load-count change: literal mode dividing the sum (it multiplies
    # by the reciprocal; it was `combined /= n` where first recorded).
    Mutant(
        "literal-mode-divides", FEDERATION,
        "            self._sum *= 1.0 / len(self._ids)\n",
        "            self._sum /= len(self._ids)\n",
        ("tests/test_federation.py::TestAggregate::test_bit_equal_to_oracle",),
    ),
    # The load-count change: retrain over every client, the target too.
    Mutant(
        "retrain-keeps-the-target", UNLEARNING,
        "    return run_fedavg(arch, _remaining_shards(shards, config), config)\n",
        "    return run_fedavg(arch, shards, config)\n",
        ("tests/test_unlearning.py::TestFedRetrain::test_excludes_target_and_reports_full_rounds",),
    ),
    # The channel-major conv change: col2im's kernel indices swapped
    # (re-derived for the spatial-major col2im, then for the offset GEMMs
    # that replaced it: each offset's addend taken from weight [j, i]).
    Mutant(
        "col2im-kernel-indices-swapped", ENGINE,
        "            np.matmul(dz_t, w_t[i, j], out=term)\n",
        "            np.matmul(dz_t, w_t[j, i], out=term)\n",
        ("tests/test_engine.py::TestKernelsBitEqualToReference::test_col2im",),
    ),
    # The strided max-pooling change: the later position wins a tie.
    Mutant(
        "pool-later-position-wins-ties", ENGINE,
        "        np.maximum(view, pooled, out=pooled)\n",
        "        np.maximum(pooled, view, out=pooled)\n",
        ("tests/test_engine.py::TestKernelsBitEqualToReference::test_pooling",),
    ),
    # The member fit sample drawn from the shards: each shard given the
    # indices that fall in the next shard, the shared draw left unsorted,
    # and the draw seeded under another name. (Taking each shard's indices
    # relative to its end instead of its start is no defect: the negative
    # indices wrap to the same rows.)
    Mutant(
        "member-rows-shifted-by-a-shard", EVALUATION,
        "            lo, hi = np.searchsorted(idx, (start, end))\n",
        "            lo, hi = np.searchsorted(idx, (end, end + ds.num_samples))\n",
        ("tests/test_evaluation.py::TestMemberFitSample::test_bit_equal_to_subsampling_the_pool",),
    ),
    Mutant(
        "subsample-indices-unsorted", DATA,
        "    return np.sort(rng.choice(num_samples, size=max_samples, replace=False))\n",
        "    return rng.choice(num_samples, size=max_samples, replace=False)\n",
        ("tests/test_data.py::TestSubsample::test_keeps_row_order_and_size",
         "tests/test_evaluation.py::TestMemberFitSample::test_bit_equal_to_subsampling_the_pool"),
    ),
    Mutant(
        "member-sample-seed-renamed", EVALUATION,
        "size, seed, \"members\")",
        "size, seed, \"member-pool\")",
        ("tests/test_evaluation.py::TestMemberFitSample::test_bit_equal_to_subsampling_the_pool",),
    ),
    # The attack's probabilities shared with the report: the evaluation
    # half's features read from the fit half's rows, and the prediction
    # difference taken against the model's own target probabilities.
    Mutant(
        "eval-features-from-the-fit-rows", EVALUATION,
        "holdout_features(name, eval_rows)",
        "holdout_features(name, fit_rows)",
        ("tests/test_evaluation.py::TestMembershipAttack::"
         "test_equal_to_forwarding_each_half_on_its_own",),
    ),
    Mutant(
        "prediction-difference-against-itself", EVALUATION,
        "batches(f\"{name}.target\", target_labels), batches(\"retrain.target\", target_labels))",
        "batches(f\"{name}.target\", target_labels), batches(f\"{name}.target\", target_labels))",
        ("tests/test_cli.py::TestReportScoring::test_one_forward_pass_per_model_and_dataset",),
    ),
    # A dense layer's bias gradient scaled by 1.01 (first recorded as caught
    # by the benchmark's seed-0 score check alone).
    Mutant(
        "dense-bias-gradient-scaled", ENGINE,
        "            np.add.reduce(dx, axis=0, out=segments[p + 1])\n",
        "            np.add.reduce(dx, axis=0, out=segments[p + 1])\n"
        "            segments[p + 1] *= 1.01\n",
        ("tests/test_engine.py::TestGradients::test_matches_finite_differences_dense",
         "tests/test_engine.py::TestEquivalenceToReferenceEngine::test_dense_bit_equal"),
    ),
    # The report's final heads: each method's first trajectory step taken
    # for its last.
    Mutant(
        "report-takes-the-first-head-step", CLI,
        "**{name: series[-1] for name, series in heads.items()}}",
        "**{name: series[0] for name, series in heads.items()}}",
        ("tests/test_cli.py::TestReportReads::"
         "test_after_an_attack_it_opens_no_data_and_no_reconstruction",),
    ),
    # The attack records the test set's labels as the target shard's.
    Mutant(
        "attack-records-test-labels-as-target", CLI,
        "(\"target\", run.target_shard.dataset.labels)",
        "(\"target\", run.test.labels)",
        ("tests/test_cli.py::TestReportScoring::"
         "test_the_attack_forwards_each_model_once_per_dataset",
         "tests/test_cli.py::TestReportScoring::test_one_forward_pass_per_model_and_dataset"),
    ),
    # Calibration norms: a norm whose sum of squares overflowed is measured
    # again without the scaling.
    Mutant(
        "scaled-norm-fallback-removed", UNLEARNING,
        "    return scale * np.linalg.norm(values / scale)\n",
        "    return np.linalg.norm(values)\n",
        ("tests/test_unlearning.py::TestCalibrateUpdate::"
         "test_squares_past_the_float_range_give_the_exact_result",
         "tests/test_unlearning.py::TestCalibrateUpdate::"
         "test_an_overflowed_retained_norm_is_measured_scaled"),
    ),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply the mutant to a copy of src/ and run its nodes against it.
    Returns the verdict ("caught", "survived" or "error") and pytest's output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.path
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "error", f"the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # -o pythonpath replaces pyproject's "src", which would shadow the copy
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.nodes],
            cwd=REPO, env=env, capture_output=True, text=True, check=False)
    verdict = {0: "survived", 1: "caught"}.get(proc.returncode, "error")
    return verdict, proc.stdout + proc.stderr


def main(names: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in [by_name[name] for name in names] or MUTANTS:
        verdict, output = run(mutant)
        print(f"{verdict:9} {mutant.name}", flush=True)
        if verdict != "caught":
            failed += 1
            print(output[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
