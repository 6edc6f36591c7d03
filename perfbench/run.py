"""End-to-end and per-layer benchmark of fedunlearn.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run from a checkout that has ``src/fedunlearn``; the benchmark imports the
package from there. A run generates the workload's inputs from ``--seed``
(a scenario INI, and for ``conv`` CIFAR-format image batches) in a fresh
directory under ``.perfbench_runs/`` and drives the package's own stage
functions ``fedunlearn.cli.run_train``, ``run_unlearn``, ``run_attack`` and
``run_report``. The work comes in cycles: train, then serve one forget
request that names another target client, timing each method of the request
on its own, then attack and report. Training is deterministic, so every
cycle replays the same stored updates and ``train_s`` gets as many samples
as the methods do. Cycles continue until ``--seconds`` have passed, at least
``MIN_CYCLES`` of them, and every output is checked. Failed stage calls and
failed checks make the ``failed`` count of the result.

``--trace 0`` prints the end-to-end metrics, each time the median over the
run's cycles. Times are scaled to an idle host by :class:`HostClock`, since
other tenants of a shared host change its speed by up to 1.8x for minutes
at a time. ``setup_s`` is the median of fresh-process set-ups, one after
each cycle. ``run_s`` is the job a user runs, set-up plus one training plus
``MIN_CYCLES`` requests with their evaluation, summed from those medians.

``--trace 1`` runs each of ``MIN_CYCLES`` cycles untraced and then again
traced, and prints the per-layer metrics: span totals and exact work
counters of the traced cycles, the counters checked against the schedule's
closed form; the traced-to-untraced time ratio; and a forward/backward probe
of every preset architecture. The trace is written to ``.perfbench_runs/``.

On ``--seed 0`` every model's test accuracy must equal, and its test loss
match to ``LOSS_RTOL``, the values in ``perfbench/expected.json``;
``--write-expected`` records them again after a deliberate change of the
program's numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The failed-operation
ratio is ``failed / attempted``; it is 0 on a correct program, so it is
carried by those two counts rather than as a metric with a relative bound.
"""

import os

# Pin BLAS threads before NumPy loads: steadier timings on a shared host, and
# the recorded test losses depend on the summation order.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Schedule, forget_requests, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0  # the seed whose model accuracies and losses are recorded
LOSS_RTOL = 1e-9
MIN_CYCLES = 3
MIN_SETUPS = 5
MAX_REPEATS = 10
MIN_SAMPLE_S = 0.5  # untraced stages shorter than this are repeated within a cycle
REFERENCE_S = 1.9e-4  # idle-host time of HostClock's reference loop (2-vCPU x86-64 VM)
METHODS = ("eraser", "accum", "retrain")
TIMED = ("train",) + METHODS + ("evaluate",)
ADULT_FEATURES = 105  # one-hot width of the census-income tables

E2E_UNITS = {"setup_s": "s", "train_s": "s", "eraser_s": "s", "accum_s": "s",
             "retrain_s": "s", "evaluate_s": "s", "run_s": "s", "store_mb": "MB",
             "peak_rss_mb": "MB"}


class Tally:
    """Attempted and failed operations: stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Bench:
    def __init__(self, workload, seed: int, expected: dict | None, record: bool):
        from fedunlearn import cli
        from fedunlearn.federation import aggregate
        from fedunlearn.nn import load_params, param_linear
        from fedunlearn.retention import RetentionStore

        # bound here, before any tracer patches the package, so the checks
        # below call the functions themselves and add nothing to the trace
        self.cli, self.aggregate, self.param_linear = cli, aggregate, param_linear
        self.load_params, self.RetentionStore = load_params, RetentionStore
        self.workload = workload
        self.expected, self.record = expected, record
        self.recorded: dict = {"seed": seed, "requests": {}}
        self.tally = Tally()
        self.clock = HostClock()
        package_log = logging.getLogger("fedunlearn")
        package_log.setLevel(logging.INFO)
        package_log.addHandler(self.clock)

    def run_cycles(self, ini: Path, targets: list[int], min_cycles: int, seconds: float,
                   tracer: Tracer | None = None, after_cycle=None,
                   min_sample_s: float = 0.0) -> list[dict]:
        """Train-and-forget cycles, one per target, until `seconds` have passed
        and at least `min_cycles` ran. A completed cycle gives, per stage, its
        samples in seconds, and the retention bytes on disk. Stages are
        idempotent, so one that takes less than `min_sample_s` runs again, up
        to MAX_REPEATS times, for more samples of short work."""
        cli = self.cli
        scenario = cli.parse_scenario(ini)
        out = Path(scenario.out_dir)
        cycles = []
        start = time.perf_counter()
        for index, target in enumerate(targets):
            if index >= min_cycles and time.perf_counter() - start >= seconds:
                break
            request = dataclasses.replace(scenario, target_client=target)
            stages = {"train": [(cli.run_train, scenario, {})],
                      **{m: [(cli.run_unlearn, request, {"methods": (m,)})] for m in METHODS},
                      "evaluate": [(cli.run_attack, request, {}), (cli.run_report, request, {})]}
            times, ok = {"target": target}, True
            for stage, calls in stages.items():
                samples = times[stage] = []
                while ok and (not samples or (sum(samples) < min_sample_s
                                              and len(samples) < MAX_REPEATS)):
                    sample = self._sample(tracer, stage, target, calls, out)
                    ok = sample is not None
                    if ok:
                        samples.append(sample)
                if not ok:
                    break
            if ok:
                times["store_bytes"] = self._check_cycle(out, target)
                cycles.append(times)
            if after_cycle is not None:
                after_cycle()
        return cycles

    def _sample(self, tracer, stage, target, calls, out) -> float | None:
        total = 0.0
        for fn, stage_scenario, kwargs in calls:
            seconds = self._stage(tracer, stage, target, fn, stage_scenario, out, **kwargs)
            if seconds is None:
                return None
            total += seconds
        return total

    def _stage(self, tracer, stage, target, fn, *args, **kwargs) -> float | None:
        if tracer is not None:
            fn, args = tracer.stage, (stage, target, fn, *args)
        try:
            seconds = self.clock.time(fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed stage is counted, not fatal
            self.tally.check(False, f"{stage} (target {target}): {type(exc).__name__}: {exc}")
            return None
        self.tally.check(True, stage)
        return seconds

    # -- output checks -------------------------------------------------------

    def _check_cycle(self, out: Path, target: int) -> int:
        """Check every model of one cycle; return the retention bytes on disk."""
        check = self.tally.check
        store = self.RetentionStore.open(out / "retention")
        models = {}
        for name in ("initial", "original") + METHODS:
            try:
                models[name] = self.load_params(out / "models" / f"{name}.fesp")
            except (OSError, ValueError) as exc:
                check(False, f"{name} model (target {target}) does not load: {exc}")
                continue
            check(all(np.isfinite(t).all() for t in models[name].tensors),
                  f"{name} model (target {target}) is not finite")
        if "accum" in models and "initial" in models:
            remaining = [c for c in range(1, store.fingerprint.num_clients + 1) if c != target]
            replay = models["initial"]
            for round_index in store.retained_rounds:
                stored = store.load_round(round_index, client_ids=remaining)
                replay = self.param_linear(1.0, replay, 1.0,
                                           self.aggregate(stored, "standard"))
            check(models["accum"] == replay,
                  f"accum model (target {target}) is not initial + sum of stored aggregates")
        for name in ("original",) + METHODS:
            self._check_scores(out, name, target)
        return store.total_blob_bytes()

    def _check_scores(self, out: Path, model: str, target: int) -> None:
        """Test accuracy and loss: equal to the recorded values on the default
        seed, above the workload's chance floor on any other."""
        check = self.tally.check
        try:
            if model == "original":
                doc = json.loads((out / "manifest.json").read_text())
                score = [doc["original_test_accuracy"], doc["original_test_loss"]]
            else:
                doc = json.loads((out / "report.json").read_text())["methods"][model]
                score = [doc["test_accuracy"], doc["test_loss"]]
        except (OSError, KeyError, ValueError) as exc:
            check(False, f"no test score for {model} (target {target}): {exc}")
            return
        what = f"{model} test score {score} (target {target})"
        if not check(all(math.isfinite(v) for v in score), what + " is not finite"):
            return
        if self.record:
            if model == "original":
                self.recorded["original"] = score
            else:
                self.recorded["requests"].setdefault(str(target), {})[model] = score
        elif self.expected is not None:
            want = (self.expected["original"] if model == "original"
                    else self.expected["requests"].get(str(target), {}).get(model))
            check(want is not None and score[0] == want[0]
                  and abs(score[1] - want[1]) <= LOSS_RTOL * abs(want[1]),
                  f"{what} differs from the recorded {want}")
        elif model in ("original", "retrain"):
            check(score[0] > self.workload.chance_floor,
                  f"{what} is not above {self.workload.chance_floor}")

    def check_counters(self, tracer: Tracer, schedule: Schedule, targets: list[int]) -> dict:
        """Exact work counters of traced cycles against the closed form."""
        def per_cycle(count):
            return sum(count(t) for t in targets)

        want = {f"sgd_steps.{stage}": per_cycle(lambda t: schedule.sgd_steps(stage, t))
                for stage in ("train", "eraser", "retrain")}
        want["sample_grads"] = per_cycle(lambda t: sum(
            schedule.sample_grads(stage, t) for stage in ("train", "eraser", "retrain")))
        want["calibration_steps"] = (schedule.retained_rounds - 1) * len(targets)
        want["loss_and_grad_calls"] = (
            sum(want[f"sgd_steps.{stage}"] for stage in ("train", "eraser", "retrain"))
            + per_cycle(schedule.attack_steps))
        got = dict(tracer.counters)
        got["loss_and_grad_calls"] = tracer.totals["engine.loss_and_grad"][0]
        for key, value in want.items():
            self.tally.check(got.get(key, 0) == value,
                             f"counter {key} = {got.get(key, 0)}, schedule says {value}")
        return want


# ---------------------------------------------------------------------------
# Measurements around the cycles

class HostClock(logging.Handler):
    """Stage times scaled to an idle host.

    Other tenants of a shared host slow this one down by up to 1.8x, in
    spells from a fraction of a second to minutes, so raw times of identical
    work differ by that much from run to run. The clock times a fixed
    reference loop of its own (small NumPy kernels and interpreter work, the
    mix of the package's hot paths) right before and right after each timed
    call, and at every record the package logs during it (one per training
    round and per retained round), with the time spent on the reference
    taken out of the call's. Each stretch between two marks is scaled by
    REFERENCE_S over the mean reference time at its ends. The reference does
    not touch the package, so a change to the package moves only the scaled
    time of the work it changed.
    """

    def __init__(self):
        super().__init__(logging.INFO)
        rng = np.random.default_rng(0)
        self._x, self._w = rng.normal(size=(32, 40)), rng.normal(size=(40, 32))
        self._marks: list[tuple[float, float]] | None = None  # (call seconds, reference)
        self._start = self._paused = 0.0
        self.slowdowns: list[float] = []  # mean slowdown of each timed call

    def reference(self) -> float:
        reps = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(20):
                z = np.maximum(self._x @ self._w, 0.0)
                tuple(np.asarray(g, dtype=np.float64).copy()
                      for g in (self._x.T @ z, z.sum(axis=0)))
            reps.append(time.perf_counter() - start)
        return statistics.median(reps)

    def emit(self, record: logging.LogRecord) -> None:
        if self._marks is not None:
            mark = time.perf_counter()
            self._marks.append((mark - self._start - self._paused, self.reference()))
            self._paused += time.perf_counter() - mark

    def time(self, fn, *args, **kwargs) -> float:
        marks = [(0.0, self.reference())]
        self._marks, self._paused = marks, 0.0
        self._start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - self._start - self._paused
            self._marks = None
        marks.append((seconds, self.reference()))
        scaled = sum((t1 - t0) * 2 * REFERENCE_S / (r0 + r1)
                     for (t0, r0), (t1, r1) in zip(marks, marks[1:]))
        self.slowdowns.append(seconds / scaled)
        return scaled


def setup_time(clock: HostClock, ini: Path) -> float:
    """One fresh-process set-up, timed inside the child and scaled by `clock`."""
    child_seconds = []

    def set_up():
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(ini)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        child_seconds.append(float(done.stdout.strip().splitlines()[-1]))

    clock.time(set_up)
    return child_seconds[0] / clock.slowdowns[-1]


def probe_engine(clock: HostClock, seed: int) -> dict[str, float]:
    """One forward and one loss-and-gradient call at batch 32 per preset,
    each the median of repeated calls, scaled like the stages."""
    from fedunlearn.nn import (Batch, adult_arch, build_model, cifar10_arch, dense_arch,
                               forward, loss_and_grad, mnist_arch, purchase_arch)

    presets = {"desk": dense_arch(40, 2, hidden=32), "adult": adult_arch(ADULT_FEATURES),
               "purchase": purchase_arch(), "mnist": mnist_arch(), "cifar10": cifar10_arch()}
    rng = np.random.default_rng([seed, 30])
    metrics = {}
    for name, arch in presets.items():
        params = build_model(arch, seed)
        batch = Batch(rng.normal(size=(32, *arch.input_shape)),
                      rng.integers(0, arch.num_classes, size=32))
        for kind, fn in (("fwd", forward), ("fwdbwd", loss_and_grad)):
            fn(arch, params, batch)
            samples = []

            def repeat():
                deadline = time.perf_counter() + 0.3
                while len(samples) < 5 or (time.perf_counter() < deadline
                                           and len(samples) < 200):
                    tick = time.perf_counter()
                    fn(arch, params, batch)
                    samples.append(time.perf_counter() - tick)

            clock.time(repeat)
            metrics[f"engine.probe.{name}.{kind}_us"] = (
                statistics.median(samples) / clock.slowdowns[-1] * 1e6)
    return metrics


def environment(run_dir: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    try:
        fs_type = subprocess.run(["stat", "-f", "-c", "%T", str(run_dir)], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs_type = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "machine": platform.machine(), "run_dir_fs": fs_type}


def medians(cycles: list[dict]) -> dict[str, float]:
    return {key: statistics.median(x for c in cycles for x in c[key]) for key in TIMED}


def cycles_s(cycles: list[dict]) -> float:
    return sum(sum(c[key]) for c in cycles for key in TIMED)


# ---------------------------------------------------------------------------
# The two kinds of run

def untraced_run(bench: Bench, args, run_dir: Path) -> dict:
    workload = bench.workload
    ini = write_inputs(workload, args.seed, run_dir)
    targets = forget_requests(workload, args.seed)
    min_cycles = len(targets) if args.write_expected else MIN_CYCLES
    setups: list[float] = []
    cycles = bench.run_cycles(
        ini, targets, min_cycles, args.seconds,
        after_cycle=lambda: setups.append(setup_time(bench.clock, ini)),
        min_sample_s=MIN_SAMPLE_S)
    setups += [setup_time(bench.clock, ini) for _ in range(MIN_SETUPS - len(setups))]
    if len(cycles) < min_cycles:
        return {}
    med = medians(cycles)
    setup_s = statistics.median(setups)
    values = {
        "setup_s": setup_s,
        **{f"{key}_s": med[key] for key in TIMED},
        "run_s": setup_s + med["train"] + MIN_CYCLES * sum(
            med[key] for key in METHODS + ("evaluate",)),
        "store_mb": cycles[0]["store_bytes"] / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    for cycle in cycles:
        print(f"# cycle, target {cycle['target']}: " + ", ".join(
            f"{key} {statistics.median(cycle[key]):.4f} s x{len(cycle[key])}" for key in TIMED))
    print("# set-ups: " + ", ".join(f"{s:.4f} s" for s in setups))
    print(f"# host slowdown, median over {len(bench.clock.slowdowns)} timed calls: "
          f"{statistics.median(bench.clock.slowdowns):.3f}")
    return {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}


def traced_run(bench: Bench, args, run_dir: Path) -> dict:
    workload = bench.workload
    ini = write_inputs(workload, args.seed, run_dir)
    probe = probe_engine(bench.clock, args.seed)
    targets = forget_requests(workload, args.seed)[:MIN_CYCLES]
    # No reference marks inside traced spans: the clock times only each
    # stage's ends, in the untraced cycles too so that the two compare. Each
    # target's cycle runs untraced and then traced, so a slow spell of the
    # host falls on both; span times are scaled by the traced stages' median
    # slowdown.
    logging.getLogger("fedunlearn").removeHandler(bench.clock)
    tracer = Tracer()
    plain, traced, slowdowns = [], [], []
    for target in targets:
        plain += bench.run_cycles(ini, [target], 1, 0.0)
        first_traced = len(bench.clock.slowdowns)
        tracer.install()
        try:
            traced += bench.run_cycles(ini, [target], 1, 0.0, tracer)
        finally:
            tracer.uninstall()
        slowdowns += bench.clock.slowdowns[first_traced:]
    if len(plain) < MIN_CYCLES or len(traced) < MIN_CYCLES:
        return {}
    slowdown = statistics.median(slowdowns)

    scenario = bench.cli.parse_scenario(ini)
    train, test, _ = bench.cli.prepare_data(scenario)
    schedule = Schedule.of(scenario, train.num_samples + test.num_samples)
    want = bench.check_counters(tracer, schedule, targets)

    totals, counters = tracer.totals, tracer.counters

    def calls(name):
        return totals[name][0]

    def self_s(*names):
        return sum(totals[n][2] for n in names)

    plain_med = medians(plain)
    step_ratio = want["sgd_steps.retrain"] / want["sgd_steps.eraser"]
    time_ratio = plain_med["retrain"] / plain_med["eraser"]
    values = {
        "data.prepare.calls": (calls("data.prepare"), "count"),
        "data.prepare.busy_s": (totals["data.prepare"][1], "s"),
        "engine.loss_and_grad.calls": (calls("engine.loss_and_grad"), "count"),
        "engine.loss_and_grad.self_s": (self_s("engine.loss_and_grad"), "s"),
        "engine.loss_and_grad.us_per_call": (
            totals["engine.loss_and_grad"][1] / calls("engine.loss_and_grad") * 1e6, "us"),
        "engine.forward.calls": (calls("engine.forward"), "count"),
        "engine.forward.self_s": (self_s("engine.forward"), "s"),
        "engine.sample_grads": (counters["sample_grads"], "count"),
        "params.paramset_new.calls": (calls("params.paramset_new"), "count"),
        "params.paramset_new.self_s": (self_s("params.paramset_new"), "s"),
        "params.param_linear.calls": (calls("params.param_linear"), "count"),
        "params.param_linear.self_s": (self_s("params.param_linear"), "s"),
        "params.save_load.self_s": (self_s("params.save_load"), "s"),
        "federation.local_train.calls": (calls("federation.local_train"), "count"),
        "federation.local_train.self_s": (self_s("federation.local_train"), "s"),
        **{f"federation.sgd_steps.{stage}": (counters[f"sgd_steps.{stage}"], "count")
           for stage in ("train", "eraser", "retrain")},
        "federation.aggregate.calls": (calls("federation.aggregate"), "count"),
        "federation.aggregate.self_s": (self_s("federation.aggregate"), "s"),
        "retention.store_round.self_s": (self_s("retention.store_round"), "s"),
        "retention.bytes_written": (counters["bytes_written"], "B"),
        "retention.write_mb_per_s": (
            counters["bytes_written"] / 1e6 / totals["retention.store_round"][1], "MB/s"),
        "retention.load_round.self_s": (
            self_s("retention.load_round", "retention.load_client"), "s"),
        "retention.bytes_read": (counters["bytes_read"], "B"),
        "retention.read_mb_per_s": (
            counters["bytes_read"] / 1e6 / totals["retention.load_round"][1], "MB/s"),
        "unlearning.calibrate_update.calls": (calls("unlearning.calibrate_update"), "count"),
        "unlearning.calibrate_update.self_s": (self_s("unlearning.calibrate_update"), "s"),
        # retained rounds the eraser calibrated (one burst over the remaining clients each)
        "unlearning.calibration_steps": (counters["calibration_steps"], "count"),
        "unlearning.eps_fallbacks": (counters["eps_fallbacks"], "count"),
        # exact retrain/eraser SGD steps beside the measured untraced time ratio;
        # information for the cost model, not gated
        "unlearning.step_ratio": (step_ratio, "ratio"),
        "unlearning.time_ratio": (time_ratio, "ratio"),
        **{f"evaluation.{fn}.self_s": (self_s(f"evaluation.{fn}"), "s")
           for fn in ("evaluate", "train_attack", "attack_metrics",
                      "build_membership_features")},
        # median over the untraced/traced pairs, so a warm-up in the first
        # cycle of the run does not count as tracing cost
        "trace.overhead_ratio": (statistics.median(
            cycles_s([t]) / cycles_s([p]) for p, t in zip(plain, traced)), "ratio"),
    }
    scale = {"s": 1 / slowdown, "us": 1 / slowdown, "MB/s": slowdown}
    values = {name: (v * scale.get(unit, 1), unit) for name, (v, unit) in values.items()}
    values.update({name: (us, "us") for name, us in probe.items()})
    paper = scenario.retain_interval / scenario.calibration_ratio
    print(f"# {workload.name}: exact step ratio retrain/eraser {step_ratio:.4f}, measured "
          f"time ratio {time_ratio:.4f}, paper's interval/ratio {paper:.4f}")
    shares = tracer.stage_shares()
    for stage in TIMED:
        ranked = sorted(shares.get(stage, {}).items(), key=lambda kv: -kv[1])
        print(f"# self-time share of {stage}: "
              + ", ".join(f"{layer} {share:.3f}" for layer, share in ranked))
    tracer.write(RUNS / f"trace-{workload.name}-seed{args.seed}.json",
                 {"workload": workload.name, "seed": args.seed, "targets": targets,
                  "closed_form": want, "environment": environment(run_dir)})
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help=f"serve every request on seed {DEFAULT_SEED} and record "
                             f"its test scores in {EXPECTED.name}")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedunlearn" / "__init__.py").is_file():
        print(f"no fedunlearn sources at {SRC}", file=sys.stderr)
        return 2
    if args.write_expected and (args.seed != DEFAULT_SEED or args.trace):
        print(f"--write-expected needs --seed {DEFAULT_SEED} --trace 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    expected_doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = expected_doc.get(workload.name) if args.seed == DEFAULT_SEED else None
    if args.seed == DEFAULT_SEED and expected is None and not args.write_expected:
        print(f"no recorded scores for {workload.name} in {EXPECTED}", file=sys.stderr)
        return 2
    bench = Bench(workload, args.seed, expected, args.write_expected)

    RUNS.mkdir(exist_ok=True)
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        print("# environment " + json.dumps(environment(run_dir), sort_keys=True))
        run = traced_run if args.trace else untraced_run
        metrics = run(bench, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = bench.tally
    if not metrics:
        tally.check(False, f"fewer than {MIN_CYCLES} cycles completed")
    if args.write_expected and tally.failed == 0:
        expected_doc[workload.name] = bench.recorded
        EXPECTED.write_text(json.dumps(expected_doc, indent=1, sort_keys=True) + "\n")
    for problem in tally.problems:
        print(f"# FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# failed_ops_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
