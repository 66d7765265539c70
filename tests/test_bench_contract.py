"""The names the benchmark wraps must keep working.

`perfbench/run.py --trace 1` builds its per-layer split by wrapping
functions and methods of the package by name. A refactor that renames
one of them, or stops calling it through the name that is wrapped, breaks
the benchmark without failing any other test. This runs one small
`run_experiment` under the benchmark's own wrappers and checks that the
episode layers still account for the episode time.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_wraps_a_training_run(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    import bench_trace
    import bench_workloads
    from epidemictrl import harness
    from epidemictrl.ddpg import DdpgHyperParams
    from epidemictrl.neural import load_mlp

    tracer = bench_trace.Tracer()
    log = run.EpisodeLog(bench_workloads)
    hyper = DdpgHyperParams(seed=0, train_iterations=40)
    with run.tracing(tracer, log, layers=True):
        report = harness.run_experiment(
            2, 1, hyper=hyper, population=300, comparison_seeds=[0], out_dir=tmp_path
        )

    assert tracer.episode_accounting_errors() == []
    assert log.messages == [] and log.failed == 0
    # 80 training, 10 evaluation (iterations 20 and 30 reuse iteration
    # 10's: no learner step comes before iteration 32) and 5 comparison
    # episodes
    assert tracer.calls[bench_trace.EPISODE] == log.attempted == 95
    assert tracer.calls[bench_trace.TRAIN] == 1
    for metric in (
        "ddpg.rollout_s",
        "ddpg.learner_s",
        "ddpg.evaluate_s",
        "harness.comparison_s",
        "harness.io_s",
    ):
        assert tracer.calls[metric] > 0, metric
    actor, _ = load_mlp(tmp_path / "actor.ckpt")
    assert bench_workloads.actor_digest(actor) == bench_workloads.actor_digest(report.actor)
    assert report.log.iterations == list(range(1, 41))
    assert math.isfinite(report.eval_mean)
