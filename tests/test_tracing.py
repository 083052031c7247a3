"""The benchmark's span tracer (perfbench/tracing.py) against the package.

The tracer finds each layer by the name of a module or class attribute and
rebinds it, so renaming or re-homing one of those names breaks only a traced
benchmark run.  This loads the tracer as the benchmark does, runs one small
estimate and one CLI call under it, and checks that the layers it names
recorded spans and that removing it restores every attribute.
"""

import importlib
import inspect
from pathlib import Path

import combidetect
from combidetect import ProblemInstance, SeededRng, make_class
from combidetect import _assignment, bounds, classes, cli, core, risk, rules

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes() -> dict:
    # every attribute of the package's modules and classes, by owner and name
    modules = (combidetect, core, classes, _assignment, rules, risk, bounds, cli)
    classes_ = (c for m in modules for _, c in inspect.getmembers(m, inspect.isclass))
    owners = [*modules, *(c for c in classes_ if c.__module__.startswith("combidetect"))]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_records_each_layer_and_uninstalls_cleanly(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = _attributes()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        assert risk.estimate_risk is not before[(id(risk), "estimate_risk")]
        inst = ProblemInstance(make_class("disjoint", N=2, K=1), 1.0)
        risk.estimate_risk("optimal", inst, 5, SeededRng(1))
        argv = "risk --class stars --m 4 --test maximum --mu 1 --mu 2 --trials 5 --seed 1"
        assert cli.main(argv.split()) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("#schema=combidetect.risk.v1\n")
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"risk._draw_block", "rules.batch_rejections", "risk.estimate_risk", "cli.main"} <= recorded
    # 10 rows for the direct call, 10 for each of the CLI call's two mu values
    assert tracer.counters["risk._draw_block.rows"] == 30
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_sees_one_rule_call_per_slice_of_a_scan(monkeypatch):
    # a scan lays every grid point's arms end to end: 3 points x 2 arms x 400
    # trials on DisjointSets(8,8) are 2400 rows of 8 block sums, one slice
    # straddling points and decided by one rule call at one mu per row
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        spec = make_class("disjoint", N=8, K=8)
        curve = risk.scan_critical_mu(spec, "optimal", [0.3, 1.2, 2.2], 400, SeededRng(3))
    finally:
        tracer.uninstall()
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert tracer.counters["risk._draw_block.rows"] == 3 * 2 * 400
    assert names.count("risk._draw_block") == names.count("rules.batch_rejections") == 1
    assert names.count("risk.scan_critical_mu") == 1
    # the generic kernel's tally reads the slice's per-row mu
    assert tracer.counters["classes.log_mean_exp_batch.rows"] == 2400
    assert tracer.counters["classes.members_touched"] == 2400 * 8
    assert curve == risk.scan_critical_mu(spec, "optimal", [0.3, 1.2, 2.2], 400, SeededRng(3))


def test_tracer_counts_one_generator_per_null_group_and_two_per_mixture_group(monkeypatch):
    # groups of 3 trials: 7 trials per segment are 3 groups (3, 3, 1), and a
    # 2-point scan has 2 null and 2 mixture segments, so 6 null groups build
    # one generator each (normals) and 6 mixture groups two (normals, codes)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(risk, "_chunk_size", lambda n: 3)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        risk.scan_critical_mu(make_class("disjoint", N=8, K=8), "optimal", [0.5, 1.5], 7, SeededRng(4))
    finally:
        tracer.uninstall()
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("core.generator") == 6 + 2 * 6
    assert tracer.counters["risk._draw_block.rows"] == 2 * 2 * 7
