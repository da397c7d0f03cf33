"""Tests of the benchmark itself: answer checks, span arithmetic, failure
accounting and the metric list.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import copy
import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from semilab.cli import main as cli_main  # noqa: E402


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    workloads.write_inputs(d)
    # an order-3 semigroup with 64 violations of the quadruple condition
    (d / "small.json").write_text(json.dumps(
        {"n": 3, "table": [[0, 0, 2], [0, 1, 2], [2, 2, 0]]}))
    return str(d)


def _op(workload, label):
    return next(op for op in workloads.WORKLOADS[workload]
                if op.label == label)


def _run(op, input_dir):
    rc, out, err = worker.run_op(cli_main, op.resolve(input_dir))
    assert err is None
    return rc, json.loads(out)


def _problems(op, rc, report, input_dir):
    return op.check(rc, json.dumps(report), input_dir)


# -- known-answer checks ----------------------------------------------------


def test_kb_report_checks_and_tampering(input_dir):
    op = _op("complete", "kb s9.pres")
    rc, report = _run(op, input_dir)
    assert _problems(op, rc, report, input_dir) == []
    # a later counters block must not break the checks
    extra = dict(report, stats={"critical_pairs": 1})
    assert _problems(op, rc, extra, input_dir) == []

    bad = copy.deepcopy(report)
    bad["rules"][3]["rhs"] = bad["rules"][4]["rhs"]
    assert _problems(op, rc, bad, input_dir) == ["rule list differs"]
    assert _problems(op, rc, dict(report, status="budget-exhausted"),
                     input_dir)
    assert _problems(op, 3, report, input_dir)
    assert op.check(rc, "not json", input_dir)
    assert op.check(rc, "[]", input_dir)


def test_probe_witnesses_replay_and_tampering(input_dir):
    op = _op("probe-collide", "probe quadruple.pres --max-len 3")
    rc, report = _run(op, input_dir)
    assert _problems(op, rc, report, input_dir) == []
    assert workloads.replay_witnesses(report) == []

    bad = copy.deepcopy(report)
    bad["witnesses"][0]["derivation"][0]["position"] += 1
    assert workloads.replay_witnesses(bad)
    assert _problems(op, rc, bad, input_dir)

    bad = copy.deepcopy(report)
    del bad["witnesses"][2]["derivation"]
    assert _problems(op, rc, bad, input_dir)

    bad = copy.deepcopy(report)
    w = bad["witnesses"][0]
    w["u"], w["v"] = w["v"], w["u"]
    assert _problems(op, rc, bad, input_dir) == [
        "witness pairs differ (17 found)"]

    bad = copy.deepcopy(report)
    assert bad["extension_presentation"]["relations"][2] == ["u a", "v b"]
    bad["extension_presentation"]["relations"][2] = ["u a", "u b"]
    assert _problems(op, rc, bad, input_dir)


def test_table_reports_checks_and_tampering(input_dir):
    tampers = {
        "enumerate --order 4 --tables":
            lambda r: r["tables"][5][0].__setitem__(0, 3),
        "rank1 --n 3 --p 3":
            lambda r: r["table"]["table"][7].__setitem__(7, 0),
        "laws rank1-2-5.json":
            lambda r: r["laws"]["left_unlimited"][0].__setitem__(0, 1),
        "malcev z20.json":
            lambda r: r.__setitem__("systems_checked", 3_199_999),
    }
    for label, tamper in tampers.items():
        op = _op("tables", label)
        rc, report = _run(op, input_dir)
        assert _problems(op, rc, report, input_dir) == [], label
        tamper(report)
        assert _problems(op, rc, report, input_dir), label


def test_malcev_violations_are_verified(input_dir):
    op = workloads.Op(("malcev", "@small.json"), 0,
                      {"systems": 485, "violations": 64})
    rc, report = _run(op, input_dir)
    assert _problems(op, rc, report, input_dir) == []

    bad = copy.deepcopy(report)
    bad["violations"][0] = [0, 0, 0, 0, 0, 0, 0, 0]
    assert _problems(op, rc, bad, input_dir)[0].startswith("not a violation")

    bad = copy.deepcopy(report)
    bad["violations"][1] = bad["violations"][0]
    assert _problems(op, rc, bad, input_dir) == ["duplicate violations"]


def _malcev_oracle(rows):
    """Systems and violations of the quadruple scan, counted independently:
    with P_ab = {(x, y) : x a = y b}, a system is an anchor in P_ab & P_cd
    with any (u, v) in P_ab, and it is violated when (u, v) is not in P_cd."""
    n = len(rows)
    masks = {}
    for a in range(n):
        for b in range(n):
            m = 0
            for x in range(n):
                for y in range(n):
                    if rows[x][a] == rows[y][b]:
                        m |= 1 << (x * n + y)
            masks[a, b] = m
    systems = violations = 0
    values = list(masks.values())
    for p_ab in values:
        size = p_ab.bit_count()
        for p_cd in values:
            anchors = (p_ab & p_cd).bit_count()
            systems += size * anchors
            violations += (size - anchors) * anchors
    return systems, violations


def test_malcev_answers_match_independent_oracle():
    from semilab.rank1 import rank1_universe

    def table(n, p):
        return [list(r) for r in rank1_universe(n, p).table.rows]

    z20 = [[(i + j) % 20 for j in range(20)] for i in range(20)]
    answers = {op.argv[1]: op.answers for op in workloads.WORKLOADS["tables"]
               if op.argv[0] == "malcev"}
    for name, rows in (("@z20.json", z20),
                       ("@rank1-1-11.json", table(1, 11))):
        ans = answers[name]
        assert _malcev_oracle(rows) == (ans["systems"], ans["violations"])
    # larger tables the scan needs over 1 GiB for, or cannot finish under
    # the cap today
    assert _malcev_oracle(table(2, 2)) == (2_146_816, 1_178_496)
    assert _malcev_oracle(table(2, 3)) == (2_526_467_841, 1_604_427_264)


# -- spans and self time ------------------------------------------------------


def test_self_times_on_synthetic_span_tree():
    # [name, parent, start, end, counts]
    tree = [
        ["A", None, 0.0, 10.0, {}],
        ["B", 0, 1.0, 4.0, {}],
        ["C", 0, 5.0, 9.0, {}],
        ["D", 2, 6.0, 8.0, {}],
        ["A", None, 10.0, 12.0, {}],
        ["B", 4, 10.5, 11.0, {}],
    ]
    got = spans.self_times(tree)
    assert got == {"A": 3.0 + 1.5, "B": 3.0 + 0.5, "C": 2.0, "D": 2.0}
    assert sum(got.values()) == 12.0      # the two root spans, end to end


def test_tracer_nesting_counters_and_reset():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda n: list(range(n)),
                       counters=lambda r: {"items": len(r)})
    gen = tracer.wrap_generator("gen", lambda: iter("abc"), "letters")
    hot = tracer.wrap_counter("hot", lambda: None)

    def outer():
        hot()
        hot()
        return leaf(3), list(gen())
    root = tracer.wrap("root", outer)

    root()
    s = tracer.summary()
    assert s["leaf"] == {"calls": 1, "self_s": 1.0, "items": 3}
    assert s["gen"] == {"calls": 1, "self_s": 1.0, "letters": 3}
    assert s["hot"] == {"calls": 2, "self_s": 0.0}
    assert s["root"]["self_s"] == 5.0 - 2.0
    tracer.reset()
    hot()
    assert tracer.summary() == {"hot": {"calls": 1, "self_s": 0.0}}


def test_counts_survive_reinstalling_the_tracer(monkeypatch):
    import types
    module = types.ModuleType("fake_layer")
    module.hot = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    probes = {"fake.hot": (("fake_layer:hot",), None, "count")}
    tracer = spans.Tracer()
    for _ in range(2):          # the worker installs around each traced op
        tracer.install(probes)
        module.hot()
        tracer.uninstall()
    module.hot()                # not traced
    assert tracer.summary() == {"fake.hot": {"calls": 2, "self_s": 0.0}}


def test_install_wraps_the_callers_namespace(input_dir, monkeypatch):
    import importlib
    for bindings, _, _ in spans.PROBES.values():
        for binding in bindings:
            mod, attr = binding.split(":")
            module = importlib.import_module(mod)
            monkeypatch.setattr(module, attr, getattr(module, attr))
    import semilab.cli
    original = semilab.cli.kb_complete
    tracer = spans.Tracer()
    tracer.install()
    assert semilab.cli.kb_complete is not original
    main = tracer.wrap("cli.main", cli_main)
    op = _op("complete", "kb quadruple.pres")
    rc, out, err = worker.run_op(main, op.resolve(input_dir))
    tracer.uninstall()
    assert semilab.cli.kb_complete is original
    assert err is None and op.check(rc, out, input_dir) == []
    s = tracer.summary()
    assert s["rewriting.kb_complete"]["rules"] == 3
    assert s["presentations.parse_presentation_file"]["calls"] == 1
    total = sum(v["self_s"] for v in s.values())
    root = tracer.spans[0]
    assert root[0] == "cli.main" and total == pytest.approx(root[3] - root[2])


# -- failure accounting and the cap -------------------------------------------


def test_failed_ops_are_counted_and_the_run_goes_on(input_dir):
    ops = [_op("complete", "kb quadruple.pres"), _op("complete", "kb s9.pres")]

    def flaky(argv):
        if "s9" in argv[1]:
            raise MemoryError
        return cli_main(argv)
    job = {"seed": 3, "seconds": 1, "cap_mib": None, "input_dir": input_dir}
    res = worker.run_job(ops, job, flaky)
    n = len(res["passes"]) + 1          # the untimed first pass is checked too
    assert res["attempted"] == 2 * n and res["failed"] == n
    assert res["problems"][0]["problems"] == ["MemoryError"]

    def wrong(argv):
        print(json.dumps({"verb": "kb", "status": "confluent"}))
        return 0
    res = worker.run_job(ops[:1], job, wrong)
    assert res["failed"] == res["attempted"] >= 2


def test_a_failed_op_fails_the_run(input_dir, monkeypatch, capsys):
    """run.main reports "correct": false and exits 1 when an op raises, even
    though every answer it did get was right."""
    def raising(argv):
        if "s9" in argv[1]:
            raise RuntimeError("op crashed")
        return cli_main(argv)

    def fake_spawn(job):
        if job["setup_only"]:
            return 0.1, None
        ops = [_op("complete", "kb quadruple.pres"),
               _op("complete", "kb s9.pres")]
        return 0.1, worker.run_job(ops, dict(job, input_dir=input_dir),
                                   raising)
    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "complete", "--seconds", "1",
                     "--seed", "7"]) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False
    assert last["attempted"] == 2 * last["failed"] >= 4


def test_traced_job_runs_each_op_traced_and_plain(input_dir):
    ops = [_op("complete", "kb quadruple.pres")]
    job = {"seed": 1, "seconds": 1, "cap_mib": None, "input_dir": input_dir}
    res = worker.run_job(ops, job, cli_main, spans.Tracer())
    n = len(res["passes"])
    # the untimed first pass runs each op once, the timed passes twice
    assert res["attempted"] == 1 + 2 * n and res["failed"] == 0
    record = res["passes"][0]
    assert record["trace"]["rewriting.kb_complete"]["calls"] == 1
    assert record["traced_wall_s"] > 0 and record["wall_s"] > 0
    values = run.layer_values(record)
    assert values["rewriting.kb_complete.rules"] == 3
    assert abs(values["trace.unattributed_s"]) < 0.01


def test_cap_applies_to_the_child_only():
    before = resource.getrlimit(resource.RLIMIT_AS)
    code = ("import worker\n"
            "worker._set_cap(256)\n"
            "try:\n"
            "    bytearray(512 << 20)\n"
            "    print('allocated')\n"
            "except MemoryError:\n"
            "    print('capped')\n"
            "worker._set_cap(None)\n"
            "bytearray(300 << 20)\n"
            "print('lifted')\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["capped", "lifted"]
    assert resource.getrlimit(resource.RLIMIT_AS) == before


# -- the metric list ----------------------------------------------------------


def test_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    for name, _ in run.PER_LAYER:
        prefix = name.rpartition(".")[0]
        assert prefix in spans.PROBES or prefix.split(".")[0] in ("cli",
                                                                  "trace")
