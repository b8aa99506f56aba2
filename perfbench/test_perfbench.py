"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import run
from checks import Outcome, check, rep_verify_names
from tracer import outermost, self_times, summarize
from workloads import WORKLOADS, generate, is_adapted, options, prefix_signs

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SUBCOMMANDS = {"verify-algebra", "characters", "rep-build", "rep-verify",
               "classify-roots", "transport", "sweep"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)


def test_every_subcommand_is_exercised():
    used = {argv[0] for w in WORKLOADS for argv in generate(w, 1)}
    assert used == SUBCOMMANDS


def test_weights_are_adapted_by_construction():
    count = 0
    for seed in range(20):
        for w in WORKLOADS:
            for argv in generate(w, seed):
                opts = options(argv)
                if "eps" in opts:
                    eps = tuple(1 if s == "+" else -1 for s in opts["eps"].split(","))
                    r = [Fraction(x) for x in opts["r"].split(",")]
                    assert is_adapted(r, eps), argv
                    count += 1
    assert count > 0


def test_own_adaptedness_rule():
    assert prefix_signs((1, -1, -1)) == (1, -1, 1)
    assert is_adapted([Fraction(3, 10), Fraction(4, 5)], (1, -1))       # different classes
    assert is_adapted([Fraction(1, 2), Fraction(1, 2)], (1, 1))         # gap 1
    assert not is_adapted([Fraction(1, 2), Fraction(0)], (1, 1))        # gap 1/2
    assert not is_adapted([Fraction(1), Fraction(-1)], (1, 1))          # gap -1
    assert not is_adapted([0, 0, Fraction(-2)], (1, -1, -1))            # positions 1, 3


def _span(name, parent, start, end, agg=0.0, value=None):
    return [name, parent, start, end, agg, value]


def test_self_time_arithmetic():
    spans = [
        _span("cli.main", -1, 0.0, 10.0, agg=1.0),
        _span("ncalg.identity_suite", 0, 1.0, 4.0),
        _span("ncalg.identity_suite", 1, 2.0, 3.0),
        _span("hrep.verify_rep", 0, 5.0, 9.0, agg=0.5),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 3.5])
    assert outermost(spans) == [True, True, False, True]
    s = summarize(spans, scalar_ops=4, scalar_s=1.5)
    assert s["self"]["cli"] == pytest.approx(2.0)
    assert s["self"]["ncalg"] == pytest.approx(3.0)
    assert s["self"]["scalars"] == pytest.approx(1.5)
    assert s["incl"]["ncalg.identity_suite"] == pytest.approx(3.0)   # nested call not twice
    assert s["count"]["ncalg.identity_suite"] == 2
    assert sum(s["self"].values()) == pytest.approx(10.0)


def test_metric_names_and_units_are_well_formed():
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCHMARK[group]]
        assert len(names) == len(set(names))
        for m in BENCHMARK[group]:
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]          # two samples of 20 invocations
    value, pct = run.tail(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0])[0] == 2.0


def _pass(times):
    return {"recs": [{"main_s": t} for t in times]}


def test_middle_two_repeats_per_invocation():
    two = [_pass([1.0, 5.0]), _pass([3.0, 4.0])]
    assert run.middle_two(two) == [[1.0, 4.0], [3.0, 5.0]]         # the repeats themselves
    three = two + [_pass([2.0, 9.0])]
    assert run.middle_two(three) == [[2.0, 5.0], [2.0, 5.0]]       # the median, twice
    four = three + [_pass([0.5, 6.0])]
    assert run.middle_two(four) == [[1.0, 5.0], [2.0, 6.0]]        # outer repeats dropped


def _rec(argv, main_s, ok=True, residual=0.0, findings=3):
    return {"argv": argv, "main_s": main_s, "setup_s": 0.2, "reference_s": 2 * run.REFERENCE_S,
            "rc": 0 if ok else 1,
            "outcome": Outcome(ok, None if ok else "failed", findings, residual)}


def test_every_end_to_end_metric_is_printed_with_its_unit(capsys):
    argvs = [["rep-verify", "--n=2", "--eps=+,-", "--r=3/10,4/5", f"--depth={d}", "--margin=8"]
             for d in (14, 14, 34)]
    passes = [{"recs": [_rec(argvs[0], 0.1, residual=1e-12), _rec(argvs[1], 0.2),
                        _rec(argvs[2], 0.3, ok=False, residual=1e3)],
               "wall_s": 0.6}]
    metrics = run.end_to_end(passes, [0.2, 0.3], failed=1, attempted=3)
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    # deep build excluded; the second report's 0.0 counts as machine epsilon
    assert metrics["accuracy_digits"]["value"] == pytest.approx((12.0 + 52 * math.log10(2)) / 2)
    assert metrics["ok_frac"]["value"] == pytest.approx(2 / 3)
    # the host ran at half the reference speed: times halve, rates double
    assert metrics["wall_s"]["value"] == pytest.approx(0.6 / 2)
    assert metrics["checks_per_s"]["value"] == pytest.approx(6 / 0.3)
    assert "p" in capsys.readouterr().out


def test_rep_verify_check_recomputes_the_signature():
    argv = ["rep-verify", "--n=2", "--eps=-,-", "--r=1/2,1/2", "--depth=14", "--margin=8"]
    findings = [{"name": n, "ok": True, "residual": 0.0} for n in rep_verify_names(2)]
    report = {"findings": findings, "max_residual": 0.0, "pass": True,
              "inputs": {"signature": [-1, 1], "rank": 2}}
    assert check(argv, 0, json.dumps(report), "", None).ok
    report["inputs"]["signature"] = [-1, -1]
    outcome = check(argv, 0, json.dumps(report), "", None)
    assert not outcome.ok and "prefix products" in outcome.problem
