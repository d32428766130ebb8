"""Self-checks of the benchmark in its reduced-size mode.

Every workload must print every declared metric with its declared unit
(``BENCHMARK.json``), and every known-answer check must fire when the
answer it checks is wrong.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_declared_metrics_match_the_benchmark():
    end_to_end, per_layer, names = _declared()
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert sorted(names) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    end_to_end, per_layer, _ = _declared()
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--selfcheck", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, done.stdout[-2000:]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == declared
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- every known-answer check fires ------------------------------------------

@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, tmp_path, workloads.SMALL)


def _measure(workload, **kwargs):
    obs = workloads.Observed()
    workload.measure(obs, traced=False, **kwargs)
    return obs


def test_oneshot_checks_polynomial_and_exit_code(ctx):
    oneshot = workloads.Oneshot(ctx, 1.0)
    oneshot.setup(3)
    assert _measure(oneshot).failed == 0
    right = oneshot.item.modulus
    oneshot.item.modulus = right ^ 0b10  # a different P(x)
    obs = _measure(oneshot)
    assert obs.failed == obs.attempted == len(workloads.ENGINE_VARIANTS)
    oneshot.item.modulus = right
    oneshot.item.path = oneshot.item.path.with_name("missing.eqn")
    obs = _measure(oneshot)
    assert obs.failed == obs.attempted  # non-zero exit on every audit


def test_fleet_checks_verdict_polynomial_and_error_records(ctx):
    fleet = workloads.Fleet(ctx, 1.0)
    fleet.setup(3)
    assert _measure(fleet).failed == 0
    clean = [item for item in fleet.items if item.clean]
    mutant = next(item for item in fleet.items if not item.clean)
    clean[0].modulus ^= 0b10  # wrong P(x) for a clean netlist
    mutant.verdict = "verified-multiplier"  # a mutant claimed clean
    clean[1].path.write_text("not a netlist\n")  # an error record
    obs = _measure(fleet)
    # cold and warm record of each of the three, plus the campaign's
    # exit code once the error record makes it fail differently
    bad = {p for p in obs.problems if p.startswith("record")}
    assert obs.failed >= 6 and len(bad) >= 5


def test_eco_checks_verdict_and_dirty_cone(ctx):
    eco = workloads.Eco(ctx, 1.0)
    eco.setup(3)
    assert _measure(eco).failed == 0
    eco.item.modulus ^= 0b10
    obs = _measure(eco)
    assert obs.failed == obs.attempted > 0
    eco.item.modulus ^= 0b10
    eco.edits[0].path.write_text(eco.item.path.read_text())  # no cone dirty
    obs = _measure(eco)
    assert obs.failed == 2


def test_eco_edits_keep_the_function_and_dirty_one_cone(tmp_path):
    import random

    import inputs
    from repro.netlist.eqn_io import read_eqn
    from repro.service.fingerprint import fingerprint_with_cones

    item, base = inputs.nand_mastrovito(tmp_path, 12, "base")
    _, cones = fingerprint_with_cones(base)
    lanes = inputs.operand_lanes(12, random.Random(5))
    for edit in inputs.eco_edits(base, item, 5, ["z0", "z6", "z11"]):
        edited = read_eqn(str(edit.path))
        assert inputs.failing_lanes(edited, item.modulus, lanes) == 0
        _, edited_cones = fingerprint_with_cones(edited)
        assert [o for o in cones if cones[o] != edited_cones[o]] == [edit.cone]


def test_simulated_algorithm2_recovers_the_generating_polynomial():
    import inputs

    for modulus in inputs.field_polynomials(8):
        for generator in inputs.GENERATORS:
            netlist = inputs.build(generator, modulus, "syn")
            assert inputs.algorithm2_modulus(netlist, 8) == modulus
        assert inputs.irreducible(modulus)
    assert not inputs.irreducible(0b100000001)  # x^8 + 1 = (x + 1)^8


def test_serve_checks_answers_and_http_errors(ctx):
    serve = workloads.Serve(ctx, 1.0)
    serve.setup(3)
    try:
        obs = _measure(serve)
        assert obs.failed == 0 and obs.attempted == len(serve.schedule)
        serve.setup(3)
        for item in serve.cached:
            item.modulus ^= 0b10
        serve.payloads[str(serve.fresh[0].path)] = b'{"netlist": "x", "format": "bogus"}'
        obs = _measure(serve)
        wrong = [
            due for due, item in serve.schedule
            if item in serve.cached or item is serve.fresh[0]
        ]
        assert obs.failed == len(wrong) > 0
        assert sum(obs.detail.get("api.refused", [])) >= 1
    finally:
        serve.close()
