"""The benchmark's own tests: no gate may pass without evidence.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace

import pytest

import run
import tracer as tracer_mod

fo = run.load_program()

GOLDEN = ["verify", "-r", "12", "-w", "1,2,7"]


def golden_fan():
    return fo.build_resolution(fo.GroupType.from_weights(12, (1, 2, 7)))


# -- correctness gates -------------------------------------------------------


def test_dropped_cone_counts_as_failure():
    fan = golden_fan()
    assert run.check_validation(fo.validate_fan(fan), run.SAMPLES)
    broken = replace(fan, max_cones=fan.max_cones[1:])
    assert not run.check_validation(fo.validate_fan(broken), run.SAMPLES)


def test_validate_pass_loses_to_a_fan_missing_a_cone(monkeypatch):
    real = fo.build_resolution

    def drops_a_cone(group):
        fan = real(group)
        return replace(fan, max_cones=fan.max_cones[1:])

    inputs = {"types": [(12, (1, 2, 7)), (7, (1, 3, 3))], "sample_seed": 5}
    assert run.validate_pass(fo, inputs, {}, run.Clock()).failed == 0
    monkeypatch.setattr(fo, "build_resolution", drops_a_cone)
    result = run.validate_pass(fo, inputs, {}, run.Clock())
    assert result.failed == result.attempted == 2


def test_crash_counts_as_failure(monkeypatch):
    def crashes(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(fo, "validate_fan", crashes)
    inputs = {"types": [(12, (1, 2, 7))], "sample_seed": 5}
    result = run.validate_pass(fo, inputs, {}, run.Clock())
    assert result.failed == result.attempted == 1


def test_tampered_digest_counts_as_failure():
    records = fo.sweep(dim=2, r_min=31, r_max=31)
    pins = run.load_pins()
    good = run.PassResult()
    run.check_sweep_order(fo, 2, 31, records, pins, good)
    assert (good.attempted, good.failed) == (61, 0)

    tampered = {"sweep": {**pins["sweep"], "2/31": "0" * 64}}
    bad = run.PassResult()
    run.check_sweep_order(fo, 2, 31, records, tampered, bad)
    assert bad.failed == bad.attempted == 61


def test_wrong_sweep_record_counts_as_failure():
    records = fo.sweep(dim=2, r_min=31, r_max=31)
    records[3] = replace(records[3], euler=records[3].euler + 1)
    result = run.PassResult()
    run.check_sweep_order(fo, 2, 31, records, run.load_pins(), result)
    assert result.failed == 61


def test_verify_gate():
    pins = run.load_pins()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fo.cli.main(["verify", "-r", "13", "-w", "1,2,10"])
    text = out.getvalue()
    assert run.check_verify_output(13, (1, 2, 10), code, text, pins) is None
    assert run.check_verify_output(13, (1, 2, 10), 1, text, pins)
    assert run.check_verify_output(13, (1, 2, 10), code, text.replace("PASS", "FAIL"), pins)
    assert run.check_verify_output(13, (1, 2, 10), code, text.replace("euler 13", "euler 12"), pins)
    assert run.check_verify_output(101, (1, 2, 3, 95), 0, "type\neuler 232\nPASS\n", pins)


def test_zero_samples_do_not_pass():
    # validate_fan(samples=0) reports coverage_ok after testing nothing
    assert run.SAMPLES > 0
    assert fo.validate_fan(golden_fan(), samples=0).coverage_ok
    assert not run.check_validation(fo.validate_fan(golden_fan(), samples=0), 0)


# -- known-bad fans ------------------------------------------------------------


@pytest.mark.parametrize("workload", ["validate_many", "verify_large"])
def test_validate_fan_rejects_every_tampered_fan(workload):
    result = run.PassResult()
    run.negative_checks(fo, workload, run.make_inputs(workload, 3), 3, result)
    assert result.failed == 0, result.problems
    assert result.attempted == 2


def test_tampered_fan_has_each_defect():
    group = fo.GroupType.from_weights(11, (1, 3, 5))
    fan = fo.build_resolution(group)
    broken, (i, j), doubled = run.tamper(fan, run.random.Random(1))
    assert len(broken.max_cones) == len(fan.max_cones) - 1
    assert all(fo.cone_multiplicity(cone, group) == 1 for cone in broken.max_cones)
    assert doubled in {tuple(2 * x for x in ray.scaled) for ray in fan.rays}
    v = fo.validate_fan(broken)
    assert (i, j) in v.bad_pairs and doubled in v.bad_rays and v.uncovered > 0


def wrong_faces_checks():
    """Faster but wrong versions of the pairwise face check."""
    real = fo.fan._check_faces

    def neighbours_only(fan, normals):
        return [(i, j) for i, j in real(fan, normals) if j == i + 1]

    return {
        "no face check": lambda fan, normals: [],
        "adjacent indices only": neighbours_only,
    }


@pytest.mark.parametrize("name", list(wrong_faces_checks()))
def test_wrong_face_check_loses(monkeypatch, name):
    monkeypatch.setattr(fo.fan, "_check_faces", wrong_faces_checks()[name])
    inputs = run.make_inputs("validate_many", 3)
    result = run.PassResult()
    run.negative_checks(fo, "validate_many", inputs, 3, result)
    assert result.failed == 2


def test_fast_path_accepting_overlaps_loses(monkeypatch):
    monkeypatch.setattr(fo.fan, "_pair_face_enumerate", lambda *args: True)
    inputs = run.make_inputs("validate_many", 3)
    result = run.PassResult()
    run.negative_checks(fo, "validate_many", inputs, 3, result)
    assert result.failed == 2


def test_skipped_coverage_or_ray_check_loses(monkeypatch):
    inputs = run.make_inputs("validate_many", 3)
    monkeypatch.setattr(fo.fan, "_check_coverage", lambda *args: (0, 0, 0))
    result = run.PassResult()
    run.negative_checks(fo, "validate_many", inputs, 3, result)
    assert result.failed == 2
    monkeypatch.undo()
    monkeypatch.setattr(fo.GroupType, "primitive", lambda self, point: point)
    result = run.PassResult()
    run.negative_checks(fo, "validate_many", inputs, 3, result)
    assert result.failed == 2


def test_sweep_types_are_timed_by_the_runner(monkeypatch):
    inputs = {"orders": [(2, 31)]}
    result = run.sweep_pass(fo, inputs, run.load_pins(), run.Clock())
    assert (result.attempted, result.failed, len(result.type_ms)) == (61, 0, 61)
    assert fo.verify.measure_type.__name__ == "measure_type"

    # a sweep whose types the runner cannot time stops the run
    records = fo.sweep(dim=2, r_min=31, r_max=31)
    monkeypatch.setattr(fo, "sweep", lambda **kwargs: records)
    with pytest.raises(SystemExit):
        run.sweep_pass(fo, inputs, run.load_pins(), run.Clock())


def test_inputs_depend_only_on_the_seed():
    for workload in run.PASSES:
        assert run.make_inputs(workload, 7) == run.make_inputs(workload, 7)
    assert run.make_inputs("validate_many", 7) != run.make_inputs("validate_many", 8)


def test_pins_cover_every_drawable_input():
    pins = run.load_pins()
    orders = [(2, r) for r in run.SWEEP_N2] + [(4, run.SWEEP_N4)]
    orders += [(3, r) for r in run.SWEEP_N3]
    assert all(f"{dim}/{r}" in pins["sweep"] for dim, r in orders)
    assert f"4/{run.VERIFY_4D[0]}" in pins["verify_large"]


# -- tracing -----------------------------------------------------------------


def traced_golden():
    out = io.StringIO()
    with tracer_mod.Tracer() as tracer, contextlib.redirect_stdout(out):
        code = fo.cli.main(GOLDEN)
    return code, out.getvalue(), tracer


def test_traced_counters_for_the_golden_type():
    code, text, tracer = traced_golden()
    assert code == 0
    counts = tracer.counts
    assert counts["fan.build_resolution.nodes"] == 13
    assert counts["fan.build_resolution.leaves"] == 8
    assert counts["fan.build_resolution.rays"] == 7
    assert counts["polynomial.expand.terms"] == 5
    assert counts["fan.validate_fan.cones"] == 8
    assert counts["fan.validate_fan.cone_pairs"] == 28
    assert counts["propfrac.remainder.calls"] == 27
    assert counts["propfrac.remainder.useful"] == 8
    assert counts["fan.GroupType.primitive.calls"] == 14
    assert counts["fan.GroupType.contains.calls"] == 78
    assert counts["fan.det_int.calls"] == 88
    assert tracer.calls == {
        "cli.main": 1,
        "fan.resolution_report": 1,
        "fan.build_resolution": 1,
        "polynomial.expand": 1,
        "fan.validate_fan": 1,
        "fan.cone_multiplicity": 8,
    }
    assert not tracer.failed


def test_traced_counters_repeat_and_outputs_match():
    _, text, first = traced_golden()
    _, again_text, second = traced_golden()
    assert (second.counts, second.calls) == (first.counts, first.calls)
    plain = io.StringIO()
    with contextlib.redirect_stdout(plain):
        fo.cli.main(GOLDEN)
    assert text == again_text == plain.getvalue()


def test_tracer_restores_the_package():
    before = (fo.build_resolution, fo.fan.det_int, fo.cli.resolution_report,
              fo.ProperFraction.remainder, fo.GroupType.primitive)
    traced_golden()
    after = (fo.build_resolution, fo.fan.det_int, fo.cli.resolution_report,
             fo.ProperFraction.remainder, fo.GroupType.primitive)
    assert after == before


def test_spans_nest_and_account_for_the_call():
    _, _, tracer = traced_golden()
    names = [tracer.names[span[0]] for span in tracer.spans]
    root = names.index("cli.main")
    for i, (_, start, end, parent, type_id) in enumerate(tracer.spans):
        assert type_id == "1/12(1,2,7)"
        assert start <= end
        if i == root:
            assert parent == -1
        else:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    _, start, end, _, _ = tracer.spans[root]
    assert sum(tracer.self_s.values()) == pytest.approx(end - start)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    one_pass = {
        "setup_s": [0.3], "op_s": {"a": 1.0}, "raw_op_s": {"a": 1.0}, "probing_s": 0.0,
        "type_ms": {"a": 1.0, "b": 2.0}, "rss_mb": 40.0, "layers": {"calls": {}, "self_s": {}, "failed": {}, "counts": {}},
    }
    for printed, declared in ((run.end_to_end([one_pass]), spec["end_to_end"]),
                              (run.per_layer([one_pass]), spec["per_layer"])):
        assert {name: unit for name, (_, unit) in printed.items()} == {
            m["name"]: m["unit"] for m in declared
        }
