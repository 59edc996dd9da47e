"""The output checks fail on wrong outputs."""

import json

from perfbench import checks, inputs
from repro.instances.admission import AdmissionInstance
from repro.instances.request import Request, RequestSequence


def _tiny():
    requests = RequestSequence([
        Request(0, frozenset({"a", "b"}), 1.0),
        Request(1, frozenset({"a"}), 2.0),
        Request(2, frozenset({"b"}), 3.0),
    ])
    return AdmissionInstance({"a": 1, "b": 1}, requests)


def test_infeasible_accepted_set_fails():
    instance = _tiny()
    name, ok, _ = checks.feasibility(instance, {1, 2})
    assert name == "accepted_set_feasible" and ok
    assert not checks.feasibility(instance, {0, 1})[1]


def test_accepted_and_rejected_sets_from_a_log():
    log = [json.dumps(entry) for entry in (
        {"id": 0, "event": "accept", "at": None},
        {"id": 1, "event": "reject", "at": None},
        {"id": 0, "event": "preempt", "at": 2},
        {"id": 2, "event": "accept", "at": None},
    )]
    assert checks.accepted_from_log(log) == {2}
    assert checks.rejected_from_log(log) == [1, 0]


def test_service_log_must_equal_the_in_process_run():
    instance = inputs.service_window(5, scale=0.02)
    expected = checks.in_process_log(instance, seed=5)
    assert checks.same_log(expected, list(expected))[1]
    assert checks.in_process_log(instance, seed=5, batch=7) == expected
    changed = list(expected)
    entry = json.loads(changed[3])
    entry["event"] = "reject" if entry["event"] != "reject" else "accept"
    changed[3] = json.dumps(entry, sort_keys=True)
    name, ok, detail = checks.same_log(expected, changed)
    assert name == "server_log_equals_in_process" and not ok and "line 3" in detail
    assert not checks.same_log(expected, expected[:-1])[1]
    assert not checks.same_log(expected, expected + expected[-1:])[1]
