"""The session hook merges its records into ``BENCH_engine.json``.

A session that runs only some benchmarks replaces those entries and keeps
every other one, so a partial run leaves the report whole.
"""

import json
from pathlib import Path
from types import SimpleNamespace


def test_partial_session_keeps_the_other_entries(tmp_path, monkeypatch, pytestconfig):
    # The benchmarks' conftest as pytest registered it (a bare ``import
    # conftest`` can find another directory's conftest first).
    path = str(Path(__file__).with_name("conftest.py"))
    (conftest,) = [
        plugin for plugin in pytestconfig.pluginmanager.get_plugins()
        if getattr(plugin, "__file__", None) == path
    ]
    report = tmp_path / "BENCH_engine.json"
    old = {"E1": {"seconds": 1.0, "backend": "python"}, "E2": {"seconds": 2.0, "backend": "python"}}
    report.write_text(json.dumps({"schema": 1, "generated_at": "then", "benchmarks": old}))
    new = {"serve_startup": {"seconds": 0.3, "backend": "numpy"}}
    monkeypatch.setattr(conftest, "_BENCH_RECORDS", new)
    session = SimpleNamespace(config=SimpleNamespace(rootpath=tmp_path))

    conftest.pytest_sessionfinish(session, 0)
    merged = json.loads(report.read_text())
    assert merged["benchmarks"] == {**old, **new}
    assert merged["generated_at"] != "then"

    report.write_text('{"benchmarks": ')  # a torn report starts fresh
    conftest.pytest_sessionfinish(session, 0)
    assert json.loads(report.read_text())["benchmarks"] == new
