"""Tests for the AST invariant checker (``repro lint``).

Each rule gets a golden fixture pair: a source tree where it must fire and a
near-identical one where it must stay quiet — the quiet twin is what keeps
the rules from rotting into noise.  The framework tests cover the strict
rule registry, suppression parsing (including unused-suppression findings),
the fingerprint update round-trip and the JSON report schema; the final
acceptance test runs the real linter over the installed package and requires
a clean exit.
"""

import ast
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.registry import DuplicateKeyError
from repro.lint import (
    LINT_REPORT_SCHEMA,
    LINT_RULES,
    LintConfig,
    LintRule,
    UNUSED_SUPPRESSION_ID,
    run_lint,
)
from repro.lint.rules.schema_drift import DEFAULT_SCHEMA_SPECS, SchemaSpec, fingerprint


def lint_tree(tmp_path, files, rules=None, **config_kwargs):
    """Write ``files`` (rel path -> source) under ``tmp_path`` and lint them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    config = LintConfig(root=tmp_path, **config_kwargs)
    return run_lint(config, rules)


def rule_ids(result):
    return [v.rule_id for v in result.violations]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Framework: the rule registry
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_all_six_rules_registered(self):
        assert LINT_RULES.keys() == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        ]

    def test_double_registration_raises(self):
        with pytest.raises(DuplicateKeyError):
            LINT_RULES.register("RPR001", LintRule)

    def test_lookup_is_case_insensitive(self):
        assert LINT_RULES.get("rpr001") is LINT_RULES.get("RPR001")

    def test_unknown_rule_id_is_a_usage_error(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": "x = 1\n"}, rules=["RPR999"])
        assert result.rules_run == []
        assert result.errors and "RPR999" in result.errors[0]
        # ...and the known keys are listed for the one-glance fix.
        assert "RPR001" in result.errors[0]

    def test_every_rule_has_id_summary_and_invariants(self):
        for rule_id, cls in LINT_RULES.items():
            assert cls.rule_id == rule_id
            assert cls.summary
            assert cls.invariants


# ---------------------------------------------------------------------------
# Framework: suppressions
# ---------------------------------------------------------------------------


FIRING_RPR001 = (
    "def f(requests):\n"
    "    out = []\n"
    "    for r in requests:\n"
    "        for e in r.edges:\n"
    "            out.append(e)\n"
    "    return out\n"
)


class TestSuppressions:
    def test_trailing_comment_suppresses_the_line(self, tmp_path):
        source = FIRING_RPR001.replace(
            "for e in r.edges:",
            "for e in r.edges:  # repro: allow[RPR001] canonical-order definition",
        )
        result = lint_tree(tmp_path, {"m.py": source})
        assert result.violations == []

    def test_standalone_comment_applies_to_next_code_line(self, tmp_path):
        source = FIRING_RPR001.replace(
            "        for e in r.edges:",
            "        # repro: allow[RPR001] reason\n        for e in r.edges:",
        )
        result = lint_tree(tmp_path, {"m.py": source})
        assert result.violations == []

    def test_suppression_only_covers_its_rule(self, tmp_path):
        source = FIRING_RPR001.replace(
            "for e in r.edges:",
            "for e in r.edges:  # repro: allow[RPR002] wrong rule",
        )
        result = lint_tree(tmp_path, {"m.py": source})
        # RPR001 still fires, and the RPR002 allow is flagged as unused.
        assert "RPR001" in rule_ids(result)
        assert UNUSED_SUPPRESSION_ID in rule_ids(result)

    def test_unused_suppression_is_a_finding(self, tmp_path):
        result = lint_tree(
            tmp_path, {"m.py": "x = 1  # repro: allow[RPR001] stale\n"}
        )
        assert rule_ids(result) == [UNUSED_SUPPRESSION_ID]
        assert "allow[RPR001]" in result.violations[0].message

    def test_unused_only_counts_rules_that_ran(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"m.py": "x = 1  # repro: allow[RPR001] stale\n"},
            rules=["RPR002"],
        )
        assert result.violations == []

    def test_malformed_rule_id_is_an_error(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": "x = 1  # repro: allow[bogus]\n"})
        assert result.errors and "malformed rule id" in result.errors[0]

    def test_rpr000_cannot_be_suppressed(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": "x = 1  # repro: allow[RPR000]\n"})
        assert result.errors and "RPR000" in result.errors[0]

    def test_allow_inside_a_string_is_not_a_suppression(self, tmp_path):
        source = FIRING_RPR001 + 'DOC = "# repro: allow[RPR001]"\n'
        result = lint_tree(tmp_path, {"m.py": source})
        assert "RPR001" in rule_ids(result)

    def test_comma_separated_ids(self, tmp_path):
        source = FIRING_RPR001.replace(
            "for e in r.edges:",
            "for e in r.edges:  # repro: allow[RPR001, RPR002] both checked",
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR001"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# RPR001: frozenset iteration order
# ---------------------------------------------------------------------------


class TestRPR001:
    def test_fires_on_for_loop_over_edges(self, tmp_path):
        result = lint_tree(tmp_path, {"m.py": FIRING_RPR001}, rules=["RPR001"])
        assert rule_ids(result) == ["RPR001"]
        assert result.violations[0].line == 4

    def test_fires_on_comprehension_and_sorted(self, tmp_path):
        source = (
            "def f(r, caps):\n"
            "    unknown = [e for e in r.edges if e not in caps]\n"
            "    first = sorted(r.edges)[0]\n"
            "    return unknown, first\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR001"])
        assert rule_ids(result) == ["RPR001", "RPR001"]

    def test_fires_on_iteration_over_set_constructor(self, tmp_path):
        source = "def f(xs):\n    return [x for x in set(xs)]\n"
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR001"])
        assert rule_ids(result) == ["RPR001"]

    def test_clean_fixture(self, tmp_path):
        source = (
            "def f(r, caps, load):\n"
            "    for e in r.ordered_edges:\n"      # the canonical order
            "        load[e] = load.get(e, 0) + 1\n"
            "    ok = all(e in caps for e in r.ordered_edges)\n"
            "    n = len(r.edges)\n"               # len is order-free
            "    member = 'x' in r.edges\n"        # membership is order-free
            "    union = set() | r.edges\n"        # set algebra is order-free
            "    canon = sorted(set([1, 2]))\n"    # sorted(set) restores order
            "    return ok, n, member, union, canon\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR001"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# RPR002: unseeded randomness
# ---------------------------------------------------------------------------


class TestRPR002:
    def test_fires_on_global_random_calls(self, tmp_path):
        source = (
            "import random\n"
            "def f(xs):\n"
            "    random.shuffle(xs)\n"
            "    return random.random()\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR002"])
        assert rule_ids(result) == ["RPR002", "RPR002"]

    def test_fires_on_bare_default_rng(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def f():\n"
            "    a = np.random.default_rng()\n"
            "    b = np.random.default_rng(None)\n"
            "    return a, b\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR002"])
        assert rule_ids(result) == ["RPR002", "RPR002"]

    def test_fires_on_legacy_numpy_global_state(self, tmp_path):
        source = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR002"])
        assert rule_ids(result) == ["RPR002"]

    def test_fires_on_from_import_alias(self, tmp_path):
        source = "from random import shuffle\ndef f(xs):\n    shuffle(xs)\n"
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR002"])
        assert rule_ids(result) == ["RPR002"]

    def test_clean_fixture(self, tmp_path):
        source = (
            "import random\n"
            "import numpy as np\n"
            "def f(seed, random_state):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    forwarded = np.random.default_rng(random_state)\n"
            "    r = random.Random(seed)\n"
            "    return rng, forwarded, r\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR002"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# RPR003: registry bypass
# ---------------------------------------------------------------------------


class TestRPR003:
    def test_fires_in_experiments(self, tmp_path):
        source = (
            "def run(instance):\n"
            "    algo = FractionalAdmissionControl(instance.capacities)\n"
            "    return algo\n"
        )
        result = lint_tree(
            tmp_path, {"experiments/e99.py": source}, rules=["RPR003"]
        )
        assert rule_ids(result) == ["RPR003"]
        assert "FractionalAdmissionControl" in result.violations[0].message

    def test_fires_on_dotted_construction_in_cli(self, tmp_path):
        source = (
            "from repro.engine import backends\n"
            "def f(caps, g):\n"
            "    return backends.NumpyWeightBackend(caps, g)\n"
        )
        result = lint_tree(tmp_path, {"cli.py": source}, rules=["RPR003"])
        assert rule_ids(result) == ["RPR003"]

    def test_clean_fixture_registry_lookup(self, tmp_path):
        source = (
            "def run(instance):\n"
            "    build = ADMISSION_ALGORITHMS.get('fractional')\n"
            "    return build(instance)\n"
        )
        result = lint_tree(
            tmp_path, {"experiments/e99.py": source}, rules=["RPR003"]
        )
        assert result.violations == []

    def test_defining_modules_are_out_of_scope(self, tmp_path):
        source = (
            "def build(instance, **kwargs):\n"
            "    return FractionalAdmissionControl(instance.capacities, **kwargs)\n"
        )
        result = lint_tree(tmp_path, {"core/runtime.py": source}, rules=["RPR003"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# RPR004: export/restore state drift
# ---------------------------------------------------------------------------


_STATE_CLASS = """
class Algo:
    def __init__(self):
        self._weights = {{}}
        self._cache = {{}}

    def export_state(self):
        return {export}

    def restore_state(self, state):
{restore}
"""


class TestRPR004:
    def test_fires_when_attr_missing_from_both(self, tmp_path):
        source = _STATE_CLASS.format(
            export="{'weights': dict(self._weights)}",
            restore="        self._weights = dict(state['weights'])",
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert rule_ids(result) == ["RPR004"]
        assert "_cache" in result.violations[0].message

    def test_fires_when_attr_missing_from_restore_only(self, tmp_path):
        source = _STATE_CLASS.format(
            export="{'weights': dict(self._weights), 'cache': dict(self._cache)}",
            restore="        self._weights = dict(state['weights'])",
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert rule_ids(result) == ["RPR004"]
        assert "restore_state" in result.violations[0].message
        assert "export_state" not in result.violations[0].message.split(" or ")

    def test_fires_on_one_sided_state_protocol(self, tmp_path):
        source = (
            "class Algo:\n"
            "    def __init__(self):\n"
            "        self._weights = {}\n"
            "    def export_state(self):\n"
            "        return {'weights': dict(self._weights)}\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert rule_ids(result) == ["RPR004"]
        assert "restore_state" in result.violations[0].message

    def test_clean_fixture_both_sides_cover(self, tmp_path):
        source = _STATE_CLASS.format(
            export="{'weights': dict(self._weights), 'cache': dict(self._cache)}",
            restore=(
                "        self._weights = dict(state['weights'])\n"
                "        self._cache = dict(state['cache'])"
            ),
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert result.violations == []

    def test_clean_fixture_explicit_allowlist(self, tmp_path):
        source = (
            "class Algo:\n"
            "    _LINT_STATE_EXEMPT = frozenset({'_cache'})\n"
            "    def __init__(self):\n"
            "        self._weights = {}\n"
            "        self._cache = {}\n"
            "    def export_state(self):\n"
            "        return {'weights': dict(self._weights)}\n"
            "    def restore_state(self, state):\n"
            "        self._weights = dict(state['weights'])\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert result.violations == []

    def test_immutable_attrs_are_ignored(self, tmp_path):
        source = (
            "class Algo:\n"
            "    def __init__(self):\n"
            "        self.alpha = 1.0\n"
            "        self.name = 'algo'\n"
            "    def export_state(self):\n"
            "        return {}\n"
            "    def restore_state(self, state):\n"
            "        pass\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR004"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# RPR005: schema fingerprints
# ---------------------------------------------------------------------------


TOY_SPECS = (
    SchemaSpec(
        name="toy",
        version_file="mod.py",
        version_constant="TOY_SCHEMA",
        scopes=(("func", "mod.py", "to_dict"),),
    ),
)

TOY_MOD = (
    "TOY_SCHEMA = {version}\n"
    "def to_dict(x):\n"
    "    return {{'a': x, 'b': 2 * x{extra}}}\n"
)


def lint_toy(tmp_path, version=1, extra="", update=False):
    return lint_tree(
        tmp_path,
        {"mod.py": TOY_MOD.format(version=version, extra=extra)},
        rules=["RPR005"],
        schema_specs=TOY_SPECS,
        fingerprints_path=tmp_path / "fingerprints.json",
        update_fingerprints=update,
    )


class TestRPR005:
    def test_missing_fingerprint_then_update_round_trip(self, tmp_path):
        first = lint_toy(tmp_path)
        assert rule_ids(first) == ["RPR005"]
        assert "no checked-in fingerprint" in first.violations[0].message

        updated = lint_toy(tmp_path, update=True)
        assert updated.violations == []
        doc = json.loads((tmp_path / "fingerprints.json").read_text())
        entry = doc["entries"]["toy"]
        assert entry["version"] == 1
        assert entry["fields"] == ["a", "b"]
        assert entry["fingerprint"] == fingerprint(1, {"a", "b"})

        again = lint_toy(tmp_path)
        assert again.violations == []

    def test_field_change_without_version_bump_fails(self, tmp_path):
        lint_toy(tmp_path, update=True)
        result = lint_toy(tmp_path, extra=", 'c': 3")
        assert rule_ids(result) == ["RPR005"]
        assert "+c" in result.violations[0].message
        assert "version stayed 1" in result.violations[0].message

    def test_update_refuses_without_version_bump(self, tmp_path):
        lint_toy(tmp_path, update=True)
        before = (tmp_path / "fingerprints.json").read_text()
        result = lint_toy(tmp_path, extra=", 'c': 3", update=True)
        assert any("refusing to update" in v.message for v in result.violations)
        assert (tmp_path / "fingerprints.json").read_text() == before

    def test_field_change_with_version_bump_updates(self, tmp_path):
        lint_toy(tmp_path, update=True)
        stale = lint_toy(tmp_path, version=2, extra=", 'c': 3")
        assert rule_ids(stale) == ["RPR005"]
        assert "stale" in stale.violations[0].message

        updated = lint_toy(tmp_path, version=2, extra=", 'c': 3", update=True)
        assert updated.violations == []
        doc = json.loads((tmp_path / "fingerprints.json").read_text())
        assert doc["entries"]["toy"]["version"] == 2
        assert doc["entries"]["toy"]["fields"] == ["a", "b", "c"]

    def test_missing_scope_is_a_finding(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {"mod.py": "TOY_SCHEMA = 1\n"},
            rules=["RPR005"],
            schema_specs=TOY_SPECS,
            fingerprints_path=tmp_path / "fingerprints.json",
        )
        assert any("to_dict not found" in v.message for v in result.violations)

    def test_every_export_state_is_a_checkpoint_scope(self):
        # Each layer's export_state writes part of the checkpoint, so renaming
        # one of its keys breaks old files as surely as an envelope key does.
        import repro

        root = Path(repro.__file__).parent
        exporters = set()
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(stmt, ast.FunctionDef) and stmt.name == "export_state"
                    for stmt in node.body
                ):
                    exporters.add((path.relative_to(root).as_posix(), f"{node.name}.export_state"))
        (checkpoint,) = [spec for spec in DEFAULT_SCHEMA_SPECS if spec.name == "checkpoint"]
        scopes = {(rel, dotted) for kind, rel, dotted in checkpoint.scopes if kind == "func"}
        assert len(exporters) >= 6
        assert sorted(exporters - scopes) == []

    def test_frame_literal_conformance(self, tmp_path):
        files = {
            "service/wire.py": (
                "TOY_SCHEMA = 1\n"
                "FRAMES = {'ok': ('seq',)}\n"
            ),
            "service/server.py": (
                "def reply(conn, seq):\n"
                "    conn.send({'op': 'ok', 'seq': seq, 'v': 1})\n"
                "    conn.send({'op': 'bogus'})\n"
                "    conn.send({'op': 'ok', 'seq': seq, 'smuggled': 1})\n"
            ),
        }
        specs = (
            SchemaSpec(
                name="toy-service",
                version_file="service/wire.py",
                version_constant="TOY_SCHEMA",
                scopes=(("const", "service/wire.py", "FRAMES"),),
            ),
        )
        result = lint_tree(
            tmp_path,
            files,
            rules=["RPR005"],
            schema_specs=specs,
            fingerprints_path=tmp_path / "fp.json",
            update_fingerprints=True,
        )
        messages = [v.message for v in result.violations]
        assert any("op 'bogus' not declared" in m for m in messages)
        assert any("smuggled" in m for m in messages)
        assert len(messages) == 2  # the conforming literal stays quiet


# ---------------------------------------------------------------------------
# RPR006: one reply per command path
# ---------------------------------------------------------------------------


class TestRPR006:
    def test_fires_on_branch_with_no_reply(self, tmp_path):
        source = (
            "def _handle_command(conn, msg):\n"
            "    if msg == 'ping':\n"
            "        conn.send('pong')\n"
            "    # any other msg falls through silently\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert rule_ids(result) == ["RPR006"]
        assert "no reply" in result.violations[0].message

    def test_fires_on_double_reply(self, tmp_path):
        source = (
            "def _handle_command(conn, msg):\n"
            "    conn.send('ack')\n"
            "    conn.send(str(msg))\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert rule_ids(result) == ["RPR006"]
        assert "more than one reply" in result.violations[0].message

    def test_fires_on_missing_reply_in_dispatch_loop(self, tmp_path):
        source = (
            "def _shard_worker(conn):\n"
            "    conn.send('started')\n"
            "    while True:\n"
            "        command = conn.recv()\n"
            "        if command == 'work':\n"
            "            conn.send('done')\n"
            "        elif command == 'stop':\n"
            "            return\n"  # forgot to acknowledge stop
            "        else:\n"
            "            conn.send('unknown')\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert rule_ids(result) == ["RPR006"]

    def test_clean_fixture_dispatch_loop(self, tmp_path):
        source = (
            "def _shard_worker(conn):\n"
            "    conn.send('started')\n"  # pre-loop handshake: its own exchange
            "    while True:\n"
            "        try:\n"
            "            command = conn.recv()\n"
            "        except (EOFError, OSError):\n"
            "            return\n"  # peer gone: no one to reply to
            "        try:\n"
            "            if command == 'work':\n"
            "                conn.send('done')\n"
            "            elif command == 'stop':\n"
            "                conn.send('stopped')\n"
            "                return\n"
            "            else:\n"
            "                raise ValueError(command)\n"
            "        except Exception as err:\n"
            "            conn.send(('error', str(err)))\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert result.violations == []

    def test_clean_fixture_guard_then_queue(self, tmp_path):
        source = (
            "def _handle_frame(self, frame, writer):\n"
            "    op = frame.get('op')\n"
            "    if op not in ('submit', 'stats'):\n"
            "        self._send(writer, 'error')\n"
            "        return\n"
            "    try:\n"
            "        payload = frame['payload']\n"
            "    except KeyError:\n"
            "        self._send(writer, 'bad frame')\n"
            "        return\n"
            "    self._queue.put_nowait(payload)\n"
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert result.violations == []

    def test_non_protocol_functions_are_ignored(self, tmp_path):
        source = (
            "def _worker(self, shard):\n"
            "    return {'shard': shard}\n"  # never replies: bookkeeping
            "def broadcast(conns):\n"
            "    for c in conns:\n"
            "        c.send('hi')\n"  # not a _handle_*/_worker name
        )
        result = lint_tree(tmp_path, {"m.py": source}, rules=["RPR006"])
        assert result.violations == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_repo_is_clean(self):
        code, output = run_cli(["lint"])
        assert code == 0, output
        assert "0 violations" in output

    def test_json_report_schema(self, tmp_path):
        (tmp_path / "m.py").write_text(FIRING_RPR001, encoding="utf-8")
        code, output = run_cli(["lint", str(tmp_path), "--json"])
        assert code == 1
        doc = json.loads(output)
        assert doc["schema"] == LINT_REPORT_SCHEMA
        assert doc["ok"] is False
        assert doc["files_checked"] == 1
        assert doc["rules_run"] == LINT_RULES.keys()
        [violation] = doc["violations"]
        assert violation["rule"] == "RPR001"
        assert violation["path"] == "m.py"
        assert violation["line"] == 4
        assert "ordered_edges" in violation["message"]

    def test_text_report_format(self, tmp_path):
        (tmp_path / "m.py").write_text(FIRING_RPR001, encoding="utf-8")
        code, output = run_cli(["lint", str(tmp_path)])
        assert code == 1
        assert output.splitlines()[0].startswith("m.py:4: RPR001 ")

    def test_rules_filter(self, tmp_path):
        (tmp_path / "m.py").write_text(FIRING_RPR001, encoding="utf-8")
        code, output = run_cli(["lint", str(tmp_path), "--rules", "rpr002"])
        assert code == 0
        assert "rules: RPR002" in output

    def test_unknown_rule_is_exit_2(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        code, output = run_cli(["lint", str(tmp_path), "--rules", "RPR999"])
        assert code == 2
        assert "unknown lint rule" in output

    def test_missing_path_is_exit_2(self, tmp_path):
        code, output = run_cli(["lint", str(tmp_path / "nope")])
        assert code == 2

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        (tmp_path / "m.py").write_text("def f(:\n", encoding="utf-8")
        code, output = run_cli(["lint", str(tmp_path)])
        assert code == 1
        assert "failed to parse" in output

    def test_list_includes_lint_rules_section(self):
        code, output = run_cli(["list"])
        assert code == 0
        assert "[lint rules]" in output
        code, output = run_cli(["list", "lint"])
        assert code == 0
        for rule_id in LINT_RULES.keys():
            assert rule_id in output
        assert "invariant" in output
