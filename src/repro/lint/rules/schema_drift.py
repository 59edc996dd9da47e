"""RPR005: versioned payload shapes must not drift silently.

Three payload families cross process or machine boundaries and carry an
explicit schema version so old readers can reject shapes they do not know
(ARCHITECTURE.md invariants 7/8/10):

* checkpoints — ``CHECKPOINT_SCHEMA`` in ``instances/serialize.py``,
* service wire frames — ``SERVICE_SCHEMA`` in ``service/wire.py``,
* result rows — ``RESULT_SCHEMA`` in ``api/results.py``.

The version only protects anyone if it actually moves when the shape does.
This rule extracts each payload's field set straight from the AST of its
designated construction sites (dict-literal keys plus ``payload["k"] = ...``
subscript assignments), fingerprints ``(version, sorted fields)`` with
SHA-256 and compares against the checked-in ``fingerprints.json``:

* fields changed, version unchanged → hard failure, and
  ``--update-fingerprints`` *refuses* to paper over it — bump the version;
* fields changed *with* a version bump (or a fresh entry) → failure telling
  you to run ``repro lint --update-fingerprints``, which rewrites the file;
* designated scope or version constant missing → failure (a refactor moved
  the payload out from under the check; update the spec below).

For the service family, ``wire.py`` declares the machine-readable
``FRAME_FIELDS`` (op -> permitted field names).  Beyond fingerprinting that
table, the rule checks every frame-shaped dict literal in ``repro/service/``
(any dict with a constant ``"op"`` key) against it: unknown op, or a field
outside the declared set plus the version key ``"v"``, fails lint.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..framework import FileContext, LintConfig, LintRule, LINT_RULES, Violation

__all__ = ["SchemaDriftRule", "SchemaSpec", "DEFAULT_SCHEMA_SPECS", "FINGERPRINTS_FILENAME"]

FINGERPRINTS_FILENAME = "fingerprints.json"
#: Version of the fingerprints.json container itself.
FINGERPRINTS_SCHEMA = 1


@dataclass(frozen=True)
class SchemaSpec:
    """One versioned payload family.

    ``scopes`` entries are ``(kind, posix_rel_path, dotted_name)`` where
    ``kind`` is ``"func"`` (fields = dict keys + subscript-assign keys inside
    the function/method body) or ``"const"`` (a module-level ``name = {op:
    (fields...)}`` table; fields = ``op`` and ``op.field`` entries).
    """

    name: str
    version_file: str
    version_constant: str
    scopes: Tuple[Tuple[str, str, str], ...]


DEFAULT_SCHEMA_SPECS: Tuple[SchemaSpec, ...] = (
    SchemaSpec(
        name="checkpoint",
        version_file="instances/serialize.py",
        version_constant="CHECKPOINT_SCHEMA",
        scopes=(
            ("func", "instances/serialize.py", "request_to_state"),
            ("func", "engine/streaming.py", "StreamingSession.checkpoint"),
            ("func", "engine/shards.py", "ProcessShardPool.checkpoint"),
            # The algorithm state nested under ``algorithm_state``: every
            # layer's export_state writes its own columns.
            ("func", "engine/backends.py", "WeightBackend.export_state"),
            ("func", "core/fractional.py", "FractionalAdmissionControl.export_state"),
            ("func", "core/randomized.py", "RandomizedAdmissionControl.export_state"),
            ("func", "core/doubling.py", "AlphaSchedule.export_state"),
            ("func", "core/doubling.py", "DoublingFractionalAdmissionControl.export_state"),
            ("func", "core/doubling.py", "DoublingAdmissionControl.export_state"),
        ),
    ),
    SchemaSpec(
        name="service",
        version_file="service/wire.py",
        version_constant="SERVICE_SCHEMA",
        scopes=(("const", "service/wire.py", "FRAME_FIELDS"),),
    ),
    SchemaSpec(
        name="result",
        version_file="api/results.py",
        version_constant="RESULT_SCHEMA",
        scopes=(("func", "api/results.py", "ResultRow.to_dict"),),
    ),
)


def _find_module(files: Sequence[FileContext], rel: str) -> Optional[FileContext]:
    for ctx in files:
        if ctx.posix_path == rel or ctx.posix_path.endswith("/" + rel):
            return ctx
    return None


def _module_int_constant(tree: ast.Module, name: str) -> Optional[int]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == name
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return node.value.value
    return None


def _resolve_function(tree: ast.Module, dotted: str) -> Optional[ast.FunctionDef]:
    parts = dotted.split(".")
    body: Sequence[ast.stmt] = tree.body
    for i, part in enumerate(parts):
        found = None
        for node in body:
            if isinstance(node, ast.ClassDef) and node.name == part and i < len(parts) - 1:
                found = node
                body = node.body
                break
            if isinstance(node, ast.FunctionDef) and node.name == part and i == len(parts) - 1:
                return node
        if found is None and i < len(parts) - 1:
            return None
    return None


def _fields_from_function(func: ast.FunctionDef) -> Set[str]:
    fields: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    fields.add(key.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    fields.add(target.slice.value)
    return fields


def _frame_table(tree: ast.Module, name: str) -> Optional[Dict[str, Tuple[str, ...]]]:
    """Parse a module-level ``name = {"op": ("field", ...), ...}`` table."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            continue
        if not isinstance(node.value, ast.Dict):
            return None
        table: Dict[str, Tuple[str, ...]] = {}
        for key, value in zip(node.value.keys, node.value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            entries: List[str] = []
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        entries.append(elt.value)
            table[key.value] = tuple(entries)
        return table
    return None


def _fields_from_const(tree: ast.Module, name: str) -> Optional[Set[str]]:
    table = _frame_table(tree, name)
    if table is None:
        return None
    fields: Set[str] = set()
    for op, op_fields in table.items():
        fields.add(op)
        for f in op_fields:
            fields.add(f"{op}.{f}")
    return fields


def fingerprint(version: int, fields: Set[str]) -> str:
    payload = json.dumps({"version": version, "fields": sorted(fields)}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@LINT_RULES.register("RPR005")
class SchemaDriftRule(LintRule):
    rule_id = "RPR005"
    summary = "schema payload fields changed without a version bump"
    invariants = (7, 8, 10)

    def check_project(
        self, files: Sequence[FileContext], config: LintConfig
    ) -> Iterator[Violation]:
        specs: Sequence[SchemaSpec] = (
            config.schema_specs if config.schema_specs is not None else DEFAULT_SCHEMA_SPECS
        )
        fp_path = config.fingerprints_path
        if fp_path is None:
            fp_path = config.root / "lint" / FINGERPRINTS_FILENAME

        current: Dict[str, Dict[str, object]] = {}
        any_spec_applies = False
        for spec in specs:
            version_ctx = _find_module(files, spec.version_file)
            if version_ctx is None:
                # The spec's module is not in this lint run (e.g. linting a
                # single file); skip rather than fail on partial runs.
                continue
            any_spec_applies = True
            version = _module_int_constant(version_ctx.tree, spec.version_constant)
            if version is None:
                yield Violation(
                    self.rule_id,
                    version_ctx.rel_path,
                    1,
                    f"schema family {spec.name!r}: version constant "
                    f"{spec.version_constant} not found as a module-level int",
                )
                continue
            fields: Set[str] = set()
            broken = False
            for kind, rel, dotted in spec.scopes:
                scope_ctx = _find_module(files, rel)
                if scope_ctx is None:
                    yield Violation(
                        self.rule_id,
                        version_ctx.rel_path,
                        1,
                        f"schema family {spec.name!r}: payload scope {rel}::{dotted} "
                        f"is not under the lint root; update the schema spec",
                    )
                    broken = True
                    continue
                if kind == "func":
                    func = _resolve_function(scope_ctx.tree, dotted)
                    if func is None:
                        yield Violation(
                            self.rule_id,
                            scope_ctx.rel_path,
                            1,
                            f"schema family {spec.name!r}: function {dotted} not "
                            f"found; the payload moved — update the schema spec",
                        )
                        broken = True
                        continue
                    fields |= _fields_from_function(func)
                else:
                    const_fields = _fields_from_const(scope_ctx.tree, dotted)
                    if const_fields is None:
                        yield Violation(
                            self.rule_id,
                            scope_ctx.rel_path,
                            1,
                            f"schema family {spec.name!r}: table {dotted} not found "
                            f"or not a literal dict of string tuples",
                        )
                        broken = True
                        continue
                    fields |= const_fields
            if broken:
                continue
            current[spec.name] = {
                "version": version,
                "fields": sorted(fields),
                "fingerprint": fingerprint(version, fields),
            }

        if any_spec_applies:
            yield from self._compare(current, fp_path, config.update_fingerprints)
        yield from self._check_frames(files, specs)

    # -- fingerprint comparison -------------------------------------------
    def _compare(
        self, current: Dict[str, Dict[str, object]], fp_path: Path, updating: bool
    ) -> Iterator[Violation]:
        stored: Dict[str, Dict[str, object]] = {}
        if fp_path.exists():
            try:
                doc = json.loads(fp_path.read_text(encoding="utf-8"))
                stored = dict(doc.get("entries", {}))
            except (json.JSONDecodeError, OSError) as exc:
                yield Violation(
                    self.rule_id, str(fp_path), 1, f"unreadable fingerprints file: {exc}"
                )
                return

        updatable = True
        for name, entry in sorted(current.items()):
            old = stored.get(name)
            if old is None:
                if not updating:
                    yield Violation(
                        self.rule_id,
                        str(fp_path),
                        1,
                        f"schema family {name!r} has no checked-in fingerprint; "
                        f"run `repro lint --update-fingerprints` and commit the result",
                    )
                continue
            same_fields = list(old.get("fields", [])) == entry["fields"]
            same_version = old.get("version") == entry["version"]
            if same_fields and same_version:
                continue
            if not same_fields and same_version:
                added = sorted(set(entry["fields"]) - set(old.get("fields", [])))  # type: ignore[arg-type]
                removed = sorted(set(old.get("fields", [])) - set(entry["fields"]))  # type: ignore[arg-type]
                delta = ", ".join(
                    (["+" + f for f in added] + ["-" + f for f in removed]) or ["?"]
                )
                updatable = False
                yield Violation(
                    self.rule_id,
                    str(fp_path),
                    1,
                    f"schema family {name!r}: payload fields changed ({delta}) but "
                    f"version stayed {entry['version']}; bump the schema version "
                    f"constant, then run `repro lint --update-fingerprints`",
                )
            elif not updating:
                yield Violation(
                    self.rule_id,
                    str(fp_path),
                    1,
                    f"schema family {name!r}: fingerprint is stale (version "
                    f"{old.get('version')} -> {entry['version']}); run "
                    f"`repro lint --update-fingerprints` and commit the result",
                )

        if updating:
            if updatable:
                doc = {"schema": FINGERPRINTS_SCHEMA, "entries": current}
                fp_path.parent.mkdir(parents=True, exist_ok=True)
                fp_path.write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
            else:
                yield Violation(
                    self.rule_id,
                    str(fp_path),
                    1,
                    "refusing to update fingerprints while fields changed without "
                    "a version bump; bump the version constant first",
                )

    # -- frame-literal conformance ------------------------------------------
    def _check_frames(
        self, files: Sequence[FileContext], specs: Sequence[SchemaSpec]
    ) -> Iterator[Violation]:
        const_scopes = [
            (rel, dotted)
            for spec in specs
            for kind, rel, dotted in spec.scopes
            if kind == "const"
        ]
        if not const_scopes:
            return
        rel, dotted = const_scopes[0]
        wire_ctx = _find_module(files, rel)
        if wire_ctx is None:
            return
        table = _frame_table(wire_ctx.tree, dotted)
        if table is None:
            return
        service_dir = rel.rsplit("/", 1)[0] + "/" if "/" in rel else ""
        for ctx in files:
            if service_dir and not (
                ctx.posix_path.startswith(service_dir)
                or ("/" + service_dir) in ctx.posix_path
            ):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Dict):
                    continue
                keys: Dict[str, ast.AST] = {}
                ok = True
                for key in node.keys:
                    if key is None:  # {**other} — cannot check statically
                        ok = False
                        break
                    if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                        ok = False
                        break
                    keys[key.value] = key
                if not ok or "op" not in keys:
                    continue
                op_value = node.values[list(keys).index("op")]
                if not (isinstance(op_value, ast.Constant) and isinstance(op_value.value, str)):
                    continue  # dynamic op — covered by runtime validation
                op = op_value.value
                if op not in table:
                    yield self.violation(
                        ctx,
                        node,
                        f"frame literal uses op {op!r} not declared in {dotted}",
                    )
                    continue
                allowed = set(table[op]) | {"op", "v"}
                extra = sorted(set(keys) - allowed)
                if extra:
                    yield self.violation(
                        ctx,
                        node,
                        f"frame literal for op {op!r} carries undeclared fields "
                        f"{extra}; declare them in {dotted} (and bump "
                        f"SERVICE_SCHEMA if the wire shape changed)",
                    )

