"""RPR004: export_state / restore_state must cover every mutable attribute.

Checkpoint fidelity (ARCHITECTURE.md invariant 7) means ``export_state``
captures — and ``restore_state`` reinstates — everything that changes as
requests stream through.  The historical failure mode is adding
``self._new_cache = {}`` to ``__init__`` during a feature PR and forgetting
one (or both) of the state methods; the checkpoint round-trip tests only
catch it if a trial happens to populate the new field before the snapshot.

For every class that defines *both* methods, the rule collects mutable-
looking attributes assigned in ``__init__`` (list/dict/set displays and
comprehensions, calls to the stdlib container constructors, ``array.array``
included, and the NumPy array constructors ``np.empty``/``zeros``/``ones``/
``full``, since a growable column is per-arrival state as much as a list
is) and requires each to appear in both method bodies — as a ``self.<name>`` access or as the
string key ``"<name>"`` / ``"name"``-without-underscore (state dicts key by
the public name).  Construction-time configuration that is deliberately not
part of streamed state goes in a class-level allowlist::

    _LINT_STATE_EXEMPT = frozenset({"_original_capacities"})

A class defining only one of the two methods is itself a finding: a state
protocol with one side missing cannot round-trip.

Known limitation (documented, accepted): the check is per-class — methods
inherited from a base class are not analysed against subclass ``__init__``
attributes.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..framework import FileContext, LintConfig, LintRule, LINT_RULES, Violation

__all__ = ["StateExportDriftRule"]

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list", "dict", "set", "defaultdict", "OrderedDict", "deque",
        "Counter", "bytearray", "array",
    }
)
#: ``np.<name>(...)`` / ``numpy.<name>(...)`` calls that build a fresh array.
_ARRAY_CONSTRUCTORS = frozenset({"empty", "zeros", "ones", "full"})
_NUMPY_NAMES = frozenset({"np", "numpy"})
_EXEMPT_ATTR = "_LINT_STATE_EXEMPT"
_STATE_METHODS = ("export_state", "restore_state")


def _is_mutable_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_NAMES
        ):
            return func.attr in _ARRAY_CONSTRUCTORS
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _self_attr_target(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_mutable_init_attrs(init: ast.FunctionDef) -> List[ast.Attribute]:
    """``self.x = <mutable>`` assignments, in source order, deduplicated."""
    seen: Set[str] = set()
    out: List[ast.Attribute] = []
    for node in ast.walk(init):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not _is_mutable_expr(value):
            continue
        for target in targets:
            attr = _self_attr_target(target)
            if attr is not None and attr not in seen:
                seen.add(attr)
                assert isinstance(target, ast.Attribute)
                out.append(target)
    return out


def _names_mentioned(method: ast.FunctionDef) -> Set[str]:
    """Attribute names a state method touches (self.x or the string "x")."""
    mentioned: Set[str] = set()
    for node in ast.walk(method):
        attr = _self_attr_target(node)
        if attr is not None:
            mentioned.add(attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
            mentioned.add("_" + node.value)
    return mentioned


def _exempt_names(cls: ast.ClassDef) -> Set[str]:
    """String entries of a class-level ``_LINT_STATE_EXEMPT`` assignment."""
    exempt: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            value: Optional[ast.expr] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names, value = [stmt.target.id], stmt.value
        else:
            continue
        if _EXEMPT_ATTR not in names or value is None:
            continue
        container = value
        if isinstance(container, ast.Call) and container.args:
            container = container.args[0]  # frozenset({...})
        if isinstance(container, (ast.Set, ast.List, ast.Tuple)):
            for elt in container.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    exempt.add(elt.value)
    return exempt


@LINT_RULES.register("RPR004")
class StateExportDriftRule(LintRule):
    rule_id = "RPR004"
    summary = "mutable __init__ attribute missing from export_state/restore_state"
    invariants = (7,)

    def check_file(self, ctx: FileContext, config: LintConfig) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name in _STATE_METHODS + ("__init__",)
            }
            has_export = "export_state" in methods
            has_restore = "restore_state" in methods
            if not has_export and not has_restore:
                continue
            if has_export != has_restore:
                present = "export_state" if has_export else "restore_state"
                missing = "restore_state" if has_export else "export_state"
                yield self.violation(
                    ctx,
                    methods[present],
                    f"class {node.name} defines {present} but not {missing}; "
                    f"checkpoint state cannot round-trip with one side missing",
                )
                continue
            init = methods.get("__init__")
            if init is None or not isinstance(init, ast.FunctionDef):
                continue
            exempt = _exempt_names(node)
            export_names = _names_mentioned(methods["export_state"])
            restore_names = _names_mentioned(methods["restore_state"])
            for target in _collect_mutable_init_attrs(init):
                attr = target.attr
                if attr in exempt:
                    continue
                missing_in = [
                    m
                    for m, names in (
                        ("export_state", export_names),
                        ("restore_state", restore_names),
                    )
                    if attr not in names and attr.lstrip("_") not in names
                ]
                if missing_in:
                    yield self.violation(
                        ctx,
                        target,
                        f"mutable attribute self.{attr} (class {node.name}) is "
                        f"not referenced in {' or '.join(missing_in)}; include "
                        f"it in the state payload or add it to "
                        f"{_EXEMPT_ATTR} with a reason",
                    )
