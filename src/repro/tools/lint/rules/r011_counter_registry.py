"""R011 — metric names must be declared in repro/obs/names.py.

A typo'd counter name is a silently empty metric: nothing crashes, the
run report just misses a column.  Every literal name passed to ``inc``
/ ``_inc`` (counter), ``set_gauge`` / ``add_gauge`` (gauge),
``observe`` / ``timed`` (histogram), or ``span`` must match a pattern
declared in :mod:`repro.obs.names`.
Runtime-built names (f-strings, string concatenation) are checked
structurally: the fixed parts must be consistent with some declared
pattern — ``f"{prefix}.stage.{stage}"`` passes because the
``phy.*.stage.<stage>`` patterns exist, ``f"{prefix}.stag.{stage}"``
does not.

Names that are plain variables are not checked (the declaration site
is, when it's a literal).
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Tuple

from repro.obs import names as obs_names
from repro.tools.lint.model import Rule
from repro.tools.lint.rules.base import AstLintRule, dotted_name

#: method-name -> metric kind.  ``_inc`` / ``_set_gauge`` are the
#: service's locked wrappers.
_SINKS = {
    "inc": "counter", "_inc": "counter",
    "observe": "histogram", "timed": "histogram",
    "set_gauge": "gauge", "add_gauge": "gauge", "_set_gauge": "gauge",
    "span": "span",
}


def _name_template(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """``(regex_or_literal, is_template)`` for a metric-name expression.

    Literal strings come back verbatim; f-strings / concatenations come
    back as a regex with ``.+`` holes; anything unresolvable (a plain
    variable) returns None and is skipped.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return node.value, False
        return None
    if isinstance(node, ast.JoinedStr):
        parts = []
        literal = True
        for value in node.values:
            if (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                parts.append((value.value, False))
            elif isinstance(value, ast.FormattedValue):
                parts.append(("", True))
                literal = False
            else:
                return None
        if literal:
            return "".join(text for text, _ in parts), False
        return ("".join(".+" if hole else re.escape(text)
                        for text, hole in parts), True)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _side_regex(node.left)
        right = _side_regex(node.right)
        if left is None or right is None:
            return None
        return left + right, True
    return None


def _side_regex(node: ast.AST) -> Optional[str]:
    """One side of a ``+`` concatenation, as a regex fragment."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return re.escape(node.value)
        return None
    if isinstance(node, (ast.Name, ast.Attribute, ast.Call,
                         ast.Subscript)):
        return ".+"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _side_regex(node.left)
        right = _side_regex(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, ast.JoinedStr):
        result = _name_template(node)
        if result is None:
            return None
        text, is_template = result
        return text if is_template else re.escape(text)
    return None


class CounterRegistryRule(AstLintRule):
    rule = Rule(
        "R011", "counter-registry",
        "metric names must be declared in repro/obs/names.py",
        "Undeclared metric names are typically typos that produce "
        "silently empty counters.  Declare the name (or a pattern) in "
        "the registry so the observability surface stays greppable and "
        "closed.")
    path_only = ("repro/",)

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        method = callee.rpartition(".")[2] if callee else ""
        kind = _SINKS.get(method)
        if kind is not None and node.args:
            resolved = _name_template(node.args[0])
            if resolved is not None:
                self._check_name(node, kind, *resolved)
        self.generic_visit(node)

    def _check_name(self, node: ast.Call, kind: str, text: str,
                    is_template: bool) -> None:
        patterns = obs_names.PATTERNS_BY_KIND[kind]
        if is_template:
            if not obs_names.template_matches(text, patterns):
                self.flag(node,
                          f"runtime-built {kind} name matches no "
                          f"pattern declared in repro/obs/names.py")
        elif not obs_names.literal_matches(text, patterns):
            self.flag(node,
                      f"{kind} name {text!r} is not declared in "
                      f"repro/obs/names.py; declare it (or fix the "
                      f"typo)")
