"""Python-to-Python preprocessing (Sec. V-B).

"The first step propagates constants forward, performs loop unrolling for
Python-dependent loops, and dead code/branch elimination. This handles
cases such as dictionary accesses in a loop (used, e.g., for variable
number of tracers in FV3)."

The transpiler operates on function ASTs with an environment of known
compile-time constants (model configuration): constant names fold to
literals, ``if`` statements with constant tests keep only the live branch,
``for`` loops over constant iterables whose variable is used in the body
unroll, and subscripts of constant dicts/lists with constant keys fold.
"""

from __future__ import annotations

import ast
import copy
from typing import Any, Dict, Optional, Tuple

from repro._astsync import AST_LOCK

#: Types that may be folded into the AST as literals.
_FOLDABLE = (bool, int, float, str, type(None))


def try_const_eval(node: ast.expr, env: Dict[str, Any]) -> Tuple[bool, Any]:
    """Try to evaluate an expression using only the constant environment."""
    allowed_funcs = ("range", "len", "min", "max", "int", "abs")
    try:
        func_names = {
            id(sub.func)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        }
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if id(sub) in func_names:
                    if sub.id not in allowed_funcs:
                        return False, None
                elif sub.id not in env:
                    return False, None
            elif isinstance(sub, ast.Call):
                if not isinstance(sub.func, ast.Name):
                    return False, None
            elif isinstance(sub, ast.Attribute):
                return False, None  # attributes are resolved by closure, not here
        with AST_LOCK:  # ast-object compile is not thread-safe on 3.11
            code = compile(
                ast.Expression(body=copy.deepcopy(node)), "<pre>", "eval"
            )
        safe = dict(env)
        safe.update({"range": range, "len": len, "min": min, "max": max,
                     "int": int, "abs": abs})
        value = eval(code, {"__builtins__": {}}, safe)  # noqa: S307
        if not isinstance(
            value, (bool, int, float, str, range, list, tuple, dict, type(None))
        ):
            # evaluating to a live object (e.g. an array) is a build-time
            # snapshot, not a constant — refuse to fold it
            return False, None
        return True, value
    except Exception:
        return False, None


def _names_used(nodes) -> set:
    used = set()
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
    return used


class _Folder(ast.NodeTransformer):
    """Fold constant names and constant-container subscripts to literals."""

    def __init__(self, env: Dict[str, Any]):
        self.env = env

    def visit_Name(self, node: ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id in self.env:
            value = self.env[node.id]
            if isinstance(value, _FOLDABLE):
                return ast.copy_location(ast.Constant(value=value), node)
        return node

    def visit_Subscript(self, node: ast.Subscript):
        self.generic_visit(node)
        # d["key"] / xs[2] with a constant container and key
        if isinstance(node.value, ast.Name) and node.value.id in self.env:
            container = self.env[node.value.id]
            ok, key = try_const_eval(node.slice, self.env)
            if ok and isinstance(container, (dict, list, tuple)):
                try:
                    value = container[key]
                except (KeyError, IndexError, TypeError):
                    return node
                if isinstance(value, _FOLDABLE):
                    return ast.copy_location(ast.Constant(value=value), node)
        return node


class _Preprocessor(ast.NodeTransformer):
    def __init__(self, env: Dict[str, Any]):
        self.env = dict(env)
        self.folder = _Folder(self.env)

    # -- statements ---------------------------------------------------------

    def _visit_block(self, stmts):
        out = []
        for stmt in stmts:
            result = self.visit(stmt)
            if result is None:
                continue
            if isinstance(result, list):
                out.extend(result)
            else:
                out.append(result)
        return out or [ast.Pass()]

    def visit_FunctionDef(self, node: ast.FunctionDef):
        node.body = self._visit_block(node.body)
        return node

    def visit_If(self, node: ast.If):
        node.test = self.folder.visit(node.test)
        ok, value = try_const_eval(node.test, self.env)
        if ok:
            branch = node.body if value else node.orelse
            return self._visit_block(branch) if branch else []
        node.body = self._visit_block(node.body)
        node.orelse = self._visit_block(node.orelse) if node.orelse else []
        return node

    def visit_For(self, node: ast.For):
        node.iter = self.folder.visit(node.iter)
        ok, iterable = try_const_eval(node.iter, self.env)
        if not ok or not isinstance(node.target, ast.Name):
            node.body = self._visit_block(node.body)
            return node
        items = list(iterable)
        var = node.target.id
        uses_var = var in _names_used(node.body)
        if not uses_var:
            # leave as a counted loop; the SDFG builder turns it into a
            # loop region (kernels invoked N times under one setting)
            node.body = self._visit_block(node.body)
            return node
        unrolled = []
        for item in items:
            saved = self.env.get(var, _MISSING)
            self.env[var] = item
            self.folder.env = self.env
            for stmt in node.body:
                result = self.visit(copy.deepcopy(stmt))
                if result is None:
                    continue
                unrolled.extend(result if isinstance(result, list) else [result])
            if saved is _MISSING:
                self.env.pop(var, None)
            else:
                self.env[var] = saved
        return unrolled or [ast.Pass()]

    def visit_Assign(self, node: ast.Assign):
        node.value = self.folder.visit(node.value)
        ok, value = try_const_eval(node.value, self.env)
        if ok and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            # track newly defined constants for downstream folding
            self.env[node.targets[0].id] = value
        return node

    def visit_Expr(self, node: ast.Expr):
        node.value = self.folder.visit(node.value)
        return node


class _Missing:
    pass


_MISSING = _Missing()


def preprocess_function(
    func_ast: ast.FunctionDef, constants: Optional[Dict[str, Any]] = None
) -> ast.FunctionDef:
    """Apply constant propagation, unrolling and dead-branch elimination."""
    tree = copy.deepcopy(func_ast)
    result = _Preprocessor(constants or {}).visit(tree)
    ast.fix_missing_locations(result)
    return result
