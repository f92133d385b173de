"""Closure resolution (Sec. V-B, Fig. 6).

"Methods and functions that depend on external data are transpiled into
free functions ... Resolving closures inlines class structures at
preprocessing time, supporting Python OOP. With closures and constants
resolved, a call-tree analysis detects and consolidates multiple instances
of the same array object (e.g., used in different classes) to avoid data
races."

The ``self.a.b → __g_self_a_b`` rewrite is purely syntactic, so it is done
once per function: :func:`get_function_ast` memoizes the parsed tree and
:func:`closure_template` the rewritten tree together with the
``(name, attribute path)`` list it introduced. Only the *values* are
computed per instance (:func:`resolve_closure`; the SDFG builder reads
them itself so it can record where each one came from). The memoized
trees are shared: callers that mutate must copy
(:func:`~repro.orchestration.preprocessor.preprocess_function` does).
"""

from __future__ import annotations

import ast
import copy
import inspect
import textwrap
import weakref
from typing import Any, Dict, List, Tuple

from repro._astsync import AST_LOCK


class ClosureError(ValueError):
    pass


#: (name, attribute path) pairs: ``__g_self_a_b`` reads ``self.a.b``
AttributePaths = List[Tuple[str, Tuple[str, ...]]]

#: function → parsed tree / (has-instance → rewritten tree, paths, free
#: names). Weak keys: a function defined inside a test or a factory takes
#: its entries with it. Guarded by ``AST_LOCK``.
_PARSED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_REWRITTEN: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _SelfRewriter(ast.NodeTransformer):
    """Rewrite attribute chains rooted at ``self`` into flat names."""

    def __init__(self):
        self.paths: Dict[str, Tuple[str, ...]] = {}

    def visit_Attribute(self, node: ast.Attribute):
        chain = _attribute_chain(node)
        if chain is not None:
            root, path = chain
            if root == "self" and isinstance(node.ctx, ast.Load):
                name = "__g_self_" + "_".join(path)
                self.paths.setdefault(name, tuple(path))
                return ast.copy_location(
                    ast.Name(id=name, ctx=ast.Load()), node
                )
        self.generic_visit(node)
        return node


def _attribute_chain(node: ast.Attribute):
    """Return (root_name, [attr, ...]) for a pure attribute chain."""
    path = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        path.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        return value.id, list(reversed(path))
    return None


def get_function_ast(func) -> ast.FunctionDef:
    """The function's parsed definition (decorators dropped), parsed once
    per function object. The tree is shared — copy before mutating."""
    with AST_LOCK:  # ast<->object conversion is not thread-safe on 3.11
        node = _PARSED.get(func)
        if node is None:
            source = textwrap.dedent(inspect.getsource(func))
            node = ast.parse(source).body[0]
            if not isinstance(node, ast.FunctionDef):
                raise ClosureError("expected a function definition")
            # drop decorators: the free function must not re-orchestrate
            # itself
            node.decorator_list = []
            _PARSED[func] = node
    return node


def closure_template(
    func, has_instance: bool
) -> Tuple[ast.FunctionDef, AttributePaths, Tuple[str, ...]]:
    """The instance-independent half of closure resolution.

    Returns the free-function tree (``self`` parameter removed and
    ``self.a.b`` loads renamed to ``__g_self_a_b`` when the function is
    bound to an instance), the attribute path behind each introduced
    name, and the names the body loads — the ones not bound by the call
    resolve in the function's globals. Method *calls* on ``self`` are left
    untouched: the SDFG builder resolves them (inlining orchestrated
    methods, falling back to callbacks otherwise).
    """
    with AST_LOCK:
        cached = _REWRITTEN.setdefault(func, {}).get(has_instance)
        if cached is not None:
            return cached
        node = get_function_ast(func)
        rewriter = _SelfRewriter()
        if has_instance:
            node = copy.deepcopy(node)
            if node.args.args and node.args.args[0].arg == "self":
                node.args.args = node.args.args[1:]
            # leave `self.method(...)` call targets intact by detaching
            # them while the rewriter runs
            marked = _mark_method_calls(node)
            node = rewriter.visit(node)
            _unmark_method_calls(marked)
            ast.fix_missing_locations(node)
        loaded = tuple(sorted({
            sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }))
        cached = (node, list(rewriter.paths.items()), loaded)
        _REWRITTEN[func][has_instance] = cached
        return cached


def resolve_closure(
    func, instance: Any = None
) -> Tuple[ast.FunctionDef, Dict[str, Any]]:
    """Turn a (bound) method into a free function plus closure bindings.

    Attribute reads of ``self`` become reads of fresh ``__g_*`` names; the
    returned mapping binds each name to the live Python object. The tree
    is the shared one from :func:`closure_template`.
    """
    node, paths, _ = closure_template(func, instance is not None)
    bindings: Dict[str, Any] = {}
    for name, path in paths:
        value = instance
        try:
            for attr in path:
                value = getattr(value, attr)
        except AttributeError as exc:
            raise ClosureError(
                f"cannot resolve self.{'.'.join(path)}: {exc}"
            ) from exc
        bindings[name] = value
    return node, bindings


def _mark_method_calls(node: ast.FunctionDef):
    """Temporarily detach `obj.method(...)` func attributes so the
    rewriter does not flatten the method object itself."""
    marked = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            marked.append((sub, sub.func))
            sub.func = ast.Name(id="__method_call_placeholder__", ctx=ast.Load())
    return marked


def _unmark_method_calls(marked) -> None:
    for call, func in marked:
        call.func = func
