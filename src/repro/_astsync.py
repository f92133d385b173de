"""Process-wide lock for ``ast`` <-> object conversions.

CPython 3.11 keeps the recursion-depth counter used by ``ast.parse``
and ``compile(<ast object>, ...)`` in the *shared* per-interpreter ast
module state, not on the C stack (fixed in 3.12). Two threads running
those conversions concurrently clobber each other's counter and one of
them dies with ``SystemError: AST constructor recursion depth
mismatch``. Rank threads hit exactly that: every orchestrated-program
call path touches ``ast.parse``/AST-object ``compile``, and the
thread/process executors run rank bodies concurrently.

Every repro call site that converts between source text and ``ast``
node objects takes :data:`AST_LOCK` around the conversion. The guarded
regions are tiny (parse/compile only, never evaluation), so the lock
costs nothing measurable; it is reentrant so that a guarded region
may call another.
"""

from __future__ import annotations

import threading

__all__ = ["AST_LOCK"]

AST_LOCK = threading.RLock()
