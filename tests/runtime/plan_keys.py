"""The key a plan is stored under, for the tests that pin keys."""

from repro.runtime import compile_cache as cc


def cache_key(sdfg, backend: str = "numpy") -> str:
    """Content hash of an expanded SDFG plus the codegen flags of
    ``backend`` — what ``compile_cache`` keys the SDFG's plan by."""
    return cc.plan_key(cc._content_digest(sdfg)[0], backend)
