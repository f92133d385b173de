"""Bit-exactness of every backend against the semantics oracle.

Every stencil in every FV3 stencil module — the stencils the dynamical
core, the paper harnesses and the examples call — runs through each
registered backend on identical random inputs: ``numpy``, the NumPy
emission of its lowered SDFG (what every program runs under the
``numpy`` backend), and ``compiled``. The results must be *exactly*
what the definition interpreter (:mod:`repro.dsl.oracle`) gives — not
allclose. For ``numpy`` the ``out=`` scheduler only materializes
subexpressions whose dtype is provably float64 and only uses ``out=``
where NumPy's ufunc overlap guarantee applies; for ``compiled`` every
lowered scalar operation must replicate the ufunc bit-for-bit (fastmath
off, no FMA contraction, NumPy's NaN/signed-zero min/max/sign
semantics). Any bit difference on any backend is a codegen bug.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro.fv3.stencils as stencils_pkg
from repro.dsl import StencilObject
from repro.dsl.backends import available_backends
from repro.dsl.extents import k_access_bounds
from repro.dsl.oracle import run_oracle


def _discover():
    """All StencilObjects defined across the FV3 stencil modules."""
    found = []
    seen = set()
    for info in pkgutil.iter_modules(stencils_pkg.__path__):
        module = importlib.import_module(f"repro.fv3.stencils.{info.name}")
        for attr, obj in sorted(vars(module).items()):
            if isinstance(obj, StencilObject) and id(obj) not in seen:
                seen.add(id(obj))
                found.append(pytest.param(obj, id=f"{info.name}.{attr}"))
    return found


NI, NJ, NK = 8, 7, 6
#: deeper than two k-blocks of ``CPU_K_BLOCK`` = 12: the compiled loop
#: nests run blocks of 12, 12 and 6 levels, the last one partial
DEEP_NK = 30


def _synthesize(stencil, nk=NK):
    """Minimal valid arrays and scalars for one stencil, from its extents,
    for a domain ``nk`` levels deep."""
    rng = np.random.default_rng(hash(stencil.name) % 2**32)
    defn = stencil.definition
    exts = stencil.extents.field_extents
    pad_i = max([3] + [-e.i_lo for e in exts.values()])
    pad_j = max([3] + [-e.j_lo for e in exts.values()])
    pad_k = 2
    origin = (pad_i, pad_j, pad_k)
    fields = {}
    for p in defn.field_params:
        ext = exts.get(p.name)
        axes = p.field_type.axes
        shape = []
        if "I" in axes:
            shape.append(pad_i + NI + (ext.i_hi if ext else 0) + 1)
        if "J" in axes:
            shape.append(pad_j + NJ + (ext.j_hi if ext else 0) + 1)
        if "K" in axes:
            kb = k_access_bounds(defn, p.name, nk)
            hi = kb[1] if kb else nk
            shape.append(pad_k + max(hi, nk) + 1)
        dtype = np.dtype(p.field_type.dtype)
        if dtype == np.dtype(bool):
            fields[p.name] = rng.random(shape) > 0.5
        else:
            fields[p.name] = (0.5 + rng.random(shape)).astype(dtype)
    scalars = {p.name: 0.5 + rng.random() for p in defn.scalar_params}
    return fields, scalars, origin


def _backends():
    """Every registered backend; ``compiled`` is skipped when no JIT
    engine is usable. ``numpy`` keeps the id ``dataflow``: the NumPy
    emission of the lowered SDFG, which that leg ran before the backend
    did."""
    from repro.runtime import jit

    params = []
    for name in available_backends():
        marks = ()
        if name == "compiled" and not jit.available():
            marks = (pytest.mark.skip(
                reason="compiled backend: no JIT engine (no C "
                "compiler found)"
            ),)
        ident = "dataflow" if name == "numpy" else name
        params.append(pytest.param(name, id=ident, marks=marks))
    return params


def _assert_bit_identical(backend, stencil, nk):
    fields, scalars, origin = _synthesize(stencil, nk)
    domain = (NI, NJ, nk)
    ref = {n: a.copy() for n, a in fields.items()}
    got = {n: a.copy() for n, a in fields.items()}
    run_oracle(stencil, ref, scalars, origin=origin, domain=domain)
    stencil(**got, **scalars, origin=origin, domain=domain, backend=backend)
    for name in fields:
        np.testing.assert_array_equal(
            got[name], ref[name],
            err_msg=f"{stencil.name}: field {name!r} on {backend} at "
            f"NK = {nk} is not what the definition says",
        )


@pytest.mark.parametrize("stencil", _discover())
@pytest.mark.parametrize("backend", _backends())
def test_backend_is_bit_identical(backend, stencil):
    _assert_bit_identical(backend, stencil, NK)


@pytest.mark.parametrize("stencil", _discover())
def test_compiled_is_bit_identical_across_k_blocks(stencil):
    """At ``NK`` = 6 every loop nest is one k-block; here the blocked
    kernels cross two block boundaries and end on a partial block."""
    from repro.runtime import jit

    if jit._find_cc() is None:
        pytest.skip("no C compiler")
    _assert_bit_identical("compiled", stencil, DEEP_NK)


def test_suite_covers_every_stencil_module():
    """Guard: the discovery above must see all FV3 stencil modules."""
    modules = {
        info.name for info in pkgutil.iter_modules(stencils_pkg.__path__)
    }
    covered = {id(param.values[0]) for param in _discover()}
    # every stencil object visible in any module is in the matrix (modules
    # re-export each other's stencils, so compare by object identity)
    missing = []
    for name in sorted(modules):
        module = importlib.import_module(f"repro.fv3.stencils.{name}")
        for attr, obj in vars(module).items():
            if isinstance(obj, StencilObject) and id(obj) not in covered:
                missing.append(f"{name}.{attr}")
    assert not missing, f"stencils missing from the matrix: {missing}"
