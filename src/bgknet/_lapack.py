"""The LAPACK routines of the solver, bound once from the library numpy links.

numpy's wheels ship an ILP64 OpenBLAS whose LAPACK symbols read
``scipy_<name>_64_``. Its linalg extension module links that library, so the
dynamic loader finds them through the module's own file: every factorization
then runs on numpy's one BLAS thread pool, and no scipy module is imported. A
numpy built on another LAPACK (MKL, Accelerate, a distribution's OpenBLAS)
exports no such symbols; the module then binds every routine from scipy's
Cython LAPACK table, with 32-bit integers. That choice is made once, when the
module is imported, and no caller sees it.

Each routine has a thin wrapper with LAPACK's own argument list, pointers and
character arguments, ending with ``info``; the wrapper appends the hidden
string lengths of the Fortran calling convention. The checked functions take
arrays, check every argument LAPACK reads or writes through a raw pointer
(a ValueError names it) and raise NumericalError when ``info`` is not zero.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError

# Argument kinds of each routine: c a character, i an integer and a an array,
# each passed by pointer.
_SIGNATURES = {
    "dbdsdc": "cciaaaiaiaaaai",  # uplo compq n d e u ldu vt ldvt q iq work iwork info
    "dgeqrf": "iiaiaaii",        # m n a lda tau work lwork info
    "zgeqrf": "iiaiaaii",
    "dtrcon": "ccciaiaaai",      # norm uplo diag n a lda rcond work iwork info
    "ztrcon": "ccciaiaaai",      # norm uplo diag n a lda rcond work rwork info
    "dtrtrs": "ccciiaiaii",      # uplo trans diag n nrhs a lda b ldb info
    "ztrtrs": "ccciiaiaii",
    "zunmqr": "cciiiaiaaiaii",   # side trans m n k a lda tau c ldc work lwork info
}

# geqrf's blocked code needs n * nb of workspace, nb = 32 on OpenBLAS; unmqr's
# needs n * nb plus the 65 x 64 block reflector. Twice nb leaves room.
_BLOCK = 64


class _Library(NamedTuple):
    """The bound routines and the integer of their interface."""

    source: str                # "numpy" or "scipy"
    integer: type              # the ctypes integer of the interface
    routines: dict             # name -> ctypes function
    hidden_lengths: bool       # whether the string lengths follow the arguments


def _numpy_routine(name: str):
    """Routine ``name`` from numpy's own LAPACK, or None where its build lacks it."""
    try:
        return getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_{name}_64_")
    except (OSError, AttributeError):  # dlsym also searches the module's dependencies
        return None


def _scipy_routine(name: str, prototype):
    """Routine ``name`` from the function-pointer capsule of scipy's Cython LAPACK table."""
    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return prototype(pointer(capsule, capsule_name(capsule)))


def _argtypes(kinds: str, integer: type) -> list:
    pointer = {"c": ctypes.c_char_p, "i": ctypes.POINTER(integer), "a": ctypes.c_void_p}
    return [pointer[kind] for kind in kinds]


def _bind() -> _Library:
    """Every routine from numpy's LAPACK if it has them all, else from scipy's."""
    found = {name: _numpy_routine(name) for name in _SIGNATURES}
    if all(routine is not None for routine in found.values()):
        for name, routine in found.items():
            kinds = _SIGNATURES[name]
            routine.argtypes = (_argtypes(kinds, ctypes.c_int64)
                                + [ctypes.c_size_t] * kinds.count("c"))
            routine.restype = None
        return _Library("numpy", ctypes.c_int64, found, True)
    routines = {name: _scipy_routine(name, ctypes.CFUNCTYPE(None, *_argtypes(kinds, ctypes.c_int)))
                for name, kinds in _SIGNATURES.items()}
    return _Library("scipy", ctypes.c_int, routines, False)


_lib = _bind()


def integer(value: int = 0):
    """A LAPACK integer of the bound interface, to pass by reference."""
    return _lib.integer(value)


def integer_array(size: int) -> np.ndarray:
    """An integer workspace of the bound interface's width."""
    return np.empty(size, np.int64 if _lib.integer is ctypes.c_int64 else np.intc)


def _wrapper(name: str):
    strings = _SIGNATURES[name].count("c")

    def call(*args):
        # the last argument is info; the string lengths go after it
        _lib.routines[name](*args, *((1,) * strings if _lib.hidden_lengths else ()))

    call.__name__ = call.__qualname__ = name
    return call


dbdsdc = _wrapper("dbdsdc")
dgeqrf = _wrapper("dgeqrf")
zgeqrf = _wrapper("zgeqrf")
dtrcon = _wrapper("dtrcon")
ztrcon = _wrapper("ztrcon")
dtrtrs = _wrapper("dtrtrs")
ztrtrs = _wrapper("ztrtrs")
zunmqr = _wrapper("zunmqr")


def _check(name: str, array, finite: bool = False, complex_only: bool = False) -> None:
    """Reject anything but a writeable Fortran-ordered 2-d float64 or complex128
    array, finite if ``finite``."""
    kinds = (np.complex128,) if complex_only else (np.float64, np.complex128)
    if not isinstance(array, np.ndarray) or array.dtype not in kinds or array.ndim != 2:
        raise ValueError(f"{name} must be a 2-d "
                         f"{' or '.join(np.dtype(k).name for k in kinds)} array")
    if not (array.flags.f_contiguous and array.flags.writeable):
        raise ValueError(f"{name} must be Fortran-contiguous and writeable")
    if finite and not np.all(np.isfinite(array)):
        raise ValueError(f"{name} must be finite")


def _order(a: np.ndarray, n: int) -> None:
    """Reject an order n of a's leading triangle outside [1, min(a.shape)]."""
    if not 1 <= n <= min(a.shape):
        raise ValueError(f"n must lie in [1, {min(a.shape)}] for a of shape {a.shape}, got {n}")


def _raise_on(info, routine: str, shape) -> None:
    if info.value != 0:
        raise NumericalError(f"LAPACK {routine} on shape {shape} failed, info = {info.value}")


def _ref(value: int):
    return ctypes.byref(integer(value))


def bdsdc(d: np.ndarray, e: np.ndarray) -> None:
    """Singular values of the lower-bidiagonal B with diagonal ``d`` and
    subdiagonal ``e``, by LAPACK dbdsdc without vectors: dqds (Fernando and
    Parlett), every value to high relative accuracy.

    Works in place: ``d`` comes back holding sigma, descending, and ``e`` is
    overwritten.
    """
    for name, array in (("d", d), ("e", e)):
        if not isinstance(array, np.ndarray) or array.dtype != np.float64 or array.ndim != 1:
            raise ValueError(f"{name} must be a 1-d float64 array")
        if not (array.flags.c_contiguous and array.flags.writeable):
            raise ValueError(f"{name} must be contiguous and writeable")
        if not np.all(np.isfinite(array)):
            raise ValueError(f"{name} must be finite")
    m = d.size
    if m < 1:
        raise ValueError("d must hold at least one entry")
    if e.size != m - 1:
        raise ValueError(f"e must hold len(d) - 1 = {m - 1} entries, got {e.size}")
    work, iwork = np.empty(4 * m), integer_array(8 * m)
    n, info = _ref(m), integer()
    # values only (compq = "N"): u, vt, q and iq are not referenced
    dbdsdc(b"L", b"N", n, d.ctypes.data, e.ctypes.data, None, n, None, n,
           None, None, work.ctypes.data, iwork.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise NumericalError(f"bidiagonal SVD (dbdsdc) of order {m} failed, info = {info.value}")


def geqrf(a: np.ndarray) -> np.ndarray:
    """QR factorization of ``a`` in place (LAPACK geqrf).

    ``a`` comes back holding R on and above its diagonal and the Householder
    vectors of Q below it; returns their scalars tau.
    """
    _check("a", a, finite=True)
    m, n = a.shape
    if min(m, n) < 1:
        raise ValueError(f"a must have at least one row and column, got shape {a.shape}")
    tau = np.empty(min(m, n), a.dtype)
    work = np.empty(_BLOCK * n, a.dtype)
    info = integer()
    routine, name = (zgeqrf, "zgeqrf") if a.dtype == np.complex128 else (dgeqrf, "dgeqrf")
    routine(_ref(m), _ref(n), a.ctypes.data, _ref(m), tau.ctypes.data, work.ctypes.data,
            _ref(work.size), ctypes.byref(info))
    _raise_on(info, name, a.shape)
    return tau


def trcon(a: np.ndarray, n: int) -> float:
    """Reciprocal condition number in the 1-norm of the upper triangle of
    a[:n, :n] (LAPACK trcon); only that triangle is read."""
    _check("a", a)
    _order(a, n)
    rcond, info = ctypes.c_double(0.0), integer()
    if a.dtype == np.complex128:
        name, routine = "ztrcon", ztrcon
        work, extra = np.empty(2 * n, a.dtype), np.empty(n)        # work, rwork
    else:
        name, routine = "dtrcon", dtrcon
        work, extra = np.empty(3 * n), integer_array(n)            # work, iwork
    routine(b"1", b"U", b"N", _ref(n), a.ctypes.data, _ref(a.shape[0]), ctypes.byref(rcond),
            work.ctypes.data, extra.ctypes.data, ctypes.byref(info))
    _raise_on(info, name, a.shape)
    return rcond.value


def trtrs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R x = b in place for the upper triangle R of a[:n, :n], n the row
    count of b (LAPACK trtrs), and return b; only R is read of a."""
    _check("a", a)
    _check("b", b, finite=True)
    if b.dtype != a.dtype:
        raise ValueError(f"b must have a's dtype {a.dtype}, got {b.dtype}")
    n, nrhs = b.shape
    _order(a, n)
    info = integer()
    name, routine = ("ztrtrs", ztrtrs) if a.dtype == np.complex128 else ("dtrtrs", dtrtrs)
    routine(b"U", b"N", b"N", _ref(n), _ref(nrhs), a.ctypes.data, _ref(a.shape[0]),
            b.ctypes.data, _ref(n), ctypes.byref(info))
    _raise_on(info, name, a.shape)
    return b


def unmqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Overwrite ``c`` with Q^H c, Q the product of the Householder reflectors
    geqrf left in ``a`` and ``tau`` (LAPACK zunmqr, complex only), and return c."""
    _check("a", a, complex_only=True)
    _check("c", c, finite=True, complex_only=True)
    if not (isinstance(tau, np.ndarray) and tau.dtype == np.complex128 and tau.ndim == 1
            and tau.flags.c_contiguous and 1 <= tau.size <= min(a.shape)):
        raise ValueError(f"tau must be a contiguous 1-d complex128 array of 1 to "
                         f"{min(a.shape)} entries")
    m, k = a.shape[0], tau.size
    if c.shape[0] != m:
        raise ValueError(f"c must have a's {m} rows, got shape {c.shape}")
    n = c.shape[1]
    work, info = np.empty(_BLOCK * (n + 65), c.dtype), integer()
    zunmqr(b"L", b"C", _ref(m), _ref(n), _ref(k), a.ctypes.data, _ref(m), tau.ctypes.data,
           c.ctypes.data, _ref(m), work.ctypes.data, _ref(work.size), ctypes.byref(info))
    _raise_on(info, "zunmqr", a.shape)
    return c
