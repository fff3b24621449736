"""Small dense linear-algebra and statistics kernels.

Ensembles are plain float arrays of shape (N, q): one member per row.
Every matrix inverse in the package comes from a Cholesky solve.  Small
m x m inverses may be formed explicitly (Q^-1, and the filter's and
smoother's covariance blocks F_i^-1 and S_i^-1).  The exact block
elimination behind the Kalman filter, the smoother, the exact LM step
and the reference members solves against m x m SPD blocks by ``dpotrs``.
The ensemble analysis kernel solves against its (P H^T)^T.

Every SPD factor and solve goes through :func:`_factor`/:func:`_solve`,
ctypes calls of LAPACK's ``dpotrf``/``dpotrs`` in the OpenBLAS that
numpy's own linalg extension links (:func:`_load_lapack`), so every BLAS
and LAPACK call of a run goes to numpy's one thread pool: a second
OpenBLAS, such as scipy's, brings a second pool, and at 2 threads the
two stall each other.  The routines are looked up
by the names numpy builds export them under (``_LAPACK_SYMBOLS``); a
numpy that exports none of them is refused at import.  On the 1 x 1 and
2 x 2 matrices of the LM passes a call's Python overhead outweighs the
arithmetic, so each call hands LAPACK the data pointers of Fortran-ordered
arrays read by :func:`_address`, and its sizes from a cache.
The full SPD check runs once, at the public boundary: in
:func:`cholesky_spd` and :func:`spd_solve`, and when an
``AssimilationProblem`` is built, which keeps the factors of its
covariances for every algorithm to reuse.  Each kernel call checks only
that its input is finite, which LAPACK does not.  The public helpers
read their arrays through ``streams._reals``, so a boolean or a string
is not a number here either; ``empirical_lp_norm`` reads p by the rule a
study's ``p_order`` is read by (``streams._p_order``), and the number of
members, samples or points each helper needs is read as a count
(``_count``) or, where two are needed, by ``_size``.  :func:`_positive_definite`, a pass/fail
Cholesky on the same kernel, serves the public boundary only: a
``GaussianEstimate`` built by a caller.  The estimates of ``kf_run``
and ``ks_run`` are certified by the Schur factors they came from.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NotSPDError, ValidationError
from .streams import _count, _p_order, _reals, _size

__all__ = [
    "cholesky_spd",
    "spd_solve",
    "sample_mean",
    "sample_covariance",
    "empirical_lp_norm",
    "fit_loglog_slope",
]

_SYMMETRY_RTOL = 1e-12

# A LAPACK routine's name in the numpy builds that bring one, with the
# integer type of its sizes: numpy >= 2 wheels (scipy-openblas64), numpy
# 1.x wheels (openblas64_), 32-bit-integer scipy-openblas builds, and a
# system OpenBLAS, MKL or reference LAPACK.
_LAPACK_SYMBOLS = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("scipy_{}_", ctypes.c_int32),
    ("{}_", ctypes.c_int32),
)
_STRING_LENGTH = ctypes.c_size_t(1)  # the hidden length of the Fortran "L"


def _load_lapack(path: str):
    """``(dpotrf, dpotrs, int type)`` by the first names in ``_LAPACK_SYMBOLS``
    that the library at ``path`` (or one it links) exports; ImportError if none.

    ``argtypes`` stay unset: every call passes ctypes objects of the exact C
    types (one-element arrays for Fortran's integer pointers, ``c_void_p``
    data pointers), which ctypes passes as they are, while ``argtypes``
    conversion costs more than the arithmetic on a 2 x 2 matrix.
    """
    library = ctypes.CDLL(path)
    for pattern, integer in _LAPACK_SYMBOLS:
        names = [pattern.format(routine) for routine in ("dpotrf", "dpotrs")]
        if all(hasattr(library, name) for name in names):
            potrf, potrs = (getattr(library, name) for name in names)
            potrf.restype = potrs.restype = None
            return potrf, potrs, integer
    tried = ", ".join(pattern.format(name) for pattern, _ in _LAPACK_SYMBOLS for name in ("dpotrf", "dpotrs"))
    raise ImportError(f"numpy's LAPACK ({path}) exports none of {tried}: ensvar needs a numpy linked against LAPACK")


_POTRF, _POTRS, _INT = _load_lapack(_umath_linalg.__file__)


@functools.lru_cache(maxsize=64)
def _lapack_int(value: int):
    """A LAPACK size argument: a one-element integer array, which ctypes
    passes by reference.  LAPACK only reads it, so calls share it."""
    return (_INT * 1)(value)


def _frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm, non-finite only when an entry is.

    The unscaled norm overflows for entries above about 1e154; only then
    is it recomputed from ``a`` scaled by its largest entry, so the common
    path makes no extra pass, and numpy need not warn about the overflow.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    if np.isfinite(norm) or not np.isfinite(a).all():
        return norm
    amax = np.abs(a).max()
    return amax * np.linalg.norm(a / amax)


def _as_spd_input(a: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """``a`` as a float array and its Frobenius norm; ValidationError naming
    ``a`` if it is not an array of real numbers, NotSPDError if it is not
    square, has a non-finite entry or is not symmetric."""
    a = np.atleast_2d(_reals(name, a))
    if a.shape[0] != a.shape[1]:
        raise NotSPDError(f"{name} is not square: shape {a.shape}")
    norm = _frobenius_norm(a)
    if not np.isfinite(norm):  # only a non-finite entry makes the norm non-finite
        raise NotSPDError(f"{name} has a non-finite Frobenius norm ({norm})")
    if np.linalg.norm(a - a.T) > _SYMMETRY_RTOL * max(norm, 1.0):
        raise NotSPDError(f"{name} is not symmetric")
    return a, norm


@functools.lru_cache(maxsize=16)
def _lower_triangle(n: int) -> np.ndarray:
    """The n x n mask of the lower triangle, diagonal included (shared: do not write)."""
    return np.tri(n, dtype=bool)


def _address(a: np.ndarray) -> ctypes.c_void_p:
    """The data pointer of the contiguous float array ``a``, for a LAPACK
    argument; the caller keeps ``a`` alive over the call.

    It is read from the array object itself, where numpy keeps it right
    after the object header: ``ndarray.ctypes`` and ``from_buffer`` cost
    more than the arithmetic of a 2 x 2 solve.  The import checks the read.
    """
    return ctypes.c_void_p.from_address(id(a) + object.__basicsize__)


_PROBE = np.zeros(2)
if _address(_PROBE).value != _PROBE.ctypes.data:
    raise ImportError("ensvar cannot read numpy's array data pointers on this interpreter")


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    Its sum of squares is finite unless an entry is not or the sum
    overflows, and only then does the exact test run: on the kernel's
    small inputs ``np.vdot`` costs half of ``np.isfinite(a).all()``, and
    unlike ``np.dot`` or ``@`` it raises no overflow warning.
    """
    v = a.ravel(order="K")
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _factor(a: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of a square float array from its lower triangle
    (symmetry is the caller's), in Fortran order with a zero upper triangle;
    NotSPDError naming ``a`` if not finite or PD."""
    if not _finite(a):
        raise NotSPDError(f"{name} contains non-finite entries")
    n = len(a)
    factor = np.zeros((n, n), order="F")
    # A large mask costs little to build next to its factorization, and much to keep.
    np.copyto(factor, a, where=_lower_triangle(n) if n <= 64 else np.tri(n, dtype=bool))
    if n:
        size, info = _lapack_int(n), (_INT * 1)()
        _POTRF(b"L", size, _address(factor), size, info, _STRING_LENGTH)
        if info[0]:
            raise NotSPDError(f"{name} is not positive definite")
    return factor


def _positive_definite(a: np.ndarray) -> bool:
    """Cholesky pass/fail test of a finite square float array."""
    try:
        _factor(a, "matrix")
    except NotSPDError:
        return False
    return True


def _solve(factor: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Solve (factor @ factor.T) @ x = b for a float array b whose first axis
    matches the square ``factor``; x has b's shape."""
    if not _finite(b):
        raise ValidationError(f"right-hand side of the {name} solve contains non-finite entries")
    # Column-major: the factor as it is if it is, and a copy of b that
    # LAPACK overwrites with x.
    lower = np.asfortranarray(factor, dtype=float)
    n = len(lower)
    if lower.shape != (n, n) or b.shape[:1] != (n,):
        raise ValueError(f"the {name} solve got a factor of shape {lower.shape} and a right-hand side of shape {b.shape}")
    x = np.array(b, dtype=float, order="F")
    if x.size:
        size = _lapack_int(n)
        _POTRS(b"L", size, _lapack_int(x.size // n), _address(lower), size, _address(x), size, (_INT * 1)(), _STRING_LENGTH)
    return x


def cholesky_spd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower-triangular L with a = L @ L.T; raises NotSPDError otherwise."""
    a, _ = _as_spd_input(a, name)
    return _factor(a, name)


def spd_solve(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Solve a @ x = b for SPD a via its Cholesky factorization."""
    a, _ = _as_spd_input(a, name)
    return _solve(_factor(a, name), _reals(f"right-hand side of the {name} solve", b), name)


def sample_mean(members: np.ndarray) -> np.ndarray:
    """Arithmetic mean over ensemble members (rows)."""
    members = np.atleast_2d(_reals("members", members))
    _count("len(members)", members.shape[0])
    return members.mean(axis=0)


def sample_covariance(members: np.ndarray) -> np.ndarray:
    """Sample covariance with the 1/(N-1) normalization; symmetric PSD."""
    members = np.atleast_2d(_reals("members", members))
    n = _size("len(members)", members.shape[0])
    dev = members - members.mean(axis=0)
    cov = dev.T @ dev / (n - 1)
    return 0.5 * (cov + cov.T)


def empirical_lp_norm(samples, p: float) -> float:
    """Empirical L^p norm ((1/R) sum |v_r|^p)^(1/p) over replicate vectors.

    |.| is the Euclidean norm; each element of ``samples`` is one
    replicate (a vector or scalar).
    """
    p = _p_order("p", p)
    norms = np.array([np.linalg.norm(_reals(f"samples[{i}]", v).reshape(-1)) for i, v in enumerate(samples, 1)])
    _count("len(samples)", norms.size)
    with np.errstate(over="ignore"):
        value = float(np.mean(norms**p) ** (1.0 / p))
    if (value == 0.0 or not np.isfinite(value)) and np.isfinite(norms).all() and norms.max() > 0:
        # norms**p under- or overflowed; the largest norm scales it back into range.
        scale = norms.max()
        value = float(scale * np.mean((norms / scale) ** p) ** (1.0 / p))
    return value


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares fit of log(y) against log(x).

    Returns (slope, intercept).  Both inputs must hold the same number of
    points, at least two, and every point must be > 0.
    """
    xs = _reals("xs", xs).reshape(-1)
    ys = _reals("ys", ys).reshape(-1)
    if xs.size != ys.size:
        raise ValidationError(f"xs and ys lengths differ: {xs.size} vs {ys.size}")
    _size("len(xs)", xs.size)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValidationError("slope fit requires strictly positive inputs")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)
