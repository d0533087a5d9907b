"""Dense complex tensors with oriented legs.

A tensor is a dense complex array together with one orientation flag per
leg: ``"d"`` (down, ket index) or ``"u"`` (up, bra index).  Data is stored
row-major with the leftmost leg slowest-varying.  Bending a leg flips its
orientation flag and never touches the data; interpreted as an operator,
bending both legs of a matrix therefore yields its transpose.

Besides complex128 a tensor can be exact: its entries are integers and
it carries ``bound``, an int no smaller than its largest absolute entry.
Exact entries are stored as integer-valued float64 while the bound is at
most ``2^53``, and as an ``object`` array of Python ints otherwise.  A
kernel on exact operands bounds every sum it forms by the number of
terms times the operands' bounds.  When that is at most ``2^53`` and the
operands are float64, every partial sum is an integer that float64
holds exactly in any summation order, so the kernel runs in float64
(BLAS for :func:`contract`).  A bound over ``2^53`` is tested once more
with the operands' true largest entries, from one vectorised scan.
Otherwise the kernel runs on Python ints, which never round, and its
result stays in Python ints.  :meth:`Tensor._exact` and the exact COPY
and epsilon tensors of :mod:`tnq.gates` make exact tensors; the kernels
refuse to mix them with complex ones.  Every array tnq builds passes one
size rule, :func:`_check_size`, before it is allocated, and every array
argument one reader, :func:`_array` (:func:`_matrix` for a matrix): what
NumPy cannot read as numbers, strings too, is a ``ShapeError``, the shape
passes the size rule and has no leg of dimension 0 before any copy, and
complex entries must be finite.  Every tensor argument, and one of
another tnq type, passes one reader, :func:`_tensor`: one of another
type, or a wrong leg count, is a ``ShapeError``.  Kernel results are
wrapped by :meth:`Tensor._trusted` without a copy.  The one pairwise kernel
:func:`contract` (:func:`tensor_product` over no legs) and
:func:`trace_pairs` raise ``NumericalError`` on a complex result with
an inf or NaN entry; :func:`_dot`, the array core of :func:`contract`
with a leading batch axis, and :func:`_reduce`, the one-operand
``np.einsum`` of every trace and hyperindex, whose checked public form
is :func:`trace_pairs`, run network steps unscanned.

All operations are pure functions; tensors are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParseError, ShapeError, SizeCapError

DOWN = "d"
UP = "u"

#: Hard cap on entries per tensor (keeps counting workloads honest).
SIZE_CAP = 2**26

#: Most legs NumPy gives one array: 64 in NumPy 2, 32 in NumPy 1.
_MAX_LEGS = 64 if int(np.__version__.split(".")[0]) >= 2 else 32

#: Relative threshold below which singular values count as zero.
ZERO_THRESHOLD = 1e-12

#: Default absolute comparison tolerance on unit-scale data.
DEFAULT_TOL = 1e-10

#: Largest bound on an exact tensor's entries, and on every partial sum
#: of a kernel, for which float64 storage and arithmetic are exact.
_FLOAT_EXACT = 2**53
_FLOAT64 = np.dtype(np.float64)
_INT = frozenset({int})


def _flip(orient):
    return UP if orient == DOWN else DOWN


class Tensor:
    """Immutable dense tensor (complex128 or exact integer) with per-leg
    orientation."""

    __slots__ = ("data", "orients", "bound")

    def __init__(self, data, orients):
        # always a private copy: the caller's array stays writeable
        arr = _array(data, "tensor", copy=True)
        self._set(arr, _orients(orients, arr.ndim), None)

    def _set(self, arr, orients, bound):
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "orients", orients)
        object.__setattr__(self, "bound", bound)

    @classmethod
    def _trusted(cls, arr, orients, bound=None):
        """Wrap a kernel result as is: no conversion, copy or scan.

        ``arr`` must be an ndarray (0-d for a scalar) with no axis of
        length 0, and ``orients`` a tuple matching its axes.  A complex
        tensor has a complex128 ``arr`` and ``bound`` None.  An exact one
        has integer entries of absolute value at most the int ``bound``:
        float64 entries with ``bound <= 2^53``, or Python ints.
        """
        t = object.__new__(cls)
        t._set(arr, orients, bound)
        return t

    @classmethod
    def _exact(cls, data, orients):
        """Exact integer tensor from integer-valued input.

        Validated like the public constructor, but the entries must be
        integers (bool, NumPy integer or Python int).  Its bound is the
        largest absolute entry, which picks the storage.
        """
        arr = _array(data, "exact tensor", dtype=None)
        orients = _orients(orients, arr.ndim)
        if arr.dtype.kind not in "biuO":
            raise ShapeError(f"exact tensor entries must be integers, "
                             f"not {arr.dtype}")
        if arr.dtype == object:
            flat = arr.reshape(-1).tolist()
            if not all(isinstance(x, numbers.Integral) for x in flat):
                raise ShapeError("exact tensor entries must be integers")
            arr = np.array([int(x) for x in flat],
                           dtype=object).reshape(arr.shape)
        # max and -min: abs of the most negative int64 would wrap
        bound = max(int(arr.max()), -int(arr.min()))
        arr = (arr.astype(np.float64) if bound <= _FLOAT_EXACT
               else _as_ints(arr))
        return cls._trusted(arr, orients, bound)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def dims(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim

    @property
    def exact(self):
        """Whether the entries are exact integers rather than complex128."""
        return self.bound is not None

    def __repr__(self):
        legs = ",".join(f"{d}{o}" for d, o in zip(self.dims, self.orients))
        return f"Tensor[{legs}]"

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.orients == other.orients
            and self.dims == other.dims
            and self.exact == other.exact
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        # hash an exact tensor's ints, which both storages share (an
        # object array's bytes are pointers); adding +0 turns a complex
        # -0.0, equal to 0.0, into the same bytes
        entries = (tuple(map(int, self.data.flat)) if self.exact
                   else (self.data + 0j).tobytes())
        return hash((self.orients, self.dims, entries))


def _array(x, what, matrix=False, copy=False, dtype=np.complex128):
    """``x`` as a finite ``dtype`` array: the one reader of array
    arguments.  Strings, and what NumPy cannot read as numbers, are a
    ``ShapeError``, and before any copy the shape passes
    :func:`_check_size` and has no leg of dimension 0 (and two legs for a
    ``matrix``).  With ``copy`` the result is a private C-order copy;
    else it keeps the layout of ``x``, and may share its memory.  With
    ``dtype`` None it is NumPy's reading, unconverted and unscanned."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError, OverflowError):
        raise ShapeError(f"{what} is not a numeric array") from None
    if arr.dtype.kind in "US":
        raise ShapeError(f"{what} is not a numeric array")
    if matrix and arr.ndim != 2:
        raise ShapeError(f"{what} must be a matrix, not {arr.ndim}-D")
    _check_size(what, arr.shape)
    if 0 in arr.shape:
        raise ShapeError(f"{what} has a leg of dimension 0: {arr.shape}")
    if dtype is None:
        return arr
    try:
        arr = arr.astype(dtype, order="C" if copy else "K", copy=copy)
    except (TypeError, ValueError, OverflowError):
        raise ShapeError(f"{what} is not a numeric array") from None
    if not np.isfinite(arr).all():
        raise ShapeError(f"{what} entries must be finite")
    return arr


def _orients(orients, order):
    """Orientations as a tuple of ``order`` flags, or ``ShapeError``."""
    try:
        orients = tuple(orients)
    except TypeError:
        raise ShapeError("orientations must be a sequence") from None
    if len(orients) != order:
        raise ShapeError(f"{order} array axes but {len(orients)} orientations")
    for o in orients:
        if not (isinstance(o, str) and o in (UP, DOWN)):
            raise ShapeError(f"invalid orientation {o!r}")
    return orients


def _tensor(t, what, order=None, cls=Tensor):
    """``t`` if a ``cls`` (of ``order`` legs), else ``ShapeError``."""
    if not isinstance(t, cls):
        raise ShapeError(f"{what} must be a {cls.__name__}")
    if order is not None and t.order != order:
        raise ShapeError(f"{what} has {t.order} legs, not {order}")
    return t


def _check_size(what, dims, repeat=1):
    """The one size rule: ``SizeCapError`` unless an array of shape
    ``tuple(dims) * repeat`` has at most ``_MAX_LEGS`` legs (NumPy's
    limit) and ``SIZE_CAP`` entries.  ``repeat`` names n legs without
    building them; ``.shape`` is None for a repeat past the limit."""
    legs = len(dims) * repeat
    # past the leg limit no power of a huge repeat is taken
    if legs <= _MAX_LEGS and math.prod(dims) ** repeat <= SIZE_CAP:
        return
    # 20 digits or more as a power of ten: no huge int is built or printed
    digits = repeat * math.log10(math.prod(dims))
    entries = (math.prod(dims) ** repeat if digits < 19
               else f"about 10^{digits:.0f}")
    raise SizeCapError(
        f"{what} with {legs} legs and {entries} entries exceeds cap: at "
        f"most {_MAX_LEGS} legs and {SIZE_CAP} entries",
        shape=tuple(dims) * repeat if repeat <= _MAX_LEGS else None)


def _finite(x, what):
    """Computed value ``x``, or ``NumericalError`` if an entry is inf or
    NaN: finite inputs overflowed on the way."""
    if not np.isfinite(x).all():
        raise NumericalError(f"{what} overflowed to inf or NaN")
    return x


def _as_ints(arr):
    """Integer-valued array as an ``object`` array of Python ints."""
    if arr.dtype == np.float64:
        arr = arr.astype(np.int64)
    return arr.astype(object, copy=False)


def _one_kind(bounds):
    if len({b is None for b in bounds}) > 1:
        raise ShapeError("cannot combine an exact integer tensor with a "
                         "complex one")


def _operands(pairs, terms):
    """Data of a kernel's one or two ``(data, bound)`` operands, of one
    kind, in one storage, and the result's bound: None if complex.

    A kernel result entry is a sum of ``terms`` products of one entry of
    each operand, so its bound is ``terms`` times the operand bounds.
    The kernel runs in float64 when every operand is float64 and that
    bound is at most ``2^53``, tested once more with the operands' true
    largest entries if needed; in Python ints otherwise.
    """
    data = [d for d, _ in pairs]
    if pairs[0][1] is None:
        return data, None
    bound = terms * math.prod([b for _, b in pairs])
    floats = all(d.dtype == np.float64 for d in data)
    if floats and bound > _FLOAT_EXACT:
        bound = terms * math.prod([int(np.abs(d).max()) for d in data])
    if floats and bound <= _FLOAT_EXACT:
        return data, bound
    return [_as_ints(d) for d in data], bound


def state(amplitudes, dims=None):
    """All-ket tensor from an amplitude array (reshaped to ``dims`` if given)."""
    arr = _array(amplitudes, "state", copy=True)
    if dims is not None:
        (dims,) = _ints((dims,), "dimensions", 1)
        if arr.size != math.prod(dims):
            raise ShapeError(f"{arr.size} entries do not fill dimensions "
                             f"{list(dims)}")
        _check_size("state", dims)
        arr = arr.reshape(dims)
    return Tensor._trusted(arr, (DOWN,) * arr.ndim)


def effect(amplitudes, dims=None):
    """All-bra tensor (dual vector)."""
    return bend_all(state(amplitudes, dims))


def operator(matrix):
    """Two-leg tensor from a matrix: leg 0 down (ket/row), leg 1 up (bra/col)."""
    return Tensor._trusted(_array(matrix, "operator", matrix=True, copy=True),
                           (DOWN, UP))


def scalar(value):
    return Tensor(value, ())


def gate(matrix, out_dims, in_dims):
    """Multi-wire gate: matrix reshaped to out_dims + in_dims legs,
    outputs down followed by inputs up."""
    out_dims, in_dims = _ints((out_dims, in_dims), "dimensions", 1)
    t = state(matrix, out_dims + in_dims)
    return Tensor._trusted(t.data, (DOWN,) * len(out_dims)
                           + (UP,) * len(in_dims))


def as_matrix(t, n_row_legs=None):
    """Flatten the first ``n_row_legs`` legs to rows and the rest to columns.

    Defaults to half the legs for even order and the operator reading
    (down legs as rows) is up to the caller; this is a pure reshape.
    """
    t = _tensor(t, "tensor")
    if n_row_legs is None:
        if t.order % 2 != 0:
            raise ShapeError("cannot infer row/column split for odd order")
        n_row_legs = t.order // 2
    n_row_legs = _int(n_row_legs, "row leg counts", 0, t.order)
    return t.data.reshape(math.prod(t.dims[:n_row_legs]), -1)


def _matrix(x, what, shape=None):
    """Matrix argument ``x`` read by :func:`_array`; a :class:`Tensor` is
    read whole, its legs split in half as by :func:`as_matrix`.  ``shape``
    is an exact ``(rows, cols)`` pair or ``"square"``."""
    if isinstance(x, Tensor):
        x = as_matrix(x)
    m = _array(x, what, matrix=True)
    rows, cols = m.shape
    if shape == "square" and rows != cols:
        raise ShapeError(f"{what} must be square, not {rows}x{cols}")
    if shape not in (None, "square") and m.shape != tuple(shape):
        raise ShapeError(f"{what} must be {shape[0]}x{shape[1]}, "
                         f"not {rows}x{cols}")
    return m


def _ints(rows, what, low=-math.inf, high=math.inf):
    """``rows`` (an iterable of sequences) as a tuple of tuples of ints,
    each in ``[low, high]``: the one reader of integer arguments.  A row
    that is not iterable, a value that ``int`` would change (0.7, "1",
    NaN, None) or one out of range is a ``ShapeError``; integral floats,
    NumPy ints and bools are read as ints."""
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:
        raise ShapeError(f"{what} must be sequences of integers") from None
    # most reads are of one row: no copy
    flat = rows[0] if len(rows) == 1 else [*itertools.chain(*rows)]
    if not set(map(type, flat)) <= _INT:  # plain ints, as parsers pass
        try:
            ints = tuple(tuple(map(int, r)) for r in rows)
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != rows:
            raise ShapeError(f"{what} must be integers")
        return _ints(ints, what, low, high)
    if flat and not low <= min(flat) <= max(flat) <= high:
        bad = min(flat) if min(flat) < low else max(flat)
        raise ShapeError(f"{what} out of range: {bad} is not in "
                         f"[{low}, {high}]")
    return rows


def _int(value, what, low=-math.inf, high=math.inf):
    """``value`` as an int in ``[low, high]``, read by :func:`_ints`."""
    ((value,),) = _ints(((value,),), what, low, high)
    return value


def _legs(legs, order):
    """``legs`` as a tuple of distinct legs of an ``order``-leg tensor,
    read by :func:`_ints` in one call."""
    (legs,) = _ints((legs,), "legs", 0, order - 1)
    if len(set(legs)) != len(legs):
        raise ShapeError(f"duplicate leg index in {list(legs)}")
    return legs


def contract(a, legs_a, b, legs_b):
    """Sum over paired legs of ``a`` and ``b``.

    Result legs are a's uncontracted legs (in order) followed by b's.
    Paired legs must have equal dimension and opposite orientation.
    """
    dims_a, dims_b = _tensor(a, "tensor a").dims, _tensor(b, "tensor b").dims
    legs_a, legs_b = _legs(legs_a, len(dims_a)), _legs(legs_b, len(dims_b))
    if len(legs_a) != len(legs_b):
        raise ShapeError("index lists must have equal length")
    shared = 1
    for la, lb in zip(legs_a, legs_b):
        if dims_a[la] != dims_b[lb]:
            raise ShapeError(
                f"dimension mismatch: leg {la} (dim {dims_a[la]}) vs "
                f"leg {lb} (dim {dims_b[lb]})"
            )
        if a.orients[la] == b.orients[lb]:
            raise ShapeError(
                f"cannot contract two {a.orients[la]!r}-oriented legs"
            )
        shared *= dims_a[la]
    rest_a = [i for i in range(len(dims_a)) if i not in legs_a]
    rest_b = [i for i in range(len(dims_b)) if i not in legs_b]
    shape = [dims_a[i] for i in rest_a] + [dims_b[i] for i in rest_b]
    _check_size("contraction result", shape)
    rows, cols = math.prod(shape[:len(rest_a)]), math.prod(shape[len(rest_a):])
    _one_kind((a.bound, b.bound))
    data, bound = _dot((a.data, a.bound), [*rest_a, *legs_a],
                       (b.data, b.bound), [*legs_b, *rest_b], rows, shared,
                       cols, shape)
    if bound is None:
        _finite(data, "contraction")
    orients = [a.orients[i] for i in rest_a] + [b.orients[i] for i in rest_b]
    return Tensor._trusted(data, tuple(orients), bound)


def _dot(x, perm_x, y, perm_y, rows, shared, cols, shape, batch=1):
    """:func:`contract` on checked legs of ``(data, bound)`` operands of
    one kind: ``x`` by ``perm_x`` as (batch, rows, shared) times ``y``
    by ``perm_y`` as (batch, shared, cols), one matrix product per batch
    index, reshaped to ``shape``, and its bound.  The batch adds no
    terms to a sum, so the bound is that of one product."""
    (dx, bx), (dy, by) = x, y
    # most exact steps: float64 operands whose bounds prove the sums exact
    if not (bx is not None and dx.dtype is dy.dtype is _FLOAT64
            and (bound := shared * bx * by) <= _FLOAT_EXACT):
        (dx, dy), bound = _operands((x, y), shared)
    if batch == 1:
        data = np.dot(dx.transpose(perm_x).reshape(rows, shared),
                      dy.transpose(perm_y).reshape(shared, cols))
    else:
        data = np.matmul(dx.transpose(perm_x).reshape(batch, rows, shared),
                         dy.transpose(perm_y).reshape(batch, shared, cols))
    return data.reshape(shape), bound


def _reduce(x, sub, out):
    """``np.einsum(data, sub, out)`` on one ``(data, bound)`` operand, for
    labels of any hashable kind and number, and its bound: the axes of
    one label become one, their diagonal, and a label missing from
    ``out`` is summed."""
    data, bound = x
    dims, strides = {}, {}
    for k, d, step in zip(sub, data.shape, data.strides):
        dims[k], strides[k] = d, strides.get(k, 0) + step
    keys = list(dims)
    view = np.lib.stride_tricks.as_strided(
        data, [dims[k] for k in keys], [strides[k] for k in keys],
        writeable=False)
    summed = tuple([i for i, k in enumerate(keys) if k not in out])
    (view,), bound = _operands(((view, bound),),
                               math.prod([view.shape[i] for i in summed]))
    kept = [k for k in keys if k in out]
    data = np.asarray(view.sum(summed), dtype=view.dtype)
    return data.transpose([kept.index(k) for k in out]), bound


def tensor_product(a, b):
    """Kronecker-structured juxtaposition: legs of ``a`` then legs of ``b``
    (the :func:`contract` over no legs, with its cap and kind rules)."""
    return contract(a, (), b, ())


def trace_pairs(t, pairs):
    """Sum over each (leg, leg) pair's shared index (graphical loop
    closing): the checked form of :func:`_reduce`, in which the two legs
    of a pair share a key."""
    pairs = _ints(pairs, "legs")
    if any(len(pair) != 2 for pair in pairs):
        raise ShapeError("a trace pair must name two legs")
    used = _legs([k for p in pairs for k in p], _tensor(t, "tensor").order)
    sub = list(range(t.order))
    for i, j in pairs:
        if t.dims[i] != t.dims[j]:
            raise ShapeError("trace pair dimensions differ")
        if t.orients[i] == t.orients[j]:
            raise ShapeError("trace pair must have opposite orientations")
        sub[j] = i
    kept = [k for k in sub if k not in used]
    data, bound = _reduce((t.data, t.bound), sub, kept)
    if bound is None:
        _finite(data, "contraction")
    return Tensor._trusted(data, tuple(t.orients[k] for k in kept), bound)


def permute_legs(t, perm):
    """Reorder legs; ``perm[k]`` is the source leg placed at position ``k``."""
    perm = _legs(perm, _tensor(t, "tensor").order)
    if len(perm) != t.order:
        raise ShapeError("not a permutation of leg indices")
    return Tensor._trusted(np.transpose(t.data, perm),
                           tuple(t.orients[p] for p in perm), t.bound)


def bend_leg(t, leg):
    """Flip one leg's orientation (cup/cap duality); data is untouched."""
    leg = _int(leg, "legs", 0, _tensor(t, "tensor").order - 1)
    orients = list(t.orients)
    orients[leg] = _flip(orients[leg])
    return Tensor._trusted(t.data, tuple(orients), t.bound)


def bend_all(t):
    return Tensor._trusted(_tensor(t, "tensor").data,
                           tuple(_flip(o) for o in t.orients), t.bound)


def conj(t):
    """Entrywise complex conjugate (orientations unchanged)."""
    # asarray: np.conj of a 0-d array is a NumPy scalar
    return Tensor._trusted(np.asarray(np.conj(_tensor(t, "tensor").data)),
                           t.orients, t.bound)


def dagger(t):
    """Adjoint: conjugate and flip every leg."""
    return conj(bend_all(t))


def _vec(m):
    """Column-stacking vectorization of a matrix array."""
    return np.asarray(m, dtype=np.complex128).T.reshape(-1)


def _unvec(v, d_out, d_in):
    """Inverse of :func:`_vec` for a ``d_out x d_in`` matrix array."""
    return np.asarray(v, dtype=np.complex128).reshape(d_in, d_out).T


def vectorize(a, convention="col"):
    """Stack an operator's columns (col) or rows (row) into a ket.

    With ``A`` holding entries ``A[i, j]`` (row i = ket leg, col j = bra
    leg) the col-vec places ``A[i, j]`` at composite ket index ``(j, i)``
    and the row-vec at ``(i, j)``, so that ``|A>>_c = (I (x) A)|Phi+>``
    and ``|A>>_r = (A (x) I)|Phi+>`` with the unnormalized Bell pair.
    """
    a = _tensor(a, "vectorized operator", 2)
    if a.orients[0] == a.orients[1]:
        raise ShapeError("expected an operator (one down leg, one up leg)")
    m = a.data if a.orients[0] == DOWN else a.data.T
    if convention == "col":
        vec = _vec(m)
    elif convention == "row":
        vec = m.reshape(-1)
    else:
        raise ShapeError(f"unknown vectorization convention {convention!r}")
    return Tensor(vec, [DOWN])


def unvectorize(v, d_out, d_in, convention="col"):
    """Inverse of :func:`vectorize` for a ``d_out x d_in`` operator."""
    ((d_out, d_in),) = _ints(((d_out, d_in),), "dimensions", 1)
    if _tensor(v, "vector", 1).data.size != d_out * d_in:
        raise ShapeError("vector length does not factor as d_out*d_in")
    if convention == "col":
        m = _unvec(v.data, d_out, d_in)
    elif convention == "row":
        m = v.data.reshape(d_out, d_in)
    else:
        raise ShapeError(f"unknown vectorization convention {convention!r}")
    return operator(m)


#: Axis permutation of each reshuffle convention on the factor axes
#: ``(m, mu, n, nu)`` of ``M[(m,mu),(n,nu)]``; each is its own inverse.
_RESHUFFLES = {"col": (3, 1, 2, 0), "row": (0, 2, 1, 3)}


def _reshuffle(m, dx, dy, convention="col"):
    """:func:`reshuffle` on a matrix array; each convention is its own
    inverse as an index map, so the shape of ``m`` picks the direction."""
    perm = _RESHUFFLES.get(convention)
    if perm is None:
        raise ShapeError(f"unknown reshuffle convention {convention!r}")
    joint = (dx, dy, dx, dy)
    shuffled = tuple(joint[p] for p in perm)
    for src, dst in ((joint, shuffled), (shuffled, joint)):
        if m.shape == (src[0] * src[1], src[2] * src[3]):
            out = m.reshape(src).transpose(perm)
            return out.reshape(dst[0] * dst[1], dst[2] * dst[3])
    raise ShapeError(f"cannot reshuffle a {m.shape[0]}x{m.shape[1]} matrix "
                     f"with factors {dx} and {dy}")


def reshuffle(m, dx, dy, convention="col"):
    """Reshuffle a bipartite operator on a ``dx*dy``-dimensional space.

    Col-reshuffling maps entries ``M[(m,mu),(n,nu)] -> S[(nu,mu),(n,m)]``,
    a ``(dx*dy)^2`` matrix to a ``dy^2 x dx^2`` one; row-reshuffling maps
    them to ``R[(m,n),(mu,nu)]``, a ``dx^2 x dy^2`` matrix.  Either map
    also takes its output shape back, so applied twice it is the
    identity.
    """
    m = _tensor(m, "reshuffled matrix", 2)
    return Tensor(_reshuffle(m.data, dx, dy, convention), m.orients)


def _unravel_order(dims, inverse=False):
    """Index array ``p`` with ``v[p]`` the unravelled vector of ``v``.

    ``v`` is indexed ``(x_1..x_n, y_1..y_n)`` with ``dims[k] = (dx_k,
    dy_k)``, as a column-vec index of an operator on ``n`` subsystems;
    ``v[p]`` is indexed ``(x_1, y_1, ..., x_n, y_n)``.  With ``inverse``
    the index array maps back.
    """
    n = len(dims)
    sizes = [dx for dx, _ in dims] + [dy for _, dy in dims]
    # an axis of dimension 1 moves no entry: dropped, so any number fit
    axes = [a for a in range(2 * n) if sizes[a] > 1]
    _check_size("unravelled index", [sizes[a] for a in axes])
    pairs = [a for k in range(n) for a in (k, n + k) if sizes[a] > 1]
    p = np.arange(math.prod(sizes)).reshape([sizes[a] for a in axes])
    p = p.transpose([axes.index(a) for a in pairs]).reshape(-1)
    return np.argsort(p) if inverse else p


def _linalg(fn, *args, **kwargs):
    """``np.linalg`` routine ``fn`` on the arguments; ``NumericalError`` if
    it does not converge or a result has an inf or NaN entry."""
    try:
        out = fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{fn.__name__} failed: {exc}") from exc
    for arr in out if isinstance(out, tuple) else (out,):
        _finite(arr, fn.__name__)
    return out


@dataclass(frozen=True)
class SvdResult:
    """Factorization ``M = U diag(sigma) Vh`` with descending sigma."""

    u: Tensor
    sigma: np.ndarray
    v_dagger: Tensor
    rank: int


def svd(m):
    """Singular value decomposition of a two-leg tensor.

    ``u`` keeps m's first leg and gains an up bond leg; ``v_dagger`` has
    a down bond leg and m's second leg.  ``rank`` counts singular values
    above ``ZERO_THRESHOLD * sigma_max``.
    """
    m = _tensor(m, "svd matrix", 2)
    # exact input is read as complex; _linalg has scanned the factors
    u, s, vh = _linalg(np.linalg.svd, m.data.astype(complex, copy=False),
                       full_matrices=False)
    return SvdResult(
        u=Tensor._trusted(u, (m.orients[0], UP)),
        sigma=s,
        v_dagger=Tensor._trusted(vh, (DOWN, m.orients[1])),
        rank=_rank(s),
    )


def _rank(sigma):
    """Number of descending singular values above ``ZERO_THRESHOLD * max``."""
    smax = sigma[0]
    return int(np.sum(sigma > ZERO_THRESHOLD * smax)) if smax > 0 else 0


def equal_up_to_scalar(a, b, tol=DEFAULT_TOL):
    """Return ``lam`` with ``a = lam * b`` within ``tol``, else ``None``."""
    a, b = _tensor(a, "tensor a"), _tensor(b, "tensor b")
    if a.dims != b.dims or a.orients != b.orients:
        raise ShapeError("shape mismatch in equal_up_to_scalar")
    bmax = np.abs(b.data).max()
    amax = np.abs(a.data).max()
    if bmax <= tol:
        return 1.0 + 0.0j if amax <= tol else None
    idx = np.unravel_index(np.argmax(np.abs(b.data)), b.data.shape)
    lam = complex(a.data[idx] / b.data[idx])
    if lam == 0:
        return None
    if np.abs(a.data - lam * b.data).max() <= tol * max(1.0, abs(lam) * bmax):
        return lam
    return None


def allclose(a, b, tol=DEFAULT_TOL):
    """Entrywise comparison at absolute tolerance (shapes must match)."""
    a, b = _tensor(a, "tensor a"), _tensor(b, "tensor b")
    if a.dims != b.dims or a.orients != b.orients:
        return False
    return bool(np.abs(a.data - b.data).max() <= tol)


def count_rearrangements(n, m):
    """Number of wire-bend/exchange reshapes of an (n, m)-valence tensor."""
    ((n, m),) = _ints(((n, m),), "valences", 0)
    # 20! fits in an int64, 21! does not
    return math.factorial(_int(n + m, "valence sums", 0, 19) + 1)


# ---------------------------------------------------------------------------
# TNTX v1 textual format, and the token reader and complex-block codec
# shared with the CHX channel format


def _block_text(data):
    """One line holding ``repr`` of each entry's real and imaginary part."""
    flat = np.ascontiguousarray(data, dtype=np.complex128).reshape(-1)
    return " ".join(map(repr, map(float, flat.view(np.float64))))


def write_tntx(t):
    """Serialize a tensor to the TNTX v1 text format; its legs, like every
    tensor's, have dimension at least 1, so :func:`read_tntx` reads it
    back."""
    t = _tensor(t, "tensor")
    lines = ["tntx 1", f"legs {t.order}"]
    lines.append(" ".join(str(d) for d in t.dims))
    lines.append(" ".join(t.orients))
    lines.append(_block_text(t.data))
    return "\n".join(lines) + "\n"


#: A ``#`` comment runs to the next line boundary that ``str.splitlines``
#: recognises; every such boundary is also whitespace to ``str.split``.
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")

#: One whitespace character: ``\s`` matches exactly what str.isspace does.
_SPACE = re.compile(r"\s")

#: Characters of text split into tokens at a time (about; see _chunks).
_CHUNK = 2**18

#: Tokens cast to float64 at a time by _read_block.
_PIECE = 2**14


def _chunks(text):
    """``text`` in consecutive slices of about ``_CHUNK`` characters that
    split no token and no ``#`` comment."""
    start = 0
    while start < len(text):
        # end before whitespace, so no token straddles two chunks
        space = _SPACE.search(text, start + _CHUNK)
        end = space.start() if space else len(text)
        # so that each comment lies in one chunk, a chunk holding a '#'
        # ends at the line boundary after its last '#'
        hash_at = text.rfind("#", start, end)
        if hash_at >= 0:
            end = _COMMENT.match(text, hash_at).end()
        yield text[start:end]
        start = end


def _tokens(text):
    """Whitespace-separated tokens of ``text`` with comments removed,
    split lazily a chunk at a time; no Python frame runs per token."""
    return itertools.chain.from_iterable(
        _COMMENT.sub("", chunk).split() for chunk in _chunks(text))


def _need(toks, what):
    try:
        return next(toks)
    except StopIteration:
        raise ParseError(f"unexpected end of input, wanted {what}",
                         code="bad-header") from None


def _need_int(toks, what, low, code="bad-token"):
    """Next token as an integer of at least ``low``."""
    tok = _need(toks, what)
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"{what} is not an integer", code=code) from None
    if value < low:
        raise ParseError(f"{what} must be >= {low}", code=code)
    return value


def _read_block(toks, shape):
    """Next ``prod(shape)`` complex entries as (real, imag) token pairs.

    The declared shape passes :func:`_check_size` before allocating; the
    entries are then cast ``_PIECE`` tokens at a time into one array.
    """
    _check_size("declared block", shape)
    flat = np.empty(2 * math.prod(shape))
    for start in range(0, flat.size, _PIECE):
        want = min(_PIECE, flat.size - start)
        words = list(itertools.islice(toks, want))
        try:
            # NumPy's str -> float64 cast accepts exactly what float() does
            flat[start:start + len(words)] = np.array(words, dtype=np.float64)
        except ValueError:
            raise ParseError("bad float token", code="bad-token") from None
        if len(words) < want:
            raise ParseError(f"unexpected end of input, wanted {flat.size} "
                             f"numbers, found {start + len(words)}",
                             code="bad-header")
    return flat.view(np.complex128).reshape(shape)


def _expect_end(toks):
    for extra in toks:
        raise ParseError(f"trailing token {extra!r}", code="bad-token")


def read_tntx(text):
    """Parse the TNTX v1 text format into a :class:`Tensor`."""
    toks = _tokens(text)
    if _need(toks, "magic") != "tntx" or _need(toks, "version") != "1":
        raise ParseError("not a TNTX v1 stream", code="bad-header")
    if _need(toks, "legs keyword") != "legs":
        raise ParseError("missing 'legs' line", code="bad-header")
    order = _need_int(toks, "leg count", 0, code="bad-header")
    dims = [_need_int(toks, "dimension", 1) for _ in range(order)]
    orients = []
    for _ in range(order):
        o = _need(toks, "orientation")
        if o not in (UP, DOWN):
            raise ParseError(f"bad orientation {o!r}", code="bad-token")
        orients.append(o)
    data = _read_block(toks, dims)
    _expect_end(toks)
    # a fresh array: read in place, not copied
    return Tensor._trusted(_array(data, "tensor"), tuple(orients))
