"""Truncated multivariate Taylor (jet) arithmetic with complex coefficients.

Every symbol of the package is positively homogeneous in the covector xi,
so it is fixed by its values on the affine hyperplane through a base
covector xi0 != 0 and orthogonal to it: xi = xi0 + E t, where the columns
of E are a fixed orthonormal basis of the complement of xi0
(:attr:`JetContext.hyperplane_basis`, which depends only on the direction
of xi0).  A jet is a Taylor polynomial in the boundary coordinates
x_1..x_n and the hyperplane offsets t_1..t_{n-2}, truncated at a total
degree K and centered at (x, t) = 0.  It carries an integer homogeneity
``degree`` d and stands for the function with F(x, s (xi0 + E t)) =
s^d f(x, t) for s > 0.  Products add degrees; sums need equal degrees,
and a zero jet takes any; ``reciprocal`` negates the degree and ``sqrt``
halves it; a jet of x alone has degree 0.  ``dxi`` is the derivative in a
covector component, from Euler's relation.  For n = 2 the hyperplane is a
point, so a jet is a jet in x times (xi/xi0)^d.

Every jet carries an integer ``accuracy``: the largest total degree whose
coefficients are trusted.  Ring operations and Taylor division/square root
preserve the minimum accuracy of their operands; differentiation, in x or
in xi, lowers it by one.

Coefficients are held in a dense vector indexed by the graded
lexicographic order on exponent multi-indices (the truncations used here
are small).  A jet of accuracy A stores exactly the coefficients of degree
<= A, which are the first ``context.sizes[A]`` basis entries, so a
coefficient above the trusted degree cannot reach any result: products
compute only that prefix, sums and comparisons work on the common prefix,
and ``with_accuracy`` drops coefficients or extends with zeros.  The
public coefficient map and serialization operate on the sparse
multi-index view.

A jet array of any leading shape is one read-only array of shape (...,
``sizes[A]``) with one accuracy A and one degree; an index per leading
axis, ``a[i, j, k]``, is a read-only :class:`Jet` view of an entry, and
slices are read-only arrays.  A :class:`JetMatrix` has two leading axes,
and ``m[i]`` is a row of entry views.  Every block of jets in the package
is a ``JetMatrix``, vector fields included (as columns); the connection
is one array of shape (n, n, n).  All of them share the arithmetic over
the last axis, and one product kernel serves every jet product, entrywise
product, scaling and matrix product; the operands of each product keep
their order, with the leading axes broadcast as in numpy.

Every chart (the *full* chart, over the x-variables and the hyperplane
offsets) has a *spatial* chart (``JetContext.spatial``): the same n, K and
xi0 over the n x-variables alone, whose basis is the x-only monomials of
the full basis in the same graded order.  Jets that cannot depend on the
covector (the metric, the Lame fields and everything built from them
alone) live there and cost a fraction of the pair work.  An operation
between a spatial and a full jet lifts the spatial operand to the full
chart, one scatter of its coefficients through an increasing position
map, and runs there; the operands keep their argument positions.  Lifting
keeps every bit: the full product table holds, for an x-only target,
exactly the pairs of two x-only monomials, in the order of the spatial
table, so a spatial product sums the same values in the same order as the
full product of the lifted operands.  For n = 2 the two charts have the
same variables and share their tables, and lifting is a relabelling.
"""

from __future__ import annotations

import copy
import functools
import math
import threading
import warnings
from itertools import combinations_with_replacement

import numpy as np

APPROX_TOL = 1e-12
ZERO_COEFF_TOL = 1e-14
CONDITION_LIMIT = 1e8
# Largest multiplication table a chart may ask for, in (left, right) pairs.
# The largest chart in use, (n, K) = (4, 7), needs 50,388, and (4, 8)
# needs 125,970.
MAX_PRODUCT_PAIRS = 200_000


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class ContextMismatch(JetError):
    """Operands were built on incompatible contexts."""


class NotInvertible(JetError):
    """Division or square root hit a degenerate constant term."""


class AccuracyExhausted(JetError):
    """An operation required coefficients beyond the trusted degree."""


class IllConditionedWarning(UserWarning):
    pass


# Lookup tables depend only on the chart shape (nvars, truncation order K);
# contexts with the same shape share them.
@functools.cache
def _basis(nvars: int, K: int):
    """Graded-lex monomials of degree <= K and their lookup arrays."""
    monomials = []
    for degree in range(K + 1):
        block = []
        for combo in combinations_with_replacement(range(nvars), degree):
            e = [0] * nvars
            for var in combo:
                e[var] += 1
            block.append(tuple(e))
        monomials.extend(sorted(block))
    exps = np.array(monomials, dtype=np.int64)
    degrees = exps.sum(axis=1)
    sizes = tuple(int(np.count_nonzero(degrees <= d)) for d in range(K + 1))
    return (tuple(monomials), {m: i for i, m in enumerate(monomials)}, degrees,
            exps, sizes)


def _positions(index: dict, exps: np.ndarray) -> np.ndarray:
    """Basis position of each row of exponents."""
    return np.array([index[m] for m in map(tuple, exps.tolist())], dtype=np.int64)


@functools.cache
def _spatial_positions(dimension: int, K: int) -> np.ndarray:
    """Full-chart basis position of each spatial-chart monomial (n >= 3).

    Padding the x-only exponents with zeros keeps their graded-lex order,
    so the positions increase.
    """
    exps = np.pad(_basis(dimension, K)[3], ((0, 0), (0, dimension - 2)))
    return _positions(_basis(2 * dimension - 2, K)[1], exps)


@functools.cache
def _hyperplane_degrees(dimension: int, K: int) -> np.ndarray:
    """The t-degree of each full-chart monomial, as floats."""
    return _basis(2 * dimension - 2, K)[3][:, dimension:].sum(axis=1) * 1.0


@functools.cache
def _mul_table(nvars: int, K: int):
    _, index, degrees, exps, sizes = _basis(nvars, K)
    # degrees are sorted, so the partners of a monomial of degree d are the
    # first sizes[K - d] monomials; the pairs come out row-major
    counts = np.array(sizes)[K - degrees]
    left = np.repeat(np.arange(len(degrees)), counts)
    right = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts, counts)
    target = _positions(index, exps[left] + exps[right])
    order = np.argsort(target, kind="stable")
    starts = np.searchsorted(target[order], np.arange(len(degrees)))
    return left[order], right[order], starts


@functools.cache
def _diff_table(nvars: int, K: int, var: int):
    _, index, _, exps, _ = _basis(nvars, K)
    src = np.flatnonzero(exps[:, var])
    lowered = exps[src]
    lowered[:, var] -= 1
    return src, _positions(index, lowered), exps[src, var].astype(np.float64)


# Product plans, one per chart shape, result accuracy A and leading operand
# shapes: the number of targets of degree <= A, and their pairs cut into
# chunks of whole target blocks, with views of the gather buffer.  The buffer
# holds two pair tables of its chart shape, or one target's gathers and
# products if they need more (small charts, large operand shapes); a chunk's
# gathers and products fill at most that.  Pair temporaries allocated in
# every product would be returned to the system and faulted back in each
# time, so product time would follow the host's memory state.  The buffers
# belong to the thread and the shape, not to a context, so pooled contexts
# add nothing.
class _ProductPlans(threading.local):
    def __init__(self):
        self.buffers = {}
        self.plans = {}


_PRODUCT_PLANS = _ProductPlans()


def _product_plan(context: "JetContext", accuracy: int, lead_a, lead_b):
    local = _PRODUCT_PLANS
    key = (context._shape, accuracy, lead_a, lead_b)
    plan = local.plans.get(key)
    if plan is None:
        left, right, starts = context.mul_table()
        lead = np.broadcast_shapes(lead_a, lead_b)
        shapes = [lead_a, lead_b]
        if lead not in shapes:  # else the products overwrite that gather
            shapes.append(lead)
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        # targets of degree <= accuracy are a prefix of the graded basis,
        # and their pairs are a prefix of the target-sorted table
        n = context.sizes[accuracy]
        edges = np.append(starts, len(left))[:n + 1]
        need = int(np.diff(edges).max()) * int(bounds[-1])
        buffer = local.buffers.get(context._shape)
        if buffer is None or len(buffer) < need:
            buffer = local.buffers[context._shape] = np.empty(
                max(2 * len(left), need), dtype=np.complex128)
        chunks, t0 = [], 0
        while t0 < n:
            limit = edges[t0] + len(buffer) // bounds[-1]
            t1 = max(t0 + 1, int(np.searchsorted(edges, limit, "right")) - 1)
            p0, p1 = edges[t0], edges[t1]
            views = [buffer[lo * (p1 - p0):hi * (p1 - p0)].reshape(shape + (-1,))
                     for shape, lo, hi in zip(shapes, bounds, bounds[1:])]
            chunks.append((slice(t0, t1), left[p0:p1], right[p0:p1],
                           edges[t0:t1] - p0, *views[:2], views[shapes.index(lead)]))
            t0 = t1
        plan = local.plans[key] = (n, lead + (n,), chunks)
    return plan


def _product(context: "JetContext", a: np.ndarray, b: np.ndarray,
             accuracy: int) -> np.ndarray:
    """Truncated products of coefficient arrays, entry by entry.

    ``a`` and ``b`` hold jets along their last axis; their leading axes
    broadcast.  Every jet product of the package runs here.  Each target's
    pairs are reduced together and in table order, whatever the chunks.
    """
    n, shape, chunks = _product_plan(context, accuracy, a.shape[:-1],
                                     b.shape[:-1])
    # products are mostly small, so the fixed cost of each numpy call
    # counts: the array methods skip the np.take wrapper
    if not np.count_nonzero(a[..., 1:n]):
        return a[..., :1] * b[..., :n]
    if not np.count_nonzero(b[..., 1:n]):
        return a[..., :n] * b[..., :1]
    out = np.empty(shape, dtype=np.complex128)
    for targets, left, right, starts, wa, wb, pairs in chunks:
        # indices are in range; "wrap" skips the buffered bounds check
        a.take(left, axis=-1, out=wa, mode="wrap")
        b.take(right, axis=-1, out=wb, mode="wrap")
        np.multiply(wa, wb, out=pairs)
        np.add.reduceat(pairs, starts, axis=-1, out=out[..., targets])
    return out


def check_chart_shape(dimension: int, truncation_order: int) -> None:
    """Reject a chart shape before anything of its size is built.

    The product table of a chart holds C(K + 2v, 2v) pairs for v = 2n - 2
    variables; the count stops as soon as it passes the budget, so hostile
    sizes cost nothing.
    """
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    if truncation_order < 2:
        raise ValueError(f"truncation order must be >= 2, got {truncation_order}")
    pairs = 1
    for i in range(1, 2 * (2 * dimension - 2) + 1):
        pairs = pairs * (truncation_order + i) // i  # C(K + i, i), exactly
        if pairs > MAX_PRODUCT_PAIRS:
            raise ValueError(
                f"chart (n={dimension}, K={truncation_order}) needs more than "
                f"{MAX_PRODUCT_PAIRS} product pairs")


class JetContext:
    """Shared frame for a family of jets.

    Holds the dimension n (so there are n x-variables and n-2 hyperplane
    offsets), the truncation order K, the base covector xi0 != 0, and the
    lazily built lookup tables for multiplication and differentiation.
    ``sizes[A]`` is the number of basis monomials of degree <= A, the
    stored length of a jet of accuracy A.  All jets combined in one
    expression must share a compatible context, or be a spatial jet and a
    full one of the same n, K and xi0; this is checked on every binary
    operation.

    ``full`` is the chart over all 2n-2 variables and ``spatial`` the one
    over the n x-variables; each chart is one of the two.
    """

    def __init__(self, dimension: int, truncation_order: int, base_covector):
        check_chart_shape(dimension, truncation_order)
        xi0 = tuple(float(v) for v in base_covector)
        if len(xi0) != dimension - 1:
            raise ValueError(
                f"base covector must have {dimension - 1} components, got {len(xi0)}"
            )
        if all(v == 0.0 for v in xi0):
            raise ValueError("base covector must be nonzero")
        self.dimension = dimension
        self.truncation_order = truncation_order
        self.base_covector = xi0
        self.full = self
        self._use_variables(2 * dimension - 2)

    def _use_variables(self, nvars: int) -> None:
        self.nvars = nvars
        self._shape = (nvars, self.truncation_order)
        (self.monomials, self._index, self.degrees, self._exps,
         self.sizes) = _basis(*self._shape)

    @functools.cached_property
    def spatial(self) -> "JetContext":
        """The chart of the x-variables alone, with the same n, K and xi0."""
        chart = copy.copy(self)
        chart.spatial = chart
        chart._use_variables(self.dimension)
        return chart

    @functools.cached_property
    def hyperplane_basis(self) -> np.ndarray:
        """E, the (n-1) x (n-2) orthonormal basis of the complement of xi0.

        With u = xi0/|xi0| and p the first index of the largest |u_p|, the
        Householder reflection H = I - 2 w w^T / (w^T w), w = u + sign(u_p)
        e_p, maps u to -sign(u_p) e_p; its columns j != p, in increasing
        order, are orthonormal and orthogonal to xi0.
        """
        u = np.array(self.base_covector) / math.hypot(*self.base_covector)
        p = int(np.argmax(np.abs(u)))
        w = u.copy()
        w[p] += math.copysign(1.0, u[p])
        reflection = np.eye(len(u)) - np.outer(w, w) * (2.0 / (w @ w))
        return np.delete(reflection, p, axis=1)

    # -- variable layout: x_0..x_{n-1} then t_0..t_{n-3} (0-based) --

    def x_index(self, j: int) -> int:
        if not 0 <= j < self.dimension:
            raise ValueError(f"x variable index out of range: {j}")
        return j

    def xi_index(self, k: int) -> int:
        """Variable index of the hyperplane offset t_k."""
        _require_full(self)
        if not 0 <= k < self.dimension - 2:
            raise ValueError(f"hyperplane variable index out of range: {k}")
        return self.dimension + k

    @property
    def normal_index(self) -> int:
        return self.dimension - 1

    def monomial_position(self, exponents) -> int:
        key = tuple(int(e) for e in exponents)
        pos = self._index.get(key)
        if pos is None:
            raise ValueError(f"exponents {key} outside truncation order")
        return pos

    def compatible_with(self, other: "JetContext") -> bool:
        """Same kind of chart (full or spatial), n, K and xi0."""
        return (
            self.nvars == other.nvars
            and (self.full is self) == (other.full is other)
            and self.dimension == other.dimension
            and self.truncation_order == other.truncation_order
            and self.base_covector == other.base_covector
        )

    def mul_table(self):
        """Product pairs sorted by target monomial: (left, right, starts).

        ``starts`` delimits the pair block of each target index; every
        block is non-empty because the constant monomial pairs with all.
        """
        return _mul_table(*self._shape)

    def diff_table(self, var: int):
        """Derivative in variable ``var``: (source, target, factor) arrays.

        The sources are the monomials containing ``var``, in basis order.
        """
        return _diff_table(*self._shape, var)

    def __repr__(self):
        return (
            f"JetContext(dimension={self.dimension}, "
            f"truncation_order={self.truncation_order}, "
            f"base_covector={self.base_covector})"
            + ("" if self.full is self else ".spatial")
        )


def _coeffs_on(context: JetContext, x: "_JetArray") -> np.ndarray:
    """The coefficients of ``x`` on ``context``.

    A spatial jet goes onto a full chart of its n, K and xi0 by one
    scatter (for n = 2 the two charts share their variables); any other
    pair of incompatible charts is a mismatch.
    """
    if x.context is context or x.context.compatible_with(context):
        return x.coeffs
    if not x.context.full.compatible_with(context):
        raise ContextMismatch(
            f"jets built on incompatible contexts: {x.context!r} vs {context!r}"
        )
    c = x.coeffs
    if context.nvars == x.context.nvars:
        return c
    out = np.zeros(c.shape[:-1] + (context.sizes[x.accuracy],),
                   dtype=np.complex128)
    positions = _spatial_positions(context.dimension, context.truncation_order)
    out[..., positions[:c.shape[-1]]] = c
    return out


def _operands(a: "_JetArray", b: "_JetArray"):
    """The chart of a binary operation and both coefficient arrays on it:
    a spatial operand meeting a full one is lifted to the full chart."""
    chart = a.context if a.context.full is a.context else b.context
    return chart, _coeffs_on(chart, a), _coeffs_on(chart, b)


def _common_degree(jets) -> int:
    """The degree that ``jets`` share: a zero jet takes any degree, and
    zeros alone keep the first one's."""
    degrees = {x.degree for x in jets}
    if len(degrees) > 1:
        degrees = {x.degree for x in jets if x.coeffs.any()} or {jets[0].degree}
        if len(degrees) > 1:
            raise ValueError(f"cannot combine jets of homogeneity degrees "
                             f"{sorted(degrees)}")
    return degrees.pop()


def _require_full(context: JetContext) -> None:
    if context.full is not context:
        raise ValueError("the spatial chart has no cotangent variables")


def _trusted(context: JetContext, accuracy) -> int:
    """``accuracy`` capped at the truncation order; negative is an error."""
    accuracy = min(int(accuracy), context.truncation_order)
    if accuracy < 0:
        raise ValueError(f"jet accuracy must be >= 0, got {accuracy}")
    return accuracy


class _JetArray:
    """Jets along the last axis of ``coeffs``, all trusted to ``accuracy``
    and all of homogeneity degree ``degree`` in xi.

    ``coeffs`` has shape (..., ``context.sizes[accuracy]``).  The arithmetic
    below is written once for every leading shape: :class:`Jet` has none,
    :class:`JetMatrix` has (rows, cols).
    """

    __slots__ = ("context", "coeffs", "accuracy", "degree")

    @classmethod
    def _wrap(cls, context: JetContext, coeffs: np.ndarray, accuracy: int,
              degree: int):
        if coeffs.ndim > 1:  # an array of jets is read-only
            coeffs.flags.writeable = False
        out = object.__new__(cls)
        out.context = context
        out.coeffs = coeffs
        out.accuracy = accuracy
        out.degree = degree
        return out

    def _like(self, coeffs: np.ndarray, accuracy=None):
        """New coefficients on this chart, with this degree."""
        return self._wrap(self.context, coeffs,
                          self.accuracy if accuracy is None else accuracy,
                          self.degree)

    # -- views ---------------------------------------------------------

    def __getitem__(self, key):
        """Index the leading axes as numpy does: ``a[i, j, k]``, one index
        per leading axis, is a read-only :class:`Jet` view of an entry, and
        slices give read-only arrays of jets."""
        key = key if isinstance(key, tuple) else (key,)
        if (len(key) > self.coeffs.ndim - 1
                or any(k is None or k is Ellipsis for k in key)):
            raise IndexError(f"index {key!r} reaches past the leading axes")
        c = self.coeffs[key]
        return _array_class(c.ndim - 1)._wrap(self.context, c, self.accuracy,
                                              self.degree)

    def reshape(self, *shape):
        """The same jets under the leading axes ``shape``."""
        return _array_class(len(shape))._wrap(
            self.context, self.coeffs.reshape(shape + (-1,)), self.accuracy,
            self.degree)

    def transpose(self, *axes):
        """The leading axes permuted as ``axes`` says, or reversed."""
        lead = self.coeffs.ndim - 1
        return self._like(self.coeffs.transpose(*(axes or range(lead)[::-1]),
                                                lead))

    def sum(self):
        """The sum over the first leading axis, term by term in order."""
        return _array_class(self.coeffs.ndim - 2)._wrap(
            self.context, np.add.reduce(self.coeffs), self.accuracy,
            self.degree)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def max_imag(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))

    # -- predicates -----------------------------------------------------

    def allclose(self, other, tol: float = APPROX_TOL) -> bool:
        """Every common coefficient within ``tol``; NaN compares unequal.

        Jets of different degrees are close only if both are within
        ``tol`` of zero.
        """
        if not isinstance(other, _JetArray):
            other = Jet.constant(self.context, other)
        _, a, b = _operands(self, other)
        n = min(a.shape[-1], b.shape[-1])
        a, b = a[..., :n], b[..., :n]
        if self.degree != other.degree:
            return bool(np.all(np.abs(a) <= tol) and np.all(np.abs(b) <= tol))
        return bool(np.all(np.abs(a - b) <= tol))

    # -- ring operations -------------------------------------------------

    def _combine(self, other, op):
        """``op`` (add or subtract) on the common prefix, or on constant terms."""
        if not isinstance(other, _JetArray):
            if self.coeffs.ndim > 1:
                return NotImplemented  # a number is not a matrix
            value = complex(other)
            degree = self.degree
            if value and degree:  # a number has degree 0
                degree = _common_degree([self, Jet.constant(self.context, value)])
            out = self.coeffs.copy()
            op(out[..., 0], value, out=out[..., 0])
            return self._wrap(self.context, out, self.accuracy, degree)
        if type(other) is not type(self):
            return NotImplemented
        chart, a, b = _operands(self, other)
        degree = (self.degree if self.degree == other.degree
                  else _common_degree([self, other]))
        if a.shape != b.shape:
            n = min(a.shape[-1], b.shape[-1])
            a, b = a[..., :n], b[..., :n]
            if a.shape != b.shape:
                raise ValueError("shapes do not align")
        return self._wrap(chart, op(a, b), min(self.accuracy, other.accuracy),
                          degree)

    def __add__(self, other):
        return self._combine(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        """Scale by a number, or multiply entry by entry by jets, the
        leading axes broadcast as in numpy; every product keeps its
        operands in order, so ``c * M`` is ``c * M[i, j]`` entry by entry."""
        if not isinstance(other, _JetArray):
            return self._like(self.coeffs * complex(other))
        chart, a, b = _operands(self, other)
        acc = min(self.accuracy, other.accuracy)
        out = _product(chart, a, b, acc)
        return _array_class(out.ndim - 1)._wrap(chart, out, acc,
                                                self.degree + other.degree)

    __rmul__ = __mul__

    def real_part(self):
        return self._like(self.coeffs.real.astype(np.complex128))

    def with_accuracy(self, accuracy: int):
        """Copy trusted to ``accuracy``.

        Lowering the accuracy drops coefficients; raising it extends with
        zeros.
        """
        ctx, c = self.context, self.coeffs
        accuracy = _trusted(ctx, accuracy)
        size = ctx.sizes[accuracy]
        if size > c.shape[-1]:
            pad = np.zeros(c.shape[:-1] + (size - c.shape[-1],), dtype=np.complex128)
            c = np.concatenate((c, pad), axis=-1)
        return self._like(c[..., :size], accuracy)

    def spatial_part(self):
        """The part with no hyperplane-offset content, on the spatial chart;
        only a jet of degree 0, or a zero jet, has one."""
        chart = self.context.spatial
        if chart is self.context:
            return self
        if self.degree and self.coeffs.any():
            raise ValueError(f"a jet of homogeneity degree {self.degree} is "
                             f"not a function of x alone")
        c = self.coeffs
        if chart.nvars != self.context.nvars:
            positions = _spatial_positions(chart.dimension, chart.truncation_order)
            c = c[..., positions[:chart.sizes[self.accuracy]]]
        return self._wrap(chart, c, self.accuracy, 0)

    # -- calculus ---------------------------------------------------------

    def _derivative_terms(self, var: int):
        """(targets, values) of the derivative in variable ``var``."""
        c = self.coeffs
        src, dst, fac = self.context.diff_table(var)
        # src is sorted, so the stored sources are a prefix of the table
        k = np.searchsorted(src, c.shape[-1])
        return dst[:k], c[..., src[:k]] * fac[:k]

    def partial(self, var: int):
        if self.accuracy < 1:
            raise AccuracyExhausted("derivative exceeds trusted degree")
        ctx, c = self.context, self.coeffs
        out = np.zeros(c.shape[:-1] + (ctx.sizes[self.accuracy - 1],),
                       dtype=np.complex128)
        dst, values = self._derivative_terms(var)
        out[..., dst] = values
        return self._like(out, self.accuracy - 1)

    def dx(self, j: int):
        return self.partial(self.context.x_index(j))

    def dxi(self, a: int):
        """The derivative in the covector component xi_a, from Euler's
        relation for a function of degree d:

            xi0_a / |xi0|^2 (d f - sum_k t_k df/dt_k) + sum_k E_ak df/dt_k.

        The first part scales each coefficient by d minus its t-degree.
        The degree falls by one, and so does the accuracy.
        """
        ctx, c = self.context, self.coeffs
        n = ctx.dimension
        _require_full(ctx)
        if not 0 <= a < n - 1:
            raise ValueError(f"covector index out of range: {a}")
        if self.accuracy < 1:
            raise AccuracyExhausted("derivative exceeds trusted degree")
        size = ctx.sizes[self.accuracy - 1]
        xi0 = ctx.base_covector
        euler = (self.degree - _hyperplane_degrees(n, ctx.truncation_order)[:size]) \
            * (xi0[a] / math.fsum(v * v for v in xi0))
        out = c[..., :size] * euler
        basis = ctx.hyperplane_basis
        for k in range(n - 2):
            if basis[a, k]:
                dst, values = self._derivative_terms(n + k)
                out[..., dst] += values * basis[a, k]
        return self._wrap(ctx, out, self.accuracy - 1, self.degree - 1)

    def dn(self):
        return self.dx(self.context.normal_index)

    def _masked(self, mask: np.ndarray):
        return self._like(np.where(mask, self.coeffs, 0.0))

    def _exponents(self) -> np.ndarray:
        return self.context._exps[:self.coeffs.shape[-1]]

    def at_boundary(self):
        """Restrict to x_n = 0 (drop every monomial with normal content)."""
        return self._masked(self._exponents()[:, self.context.normal_index] == 0)

    def depends_on_xi(self, tol: float = ZERO_COEFF_TOL) -> bool:
        """Whether a coefficient over ``tol`` carries xi: any coefficient
        at a nonzero degree, else any with hyperplane-offset content."""
        if self.degree:
            return bool(np.any(np.abs(self.coeffs) > tol))
        xi_mask = self._exponents()[:, self.context.dimension:].sum(axis=1) > 0
        return bool(np.any(np.abs(np.where(xi_mask, self.coeffs, 0.0)) > tol))

    def x_degree_cap(self, bound: int):
        """Zero every monomial whose x-degree exceeds ``bound``.

        Spatial trust is sometimes narrower than the total-degree
        accuracy; this cap expresses it without touching the cotangent
        structure.
        """
        return self._masked(
            self._exponents()[:, :self.context.dimension].sum(axis=1) <= bound)


def _array_class(ndim: int) -> type:
    """The class of jets under ``ndim`` leading axes."""
    if ndim == 0:
        return Jet
    return JetMatrix if ndim == 2 else _JetArray


class Jet(_JetArray):
    """One truncated Taylor expansion tied to a :class:`JetContext`.

    ``coeffs`` holds exactly the coefficients of degree <= ``accuracy``; a
    longer vector is cut to that prefix.  ``degree`` is the homogeneity
    degree in xi.
    """

    __slots__ = ()

    def __init__(self, context: JetContext, coeffs: np.ndarray, accuracy: int,
                 degree: int = 0):
        accuracy = _trusted(context, accuracy)
        size = context.sizes[accuracy]
        if len(coeffs) < size:
            raise ValueError(f"accuracy {accuracy} needs {size} "
                             f"coefficients, got {len(coeffs)}")
        self.context = context
        self.coeffs = coeffs[:size]
        self.accuracy = accuracy
        self.degree = degree

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, context: JetContext, value, accuracy=None) -> "Jet":
        """The constant ``value``, trusted to ``accuracy`` (default: K)."""
        return cls.from_coefficients(context, {(0,) * context.nvars: value},
                                     accuracy)

    @classmethod
    def zero(cls, context: JetContext) -> "Jet":
        return cls.constant(context, 0.0)

    @classmethod
    def variable(cls, context: JetContext, var: int) -> "Jet":
        exps = [0] * context.nvars
        exps[var] = 1
        return cls.from_coefficients(context, {tuple(exps): 1.0})

    @classmethod
    def xi_component(cls, context: JetContext, a: int) -> "Jet":
        """The covector component xi_a = xi0_a + sum_k E_ak t_k (degree 1)."""
        _require_full(context)
        if not 0 <= a < context.dimension - 1:
            raise ValueError(f"covector index out of range: {a}")
        row = context.hyperplane_basis[a]
        coefficients = {(0,) * context.nvars: context.base_covector[a]}
        for k in range(context.dimension - 2):
            exps = [0] * context.nvars
            exps[context.xi_index(k)] = 1
            coefficients[tuple(exps)] = row[k]
        return cls.from_coefficients(context, coefficients, degree=1)

    @classmethod
    def from_coefficients(cls, context: JetContext, coefficients,
                          accuracy=None, degree: int = 0) -> "Jet":
        """Jet of a sparse coefficient map, trusted to ``accuracy`` (default: K).

        The vector has exactly ``context.sizes[accuracy]`` entries;
        coefficients of higher degree are dropped.
        """
        if accuracy is None:
            accuracy = context.truncation_order
        accuracy = _trusted(context, accuracy)
        size = context.sizes[accuracy]
        c = np.zeros(size, dtype=np.complex128)
        for exps, value in coefficients.items():
            pos = context.monomial_position(exps)
            if pos < size:
                c[pos] = complex(value)
        return cls._wrap(context, c, accuracy, degree)

    # -- views ---------------------------------------------------------

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def coefficient(self, exponents) -> complex:
        """The stored coefficient; 0 above the accuracy."""
        pos = self.context.monomial_position(exponents)
        return complex(self.coeffs[pos]) if pos < len(self.coeffs) else 0j

    def coefficients(self, tol: float = 0.0) -> dict[tuple[int, ...], complex]:
        """Sparse view of the stored coefficients, in graded-lex order."""
        return {m: complex(v) for m, v in zip(self.context.monomials, self.coeffs)
                if abs(v) > tol}

    def substitute_xi(self, values) -> "Jet":
        """The value at the covector xi0 + E t for numeric offsets t, as a
        jet in x (degree 0); x stays symbolic."""
        ctx = self.context
        _require_full(ctx)
        values = np.asarray(values, dtype=np.complex128)
        n = ctx.dimension
        if len(values) != n - 2:
            raise ValueError("need one value per hyperplane offset variable")
        out = np.zeros_like(self.coeffs)
        for m, v in zip(ctx.monomials, self.coeffs):
            if v == 0:
                continue
            factor = 1.0 + 0.0j
            for k in range(n - 2):
                e = m[ctx.xi_index(k)]
                if e:
                    factor *= values[k] ** e
            reduced = m[:n] + (0,) * (n - 2)
            out[ctx._index[reduced]] += v * factor
        return Jet(ctx, out, self.accuracy)

    def __repr__(self):
        terms = []
        for m, v in list(self.coefficients(tol=ZERO_COEFF_TOL).items())[:6]:
            terms.append(f"{v:.3g}*{tuple(m)}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet({body}, accuracy={self.accuracy}, degree={self.degree})"


def reciprocal(a: Jet) -> Jet:
    """Taylor inverse; requires a nonvanishing constant term.  The degree
    is negated."""
    c0 = a.constant_term
    if not abs(c0) > APPROX_TOL:  # a NaN constant term fails too
        raise NotInvertible("jet not invertible: constant term vanishes")
    x = Jet.constant(a.context, 1.0 / c0, a.accuracy)
    x.degree = -a.degree
    steps = max(1, math.ceil(math.log2(a.context.truncation_order + 1)))
    for _ in range(steps):
        x = x * (2.0 - a * x)
    return x.with_accuracy(a.accuracy)


def sqrt(a: Jet) -> Jet:
    """Principal square root; the constant term must be real and positive.
    The degree, which must be even, is halved."""
    if a.degree % 2:
        raise ValueError(f"no square root of homogeneity degree {a.degree}")
    c0 = a.constant_term
    # written so that a NaN constant term fails them
    if not abs(c0.imag) <= APPROX_TOL:
        raise NotInvertible("jet square root requires a real constant term")
    if not c0.real > APPROX_TOL:
        raise NotInvertible("jet square root requires a positive constant term")
    z = Jet.constant(a.context, 1.0 / math.sqrt(c0.real), a.accuracy)
    z.degree = -a.degree // 2
    steps = max(1, math.ceil(math.log2(a.context.truncation_order + 1)))
    for _ in range(steps):
        z = z * (3.0 - a * z * z) * 0.5
    return (a * z).with_accuracy(a.accuracy)


class JetMatrix(_JetArray):
    """Matrix of jets on one chart, all trusted to one accuracy and of one
    degree.

    ``coeffs`` is one read-only array of shape (rows, cols,
    ``sizes[accuracy]``); ``m[i, j]`` is a read-only :class:`Jet` view of
    an entry.  A matrix built from jets of several accuracies is trusted
    to the lowest; its nonzero entries must share one degree.
    """

    __slots__ = ()

    def __init__(self, context: JetContext, entries):
        rows = [list(row) for row in entries]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows must have equal length")
        coeffs = [[_coeffs_on(context, e) for e in row] for row in rows]
        self.context = context
        self.accuracy = min(e.accuracy for row in rows for e in row)
        self.degree = _common_degree([e for row in rows for e in row])
        size = context.sizes[self.accuracy]
        self.coeffs = np.array([[c[:size] for c in row] for row in coeffs],
                               dtype=np.complex128)
        self.coeffs.flags.writeable = False

    @classmethod
    def _constant(cls, context: JetContext, values: np.ndarray,
                  accuracy: int) -> "JetMatrix":
        """The matrix of constants ``values``, trusted to ``accuracy``."""
        coeffs = np.zeros(values.shape + (context.sizes[accuracy],),
                          dtype=np.complex128)
        coeffs[..., 0] = values
        return cls._wrap(context, coeffs, accuracy, 0)

    @classmethod
    def zeros(cls, context: JetContext, rows: int, cols: int) -> "JetMatrix":
        return cls._constant(context, np.zeros((rows, cols)),
                             context.truncation_order)

    @classmethod
    def identity(cls, context: JetContext, size: int) -> "JetMatrix":
        return cls._constant(context, np.eye(size), context.truncation_order)

    @classmethod
    def diagonal(cls, context: JetContext, diag) -> "JetMatrix":
        diag = [d if isinstance(d, Jet) else Jet.constant(context, d) for d in diag]
        accuracy = min(d.accuracy for d in diag)
        size = context.sizes[accuracy]
        coeffs = np.zeros((len(diag), len(diag), size), dtype=np.complex128)
        coeffs[np.diag_indices(len(diag))] = [_coeffs_on(context, d)[:size]
                                              for d in diag]
        return cls._wrap(context, coeffs, accuracy, _common_degree(diag))

    @classmethod
    def column(cls, context: JetContext, jets) -> "JetMatrix":
        return cls(context, [[j] for j in jets])

    @classmethod
    def block(cls, context: JetContext, blocks) -> "JetMatrix":
        """The matrix of rows of matrix blocks, trusted to the lowest of
        their accuracies; its nonzero blocks must share one degree."""
        flat = [b for row in blocks for b in row]
        accuracy = min(b.accuracy for b in flat)
        size = context.sizes[accuracy]
        coeffs = np.concatenate([
            np.concatenate([_coeffs_on(context, b)[..., :size] for b in row],
                           axis=1)
            for row in blocks])
        return cls._wrap(context, coeffs, accuracy, _common_degree(flat))

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[1]

    def __getitem__(self, key):
        """``m[i, j]`` is an entry and ``m[i]`` is row i, a tuple of
        entries; slices give matrices or vectors of jets."""
        if not isinstance(key, (int, np.integer)):
            return super().__getitem__(key)
        return tuple(Jet._wrap(self.context, c, self.accuracy, self.degree)
                     for c in self.coeffs[key])

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not align")
        ctx, a, b = _operands(self, other)
        acc = min(self.accuracy, other.accuracy)
        # the k terms are added in order, so every entry has the bits of
        # the sum written out entry by entry
        out = _product(ctx, a[:, :1], b[:1], acc)
        for k in range(1, self.cols):
            out += _product(ctx, a[:, k:k + 1], b[k:k + 1], acc)
        return self._wrap(ctx, out, acc, self.degree + other.degree)

    def symmetrized(self) -> "JetMatrix":
        """Each off-diagonal pair replaced by its mean; the diagonal kept as is."""
        out = self.coeffs.copy()
        i, j = np.triu_indices(self.rows, 1)
        out[i, j] = out[j, i] = (out[i, j] + out[j, i]) * 0.5
        return self._like(out)

    def __repr__(self):
        return (f"JetMatrix({self.rows}x{self.cols}, accuracy={self.accuracy}, "
                f"degree={self.degree})")


def stack(arrays, axis: int = 0) -> _JetArray:
    """Jet arrays of one shape and degree joined along a new leading axis
    ``axis`` on the chart of the first, trusted to the lowest of their
    accuracies."""
    chart = arrays[0].context
    accuracy = min(x.accuracy for x in arrays)
    size = chart.sizes[accuracy]
    coeffs = np.stack([_coeffs_on(chart, x)[..., :size] for x in arrays],
                      axis=axis)
    return _array_class(coeffs.ndim - 1)._wrap(chart, coeffs, accuracy,
                                               arrays[0].degree)


def mat_inverse(matrix: JetMatrix) -> JetMatrix:
    """Invert a square jet matrix by Newton iteration on the constant inverse.

    The constant-term matrix must be finite and numerically invertible; a
    condition number above 1e8 triggers a warning diagnostic.  The degree
    is negated.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    ctx = matrix.context
    m0 = matrix.coeffs[:, :, 0]
    if not np.isfinite(m0).all():
        raise NotInvertible("matrix constant term is not finite")
    cond = np.linalg.cond(m0)
    if not np.isfinite(cond):
        raise NotInvertible("matrix constant term is singular")
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"matrix constant term has condition number {cond:.3g}",
            IllConditionedWarning,
            stacklevel=2,
        )
    try:
        inv0 = np.linalg.inv(m0)
    except np.linalg.LinAlgError as exc:
        raise NotInvertible("matrix constant term is singular") from exc
    x = JetMatrix._constant(ctx, inv0, matrix.accuracy)
    x.degree = -matrix.degree
    two_i = JetMatrix.identity(ctx, matrix.rows) * 2.0
    steps = max(1, math.ceil(math.log2(ctx.truncation_order + 1)))
    for _ in range(steps):
        x = x @ (two_i - matrix @ x)
    residual = (matrix @ x - JetMatrix.identity(ctx, matrix.rows)).max_abs()
    if not residual <= max(1e-10, cond * 1e-15):
        raise NotInvertible(f"matrix inversion residual {residual:.3g} too large")
    return x
