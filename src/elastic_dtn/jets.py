"""Truncated multivariate Taylor (jet) arithmetic with complex coefficients.

A jet is a Taylor polynomial in the boundary coordinates x_1..x_n and the
cotangent offset variables xih_1..xih_{n-1}, truncated at a total degree K
and centered at (x, xi') = (0, xi0).  The cotangent variables are stored as
offsets from a fixed nonzero base covector xi0, so that |xi'| and similar
square roots have a positive constant term.

Every jet carries an integer ``accuracy``: the largest total degree whose
coefficients are trusted.  Ring operations and Taylor division/square root
preserve the minimum accuracy of their operands; differentiation lowers it
by one.

Coefficients are held in a dense vector indexed by the graded
lexicographic order on exponent multi-indices (the truncations used here
are small).  A jet of accuracy A stores exactly the coefficients of degree
<= A, which are the first ``context.sizes[A]`` basis entries, so a
coefficient above the trusted degree cannot reach any result: products
compute only that prefix, sums and comparisons work on the common prefix,
and ``with_accuracy`` drops coefficients or extends with zeros.  The
public coefficient map and serialization operate on the sparse
multi-index view.
"""

from __future__ import annotations

import math
import threading
import warnings

import numpy as np

APPROX_TOL = 1e-12
ZERO_COEFF_TOL = 1e-14
CONDITION_LIMIT = 1e8
# Largest multiplication table a chart may ask for, in (left, right) pairs.
# The largest chart in use, (n, K) = (4, 7), needs 116,280.
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


class MultiIndex(tuple):
    """Exponent tuple of a monomial, ordered graded-lexicographically."""

    @property
    def degree(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        return math.prod(math.factorial(e) for e in self)

    def sort_key(self):
        return (sum(self), tuple(self))

    def __lt__(self, other):
        return self.sort_key() < (sum(other), tuple(other))

    def __le__(self, other):
        return self.sort_key() <= (sum(other), tuple(other))

    def __gt__(self, other):
        return self.sort_key() > (sum(other), tuple(other))

    def __ge__(self, other):
        return self.sort_key() >= (sum(other), tuple(other))


def _monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(max_degree + 1)]

    def rec(prefix, remaining_vars, budget):
        if remaining_vars == 1:
            for e in range(budget + 1):
                t = prefix + (e,)
                by_degree[sum(t)].append(t)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining_vars - 1, budget - e)

    rec((), nvars, max_degree)
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        out.extend(sorted(by_degree[d]))
    return out


# Lookup tables depend only on (nvars, truncation order); contexts with the
# same shape share them.
_BASIS_CACHE: dict = {}
_MUL_CACHE: dict = {}
_DIFF_CACHE: dict = {}

# Product plans, one per chart shape and result accuracy A: the number of
# targets of degree <= A, the prefix of the pair table that feeds them, and
# gather buffers of that length.  Pair temporaries allocated in every product
# would be returned to the system and faulted back in each time, so product
# time would follow the host's memory state.  The buffers belong to the
# thread and the shape, not to a context, so pooled contexts add nothing.
class _ProductPlans(threading.local):
    def __init__(self):
        self.buffers = {}
        self.plans = {}


_PRODUCT_PLANS = _ProductPlans()


def _product_plan(context: "JetContext", accuracy: int):
    local = _PRODUCT_PLANS
    plan = local.plans.get((context._shape, accuracy))
    if plan is None:
        left, right, starts = context.mul_table()
        buffers = local.buffers.get(context._shape)
        if buffers is None:
            buffers = local.buffers[context._shape] = (
                np.empty(len(left), dtype=np.complex128),
                np.empty(len(left), dtype=np.complex128))
        # targets of degree <= accuracy are a prefix of the graded basis,
        # and their pairs are a prefix of the target-sorted table
        n = context.sizes[accuracy]
        m = starts[n] if n < len(starts) else len(left)
        plan = local.plans[(context._shape, accuracy)] = (
            n, left[:m], right[:m], starts[:n], buffers[0][:m], buffers[1][:m])
    return plan


def check_chart_shape(dimension: int, truncation_order: int) -> None:
    """Reject a chart shape before anything of its size is built.

    The product table of a chart holds C(K + 2v, 2v) pairs for v = 2n - 1
    variables; the count stops as soon as it passes the budget, so hostile
    sizes cost nothing.
    """
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    if truncation_order < 2:
        raise ValueError(f"truncation order must be >= 2, got {truncation_order}")
    pairs = 1
    for i in range(1, 2 * (2 * dimension - 1) + 1):
        pairs = pairs * (truncation_order + i) // i  # C(K + i, i), exactly
        if pairs > MAX_PRODUCT_PAIRS:
            raise ValueError(
                f"chart (n={dimension}, K={truncation_order}) needs more than "
                f"{MAX_PRODUCT_PAIRS} product pairs")


class JetContext:
    """Shared frame for a family of jets.

    Holds the dimension n (so there are n x-variables and n-1 cotangent
    offsets), the truncation order K, the base covector xi0 != 0, and the
    lazily built lookup tables for multiplication, differentiation and
    evaluation.  ``sizes[A]`` is the number of basis monomials of degree
    <= A, the stored length of a jet of accuracy A.  All jets combined in
    one expression must share a compatible context; this is checked on
    every binary operation.
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
        self.nvars = 2 * dimension - 1
        shape = (self.nvars, truncation_order)
        basis = _BASIS_CACHE.get(shape)
        if basis is None:
            mons = tuple(_monomials(self.nvars, truncation_order))
            degrees = np.array([sum(m) for m in mons], dtype=np.int64)
            basis = (
                mons,
                {m: i for i, m in enumerate(mons)},
                degrees,
                np.array(mons, dtype=np.int64),
                tuple(int(np.count_nonzero(degrees <= d))
                      for d in range(truncation_order + 1)),
            )
            _BASIS_CACHE[shape] = basis
        self.monomials, self._index, self.degrees, self._exps, self.sizes = basis
        self._shape = shape

    # -- variable layout: x_0..x_{n-1} then xi-offsets 0..n-2 (0-based) --

    def x_index(self, j: int) -> int:
        if not 0 <= j < self.dimension:
            raise ValueError(f"x variable index out of range: {j}")
        return j

    def xi_index(self, alpha: int) -> int:
        if not 0 <= alpha < self.dimension - 1:
            raise ValueError(f"xi variable index out of range: {alpha}")
        return self.dimension + alpha

    @property
    def normal_index(self) -> int:
        return self.dimension - 1

    @property
    def n_coefficients(self) -> int:
        return len(self.monomials)

    def monomial_position(self, exponents) -> int:
        key = tuple(int(e) for e in exponents)
        pos = self._index.get(key)
        if pos is None:
            raise ValueError(f"exponents {key} outside truncation order")
        return pos

    def compatible_with(self, other: "JetContext") -> bool:
        return (
            self.dimension == other.dimension
            and self.truncation_order == other.truncation_order
            and self.base_covector == other.base_covector
        )

    def mul_table(self):
        """Product pairs sorted by target monomial: (left, right, starts).

        ``starts`` delimits the pair block of each target index; every
        block is non-empty because the constant monomial pairs with all.
        """
        table = _MUL_CACHE.get(self._shape)
        if table is None:
            K = self.truncation_order
            idx = self._index
            mons = self.monomials
            degs = self.degrees
            left, right, target = [], [], []
            for i, mi in enumerate(mons):
                cap = K - degs[i]
                for j, mj in enumerate(mons):
                    if degs[j] > cap:
                        continue
                    left.append(i)
                    right.append(j)
                    target.append(idx[tuple(a + b for a, b in zip(mi, mj))])
            left = np.array(left, dtype=np.int64)
            right = np.array(right, dtype=np.int64)
            target = np.array(target, dtype=np.int64)
            order = np.argsort(target, kind="stable")
            target = target[order]
            starts = np.searchsorted(target, np.arange(len(mons)))
            table = (left[order], right[order], starts)
            _MUL_CACHE[self._shape] = table
        return table

    def diff_table(self, var: int):
        key = (self._shape, var)
        table = _DIFF_CACHE.get(key)
        if table is None:
            src, dst, fac = [], [], []
            for i, m in enumerate(self.monomials):
                e = m[var]
                if e == 0:
                    continue
                lowered = list(m)
                lowered[var] = e - 1
                src.append(i)
                dst.append(self._index[tuple(lowered)])
                fac.append(float(e))
            table = (
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                np.array(fac, dtype=np.float64),
            )
            _DIFF_CACHE[key] = table
        return table

    def __repr__(self):
        return (
            f"JetContext(dimension={self.dimension}, "
            f"truncation_order={self.truncation_order}, "
            f"base_covector={self.base_covector})"
        )


def _check_context(a: "Jet", b: "Jet") -> None:
    if a.context is not b.context and not a.context.compatible_with(b.context):
        raise ContextMismatch(
            f"jets built on incompatible contexts: {a.context!r} vs {b.context!r}"
        )


class Jet:
    """One truncated Taylor expansion tied to a :class:`JetContext`.

    ``coeffs`` holds exactly the coefficients of degree <= ``accuracy``; a
    longer vector is cut to that prefix.
    """

    __slots__ = ("context", "coeffs", "accuracy")

    def __init__(self, context: JetContext, coeffs: np.ndarray, accuracy: int):
        accuracy = min(int(accuracy), context.truncation_order)
        if accuracy < 0:
            raise ValueError(f"jet accuracy must be >= 0, got {accuracy}")
        size = context.sizes[accuracy]
        if len(coeffs) != size:
            if len(coeffs) < size:
                raise ValueError(f"accuracy {accuracy} needs {size} "
                                 f"coefficients, got {len(coeffs)}")
            coeffs = coeffs[:size]
        self.context = context
        self.coeffs = coeffs
        self.accuracy = accuracy

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, context: JetContext, value) -> "Jet":
        c = np.zeros(context.n_coefficients, dtype=np.complex128)
        c[0] = complex(value)
        return cls(context, c, context.truncation_order)

    @classmethod
    def zero(cls, context: JetContext) -> "Jet":
        return cls.constant(context, 0.0)

    @classmethod
    def variable(cls, context: JetContext, var: int) -> "Jet":
        exps = [0] * context.nvars
        exps[var] = 1
        c = np.zeros(context.n_coefficients, dtype=np.complex128)
        c[context.monomial_position(exps)] = 1.0
        return cls(context, c, context.truncation_order)

    @classmethod
    def x_var(cls, context: JetContext, j: int) -> "Jet":
        return cls.variable(context, context.x_index(j))

    @classmethod
    def xi_offset(cls, context: JetContext, alpha: int) -> "Jet":
        return cls.variable(context, context.xi_index(alpha))

    @classmethod
    def xi_component(cls, context: JetContext, alpha: int) -> "Jet":
        """The covector component xi_alpha = xi0_alpha + offset variable."""
        jet = cls.xi_offset(context, alpha)
        out = jet.coeffs.copy()
        out[0] += context.base_covector[alpha]
        return cls(context, out, context.truncation_order)

    @classmethod
    def from_coefficients(cls, context: JetContext, coefficients, accuracy=None) -> "Jet":
        c = np.zeros(context.n_coefficients, dtype=np.complex128)
        for exps, value in coefficients.items():
            c[context.monomial_position(exps)] = complex(value)
        if accuracy is None:
            accuracy = context.truncation_order
        return cls(context, c, accuracy)

    # -- views ---------------------------------------------------------

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def coefficient(self, exponents) -> complex:
        """The stored coefficient; 0 above the accuracy."""
        pos = self.context.monomial_position(exponents)
        return complex(self.coeffs[pos]) if pos < len(self.coeffs) else 0j

    def coefficients(self, tol: float = 0.0) -> dict[MultiIndex, complex]:
        """Sparse view of the stored coefficients, in graded-lex order."""
        out = {}
        for m, v in zip(self.context.monomials, self.coeffs):
            if abs(v) > tol:
                out[MultiIndex(m)] = complex(v)
        return out

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def max_imag(self) -> float:
        return float(np.max(np.abs(self.coeffs.imag)))

    # -- predicates -----------------------------------------------------

    def allclose(self, other, tol: float = APPROX_TOL) -> bool:
        if not isinstance(other, Jet):
            other = Jet.constant(self.context, other)
        _check_context(self, other)
        n = min(len(self.coeffs), len(other.coeffs))
        return bool(np.all(np.abs(self.coeffs[:n] - other.coeffs[:n]) <= tol))

    def is_zero(self, tol: float = APPROX_TOL) -> bool:
        return self.allclose(0.0, tol)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            out = self.coeffs.copy()
            out[0] += complex(other)
            return Jet(self.context, out, self.accuracy)
        _check_context(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            n = min(len(a), len(b))
            a, b = a[:n], b[:n]
        return Jet(self.context, a + b, min(self.accuracy, other.accuracy))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.context, -self.coeffs, self.accuracy)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -complex(other))

    def __rsub__(self, other):
        return (-self) + complex(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.context, self.coeffs * complex(other), self.accuracy)
        _check_context(self, other)
        ctx = self.context
        acc = min(self.accuracy, other.accuracy)
        n, left, right, starts, w1, w2 = _product_plan(ctx, acc)
        a, b = self.coeffs, other.coeffs
        # products are mostly small, so the fixed cost of each numpy call
        # counts: the array methods skip the np.take wrapper
        if not np.count_nonzero(a[1:n]):
            out = a[0] * b[:n]
        elif not np.count_nonzero(b[1:n]):
            out = a[:n] * b[0]
        else:
            # indices are in range; "wrap" skips the buffered bounds check
            a.take(left, out=w1, mode="wrap")
            b.take(right, out=w2, mode="wrap")
            np.multiply(w1, w2, out=w1)
            out = np.add.reduceat(w1, starts)
        return Jet(ctx, out, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / complex(other))
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * complex(other)

    def conjugate(self) -> "Jet":
        return Jet(self.context, np.conj(self.coeffs), self.accuracy)

    def real_part(self) -> "Jet":
        return Jet(self.context, self.coeffs.real.astype(np.complex128), self.accuracy)

    def with_accuracy(self, accuracy: int) -> "Jet":
        """Copy trusted to ``accuracy``.

        Lowering the accuracy drops coefficients; raising it extends with
        zeros.
        """
        coeffs = self.coeffs
        if accuracy > self.accuracy:
            size = self.context.sizes[min(accuracy, self.context.truncation_order)]
            coeffs = np.concatenate(
                (coeffs, np.zeros(size - len(coeffs), dtype=np.complex128)))
        return Jet(self.context, coeffs, accuracy)

    # -- calculus ---------------------------------------------------------

    def partial(self, var: int) -> "Jet":
        if self.accuracy < 1:
            raise AccuracyExhausted("derivative exceeds trusted degree")
        ctx, c = self.context, self.coeffs
        src, dst, fac = ctx.diff_table(var)
        # src is sorted, so the stored sources are a prefix of the table
        k = np.searchsorted(src, len(c))
        out = np.zeros(ctx.sizes[self.accuracy - 1], dtype=np.complex128)
        out[dst[:k]] = c[src[:k]] * fac[:k]
        return Jet(ctx, out, self.accuracy - 1)

    def dx(self, j: int) -> "Jet":
        return self.partial(self.context.x_index(j))

    def dxi(self, alpha: int) -> "Jet":
        return self.partial(self.context.xi_index(alpha))

    def dn(self) -> "Jet":
        return self.dx(self.context.normal_index)

    def evaluate(self, x=None, xi_offset=None) -> complex:
        ctx = self.context
        point = np.zeros(ctx.nvars, dtype=np.complex128)
        if x is not None:
            point[: ctx.dimension] = np.asarray(x, dtype=np.complex128)
        if xi_offset is not None:
            point[ctx.dimension:] = np.asarray(xi_offset, dtype=np.complex128)
        exps = ctx._exps[:len(self.coeffs)]
        vals = np.prod(np.power(point[None, :], exps), axis=1)
        return complex(np.dot(self.coeffs, vals))

    def at_boundary(self) -> "Jet":
        """Restrict to x_n = 0 (drop every monomial with normal content)."""
        ctx, c = self.context, self.coeffs
        mask = ctx._exps[:len(c), ctx.normal_index] == 0
        return Jet(ctx, np.where(mask, c, 0.0), self.accuracy)

    def xi_free_part(self) -> "Jet":
        """Part of the jet with no cotangent-offset content."""
        ctx, c = self.context, self.coeffs
        mask = ctx._exps[:len(c), ctx.dimension:].sum(axis=1) == 0
        return Jet(ctx, np.where(mask, c, 0.0), self.accuracy)

    def x_degree_cap(self, bound: int) -> "Jet":
        """Zero every monomial whose x-degree exceeds ``bound``.

        Spatial trust is sometimes narrower than the total-degree
        accuracy; this cap expresses it without touching the cotangent
        structure.
        """
        ctx, c = self.context, self.coeffs
        mask = ctx._exps[:len(c), : ctx.dimension].sum(axis=1) <= bound
        return Jet(ctx, np.where(mask, c, 0.0), self.accuracy)

    def substitute_xi(self, values) -> "Jet":
        """Evaluate the cotangent offsets at numeric values, keep x symbolic."""
        ctx = self.context
        values = np.asarray(values, dtype=np.complex128)
        if len(values) != ctx.dimension - 1:
            raise ValueError("need one value per cotangent offset variable")
        out = np.zeros_like(self.coeffs)
        n = ctx.dimension
        for m, v in zip(ctx.monomials, self.coeffs):
            if v == 0:
                continue
            factor = 1.0 + 0.0j
            for alpha in range(n - 1):
                e = m[n + alpha]
                if e:
                    factor *= values[alpha] ** e
            reduced = m[:n] + (0,) * (n - 1)
            out[ctx._index[reduced]] += v * factor
        return Jet(ctx, out, self.accuracy)

    def depends_on_xi(self, tol: float = ZERO_COEFF_TOL) -> bool:
        ctx, c = self.context, self.coeffs
        xi_mask = ctx._exps[:len(c), ctx.dimension:].sum(axis=1) > 0
        return bool(np.any(np.abs(np.where(xi_mask, c, 0.0)) > tol))

    def __repr__(self):
        terms = []
        for m, v in list(self.coefficients(tol=ZERO_COEFF_TOL).items())[:6]:
            terms.append(f"{v:.3g}*{tuple(m)}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet({body}, accuracy={self.accuracy})"


def reciprocal(a: Jet) -> Jet:
    """Taylor inverse; requires a nonvanishing constant term."""
    c0 = a.constant_term
    if abs(c0) <= APPROX_TOL:
        raise NotInvertible("jet not invertible: constant term vanishes")
    x = Jet.constant(a.context, 1.0 / c0).with_accuracy(a.accuracy)
    steps = max(1, math.ceil(math.log2(a.context.truncation_order + 1)))
    for _ in range(steps):
        x = x * (2.0 - a * x)
    return x.with_accuracy(a.accuracy)


def sqrt(a: Jet) -> Jet:
    """Principal square root; the constant term must be real and positive."""
    c0 = a.constant_term
    if abs(c0.imag) > APPROX_TOL:
        raise NotInvertible("jet square root requires a real constant term")
    if c0.real <= APPROX_TOL:
        raise NotInvertible("jet square root requires a positive constant term")
    z = Jet.constant(a.context, 1.0 / math.sqrt(c0.real)).with_accuracy(a.accuracy)
    steps = max(1, math.ceil(math.log2(a.context.truncation_order + 1)))
    for _ in range(steps):
        z = z * (3.0 - a * z * z) * 0.5
    return (a * z).with_accuracy(a.accuracy)


class JetMatrix:
    """Rectangular matrix of jets sharing one context."""

    __slots__ = ("context", "rows", "cols", "entries")

    def __init__(self, context: JetContext, entries):
        self.context = context
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("matrix rows must have equal length")
            for e in row:
                if e.context is not context and not e.context.compatible_with(context):
                    raise ContextMismatch("matrix entries on incompatible contexts")

    @classmethod
    def zeros(cls, context: JetContext, rows: int, cols: int) -> "JetMatrix":
        return cls(context, [[Jet.zero(context) for _ in range(cols)]
                             for _ in range(rows)])

    @classmethod
    def identity(cls, context: JetContext, size: int) -> "JetMatrix":
        m = cls.zeros(context, size, size)
        for i in range(size):
            m.entries[i][i] = Jet.constant(context, 1.0)
        return m

    @classmethod
    def diagonal(cls, context: JetContext, diag) -> "JetMatrix":
        diag = list(diag)
        m = cls.zeros(context, len(diag), len(diag))
        for i, d in enumerate(diag):
            m.entries[i][i] = d if isinstance(d, Jet) else Jet.constant(context, d)
        return m

    @classmethod
    def column(cls, context: JetContext, jets) -> "JetMatrix":
        return cls(context, [[j] for j in jets])

    def __getitem__(self, key) -> Jet:
        i, j = key
        return self.entries[i][j]

    @property
    def accuracy(self) -> int:
        return min(e.accuracy for row in self.entries for e in row)

    def map(self, fn) -> "JetMatrix":
        return JetMatrix(self.context,
                         [[fn(e) for e in row] for row in self.entries])

    def __add__(self, other: "JetMatrix") -> "JetMatrix":
        return JetMatrix(self.context,
                         [[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "JetMatrix") -> "JetMatrix":
        return JetMatrix(self.context,
                         [[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "JetMatrix":
        return self.map(lambda e: -e)

    def __mul__(self, factor) -> "JetMatrix":
        return self.map(lambda e: e * factor)

    __rmul__ = __mul__

    def __matmul__(self, other: "JetMatrix") -> "JetMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shapes do not align")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return JetMatrix(self.context, out)

    def conjugate_transpose(self) -> "JetMatrix":
        return JetMatrix(self.context,
                         [[self.entries[i][j].conjugate() for i in range(self.rows)]
                          for j in range(self.cols)])

    def partial(self, var: int) -> "JetMatrix":
        return self.map(lambda e: e.partial(var))

    def dx(self, j: int) -> "JetMatrix":
        return self.map(lambda e: e.dx(j))

    def dxi(self, alpha: int) -> "JetMatrix":
        return self.map(lambda e: e.dxi(alpha))

    def at_boundary(self) -> "JetMatrix":
        return self.map(lambda e: e.at_boundary())

    def constant_matrix(self) -> np.ndarray:
        return np.array([[e.constant_term for e in row] for row in self.entries])

    def max_abs(self) -> float:
        return max(e.max_abs() for row in self.entries for e in row)

    def max_imag(self) -> float:
        return max(e.max_imag() for row in self.entries for e in row)

    def allclose(self, other: "JetMatrix", tol: float = APPROX_TOL) -> bool:
        return all(a.allclose(b, tol)
                   for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def is_zero(self, tol: float = APPROX_TOL) -> bool:
        return all(e.is_zero(tol) for row in self.entries for e in row)

    def __repr__(self):
        return f"JetMatrix({self.rows}x{self.cols}, accuracy={self.accuracy})"


def mat_inverse(matrix: JetMatrix) -> JetMatrix:
    """Invert a square jet matrix by Newton iteration on the constant inverse.

    The constant-term matrix must be numerically invertible; a condition
    number above 1e8 triggers a warning diagnostic.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("only square matrices can be inverted")
    ctx = matrix.context
    m0 = matrix.constant_matrix()
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
    x = JetMatrix(ctx, [[Jet.constant(ctx, inv0[i][j]).with_accuracy(matrix.accuracy)
                         for j in range(matrix.cols)] for i in range(matrix.rows)])
    two_i = JetMatrix.identity(ctx, matrix.rows) * 2.0
    steps = max(1, math.ceil(math.log2(ctx.truncation_order + 1)))
    for _ in range(steps):
        x = x @ (two_i - matrix @ x)
    residual = (matrix @ x - JetMatrix.identity(ctx, matrix.rows)).max_abs()
    if residual > max(1e-10, cond * 1e-15):
        raise NotInvertible(f"matrix inversion residual {residual:.3g} too large")
    return x
