"""Dense order-d multilinear forms over F_p^n.

A :class:`Tensor` is identified with its coefficient array: a flat,
row-major tuple of n^d residues indexed by (i_1, ..., i_d).  All slots
share one dimension n.  Order 0 (scalars) is allowed as the constant
component of a multi-component form; order 1 is an ordinary linear form.
Tensors are immutable and all operations are pure.  A sub-tensor is a
selection of cells, one sorted coordinate tuple per slot, and every code
that places or reads one finds its cells by :func:`block_cells`; :func:`placed`
builds a tensor's coefficients from rows on blocks.

The module also defines :class:`MultiComponentForm` (a sum of tensors on
slot subsets, one component per subset of [d]) and the canonical
line-oriented text format used by the command line tools.

Coefficients are validated at the boundaries only: the public
``Tensor(...)`` constructor, :func:`from_entries` and :func:`parse_tensor`
reject a non-residue, a non-int and a wrong length.  Results computed from
residues (``+``, :func:`restrict`, :func:`random_tensor`,
:func:`all_tensors`, and the slices and terms the rank code builds) are
made by the internal :meth:`Tensor._trusted`, which skips that check.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, product
from operator import add, itemgetter, mul
from typing import Iterable, Mapping, Sequence

from . import bias  # the package imports bias, which imports this module, first
from .gf import PrimeField, Vector, matrix_rank
from .rng import SplitMix64


# Largest coefficient array the text format and the command line accept: far
# above every shape whose bias or rank is computable, far below what
# exhausts memory.
MAX_DENSE_CELLS = 1 << 20

# Largest number of tensors all_tensors enumerates.
MAX_UNIVERSE = 1 << 20


class TensorFormatError(ValueError):
    """Malformed tensor text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_dims(dim: int, order: int):
    if dim < 0 or order < 0:
        raise ValueError("dimension and order must be nonnegative")


class Tensor:
    """Order-d multilinear form on (F_p^n)^d, stored densely."""

    __slots__ = ("field", "dim", "order", "coeffs", "_nonzero")

    def __init__(self, field: PrimeField, dim: int, order: int, coeffs: Iterable[int]):
        _check_dims(dim, order)
        coeffs = tuple(coeffs)
        if len(coeffs) != dim ** order:
            raise ValueError(
                f"expected {dim ** order} coefficients for dim {dim} order {order}, got {len(coeffs)}"
            )
        p = field.p
        for c in coeffs:
            if not isinstance(c, int) or not 0 <= c < p:
                raise ValueError(f"coefficient {c!r} is not a residue mod {p}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_nonzero", None)

    @classmethod
    def _trusted(cls, field: PrimeField, dim: int, order: int,
                 coeffs: tuple[int, ...]) -> "Tensor":
        """A tensor from a tuple of dim^order residues, with no validation.

        For results the package computes from residues; everything from
        outside goes through ``Tensor(...)``.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "field", field)
        object.__setattr__(t, "dim", dim)
        object.__setattr__(t, "order", order)
        object.__setattr__(t, "coeffs", coeffs)
        object.__setattr__(t, "_nonzero", None)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- basics ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.field.p == other.field.p
            and self.dim == other.dim
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.dim, self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Tensor(p={self.field.p}, n={self.dim}, d={self.order}, nnz={len(self.nonzero_entries())})"

    def entry(self, idx: Sequence[int]) -> int:
        if len(idx) != self.order:
            raise ValueError("index arity mismatch")
        flat = 0
        for i in idx:
            if not 0 <= i < self.dim:
                raise ValueError(f"index {idx} out of range for dim {self.dim}")
            flat = flat * self.dim + i
        return self.coeffs[flat]

    def nonzero_entries(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """((index tuple, coefficient), ...) in lexicographic index order."""
        cached = self._nonzero
        if cached is None:
            n, d = self.dim, self.order
            out = []
            if n == 0 and d > 0:
                cached = ()
            else:
                for flat, c in enumerate(self.coeffs):
                    if c:
                        idx = []
                        f = flat
                        for _ in range(d):
                            idx.append(f % n if n else 0)
                            f //= n if n else 1
                        out.append((tuple(reversed(idx)), c))
                cached = tuple(out)
            object.__setattr__(self, "_nonzero", cached)
        return cached

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, vectors: Sequence[Sequence[int]]) -> int:
        """T(x^1, ..., x^d), summing coefficient * product over slots."""
        if len(vectors) != self.order:
            raise ValueError(f"expected {self.order} vectors, got {len(vectors)}")
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError("vector length mismatch")
        p = self.field.p
        total = 0
        for idx, c in self.nonzero_entries():
            term = c
            for slot, i in enumerate(idx):
                term = term * vectors[slot][i] % p
                if term == 0:
                    break
            total += term
        return total % p

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if self.field.p != other.field.p or self.dim != other.dim or self.order != other.order:
            raise ValueError("tensor shape or field mismatch")
        p = self.field.p
        return Tensor._trusted(self.field, self.dim, self.order,
                               tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def zero_tensor(field: PrimeField, dim: int, order: int) -> Tensor:
    return Tensor(field, dim, order, (0,) * (dim ** order))


def from_entries(field: PrimeField, dim: int, order: int,
                 entries: Iterable[tuple[Sequence[int], int]]) -> Tensor:
    """Dense tensor from a sparse entry list; duplicate indices are summed."""
    p = field.p
    coeffs = [0] * (dim ** order)
    for idx, value in entries:
        idx = tuple(idx)
        if len(idx) != order:
            raise ValueError(f"index {idx} has arity {len(idx)}, expected {order}")
        flat = 0
        for i in idx:
            if not 0 <= i < dim:
                raise ValueError(f"index {idx} out of range for dim {dim}")
            flat = flat * dim + i
        coeffs[flat] = (coeffs[flat] + value) % p
    return Tensor(field, dim, order, coeffs)


def diagonal_tensor(field: PrimeField, order: int, diagonal: Sequence[int]) -> Tensor:
    """Sum of c_i * x^1_i * ... * x^d_i with the given coefficient vector."""
    dim = len(diagonal)
    return from_entries(field, dim, order, (((i,) * order, c) for i, c in enumerate(diagonal)))


def identity_tensor(field: PrimeField, dim: int, order: int) -> Tensor:
    return diagonal_tensor(field, order, (1,) * dim)


def random_tensor(field: PrimeField, dim: int, order: int, seed: int) -> Tensor:
    """Coefficients i.i.d. uniform over F_p from SplitMix64(seed)."""
    _check_dims(dim, order)
    gen = SplitMix64(seed)
    return Tensor._trusted(field, dim, order, gen.residues(field.p, dim ** order))


def dense_cells(dim: int, order: int) -> int:
    """dim^order, the coefficients of a shape; ValueError above MAX_DENSE_CELLS.

    An order too large for any dim > 1 is refused before the power is taken.
    """
    if dim > 1 and (order >= MAX_DENSE_CELLS.bit_length() or dim ** order > MAX_DENSE_CELLS):
        raise ValueError(f"{dim}^{order} coefficients exceed the limit of {MAX_DENSE_CELLS}")
    return dim ** order


def universe_size(p: int, dim: int, order: int) -> int:
    """p^(dim^order), the tensors of a shape; ValueError above MAX_UNIVERSE.

    Since p >= 2, more cells than MAX_UNIVERSE has bits is refused before
    the power is taken.
    """
    cells = dense_cells(dim, order)
    if cells >= MAX_UNIVERSE.bit_length() or p ** cells > MAX_UNIVERSE:
        raise ValueError(f"universe of {p}^({dim}^{order}) tensors exceeds the limit "
                         f"of {MAX_UNIVERSE}")
    return p ** cells


def all_tensors(field: PrimeField, dim: int, order: int):
    """Every tensor of the given shape, in lexicographic coefficient order."""
    _check_dims(dim, order)
    universe_size(field.p, dim, order)
    for coeffs in product(field.elements(), repeat=dim ** order):
        yield Tensor._trusted(field, dim, order, coeffs)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------

def direct_sum(a: Tensor, b: Tensor) -> Tensor:
    """Place a and b on disjoint coordinate blocks of F_p^(n_a + n_b); two scalars add."""
    if a.field.p != b.field.p or a.order != b.order:
        raise ValueError("direct sum needs matching field and order")
    n, d, p = a.dim + b.dim, a.order, a.field.p
    blocks = ((tuple(range(a.dim)),) * d, (tuple(range(a.dim, n)),) * d)
    coeffs = placed(n, blocks, (a.coeffs, b.coeffs)) if d else ((a.coeffs[0] + b.coeffs[0]) % p,)
    return Tensor._trusted(a.field, n, d, coeffs)


def restrict(t: Tensor, basis: Sequence[Sequence[int]]) -> Tensor:
    """Restriction to the span of the basis vectors, in their coordinates.

    basis is a sequence of k independent vectors b_0..b_{k-1} in F_p^n;
    the result S has S[j_1..j_d] = T(b_{j_1}, ..., b_{j_d}), so
    S(y^1..y^d) = T(By^1, ..., By^d).
    """
    basis = tuple(tuple(v) for v in basis)
    k = len(basis)
    for v in basis:
        if len(v) != t.dim:
            raise ValueError("basis vector length mismatch")
    if matrix_rank(t.field, basis) != k:
        raise ValueError("basis does not have full column rank")
    return Tensor._trusted(t.field, k, t.order,
                           contracted(t.field.p, t.dim, t.order, t.coeffs, basis))


def contracted(p: int, n: int, d: int, coeffs: Sequence[int], basis: tuple[Vector, ...]):
    """The coefficients of :func:`restrict`'s tensor from t's, after its checks, in their kind
    (a tuple, or bytes); packed at p = 2."""
    kind = type(coeffs)
    if p == 2 and n:  # the XOR of the slices each basis vector selects, slot by slot
        cells = bias._kernel(2, n).restrict(coeffs, d, basis)
        return kind(map(cells.__getitem__, block_cells(n, (tuple(range(len(basis))),) * d)))
    for _ in range(d):  # contract the leading slot with the basis, move it last
        rest = len(coeffs) // max(n, 1)
        columns = zip(*zip(*[iter(coeffs)] * rest))  # column r is coeffs[r::rest]
        coeffs = [sum(map(mul, b, column)) % p for column in columns for b in basis]
    return kind(coeffs)


@lru_cache(maxsize=256)
def block_cells(dim: int, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Where each cell of the sub-tensor on the sorted coordinates blocks[s] in
    slot s sits in an order-len(blocks) tensor on F^dim, in its row-major order."""
    positions = [0]
    for block in blocks:
        positions = [q * dim + i for q in positions for i in block]
    return tuple(positions)


def placed(dim: int, blocks: tuple, rows: Sequence[Sequence[int]]):
    """The coefficients, of the rows' kind, of the tensor on F^dim that is rows[i] on the
    coordinates blocks[i] (as block_cells takes them; no two share a cell) and 0 elsewhere."""
    kind = type(rows[0])
    return kind(_gathered(dim, blocks)(reduce(add, rows) + kind((0,)))[:-2])


@lru_cache(maxsize=256)
def _gathered(dim: int, blocks: tuple) -> itemgetter:
    """The getter of :func:`placed`'s cells from the joined rows and a 0 past them, and then
    of two more, so that it always returns a tuple."""
    cells = chain.from_iterable(block_cells(dim, block) for block in blocks)
    where = {cell: i for i, cell in enumerate(cells)}
    return itemgetter(*[where.get(cell, len(where)) for cell in range(dim ** len(blocks[0]))],
                      len(where), len(where))


def coordinate_basis(n: int, indices: Sequence[int]) -> tuple[Vector, ...]:
    """Unit vectors e_i for i in indices (a coordinate subspace basis)."""
    out = []
    for i in indices:
        if not 0 <= i < n:
            raise ValueError(f"coordinate {i} out of range")
        out.append(tuple(1 if j == i else 0 for j in range(n)))
    return tuple(out)


def shift_terms(t: Tensor, xs: Sequence[Sequence[int]],
                ys: Sequence[Sequence[int]]) -> dict[frozenset[int], int]:
    """The 2^d summands of T(x + y), keyed by the slot subset fed from x.

    Term I evaluates T with x^i in slots i in I and y^i elsewhere; the
    terms sum to T(x^1 + y^1, ..., x^d + y^d).
    """
    d = t.order
    if len(xs) != d or len(ys) != d:
        raise ValueError(f"expected {d} vectors on each side")
    out = {}
    for bits in range(1 << d):
        subset = frozenset(i for i in range(d) if bits >> i & 1)
        mixed = [xs[i] if i in subset else ys[i] for i in range(d)]
        out[subset] = t.evaluate(mixed)
    return out


# ---------------------------------------------------------------------------
# Sums of tensors on slot subsets
# ---------------------------------------------------------------------------

class MultiComponentForm:
    """A function R(x) = sum over I of R_I(x^I), one tensor per slot subset.

    Components live on subsets of the d slots; the component on I is an
    order-|I| tensor evaluated on the slots of I in increasing order.
    Missing components are zero.  The empty-set component is an order-0
    tensor, i.e. an additive constant.
    """

    __slots__ = ("field", "dim", "order", "components")

    def __init__(self, field: PrimeField, dim: int, order: int,
                 components: Mapping[frozenset[int], Tensor]):
        comps = {}
        for subset, tensor in components.items():
            subset = frozenset(subset)
            if not subset <= set(range(order)):
                raise ValueError(f"component subset {sorted(subset)} out of range")
            if tensor.order != len(subset):
                raise ValueError("component order must equal subset size")
            if tensor.field.p != field.p or tensor.dim != dim:
                raise ValueError("component field or dimension mismatch")
            if not tensor.is_zero():
                comps[subset] = tensor
        self.field = field
        self.dim = dim
        self.order = order
        self.components = comps

    def top(self) -> Tensor:
        """The component on all d slots (the full multilinear part)."""
        return self.components.get(frozenset(range(self.order)),
                                   zero_tensor(self.field, self.dim, self.order))

    def evaluate(self, vectors: Sequence[Sequence[int]]) -> int:
        if len(vectors) != self.order:
            raise ValueError(f"expected {self.order} vectors")
        total = 0
        for subset, tensor in self.components.items():
            total += tensor.evaluate([vectors[i] for i in sorted(subset)])
        return total % self.field.p


def random_multiform(field: PrimeField, dim: int, order: int, seed: int) -> MultiComponentForm:
    """One uniformly random tensor per slot subset, derived from one seed."""
    gen = SplitMix64(seed)
    comps = {}
    for bits in range(1 << order):
        subset = frozenset(i for i in range(order) if bits >> i & 1)
        sub_seed = gen.next_u64()
        comps[subset] = random_tensor(field, dim, len(subset), sub_seed)
    return MultiComponentForm(field, dim, order, comps)


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

def serialize_tensor(t: Tensor) -> str:
    """Canonical text: header `p n d`, then nonzero entries in lex order."""
    if t.order < 1:
        raise ValueError("text format requires order >= 1")
    lines = [f"{t.field.p} {t.dim} {t.order}"]
    for idx, c in t.nonzero_entries():
        lines.append(" ".join(str(i) for i in idx) + f" {c}")
    return "\n".join(lines) + "\n"


def parse_tensor(text: str) -> Tensor:
    """Parse the canonical format; `#` starts a comment, blank lines ignored.

    Each entry is checked once; duplicate indices are summed mod p.
    """
    field = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise TensorFormatError(lineno, f"non-integer token in {line!r}")
        if field is None:
            if len(values) != 3:
                raise TensorFormatError(lineno, "header must be `p n d`")
            p, dim, order = values
            if order < 1:
                raise TensorFormatError(lineno, "order must be >= 1")
            if dim < 0:
                raise TensorFormatError(lineno, "dimension must be >= 0")
            try:
                cells = dense_cells(dim, order)
                field = PrimeField(p)
            except ValueError as exc:
                raise TensorFormatError(lineno, str(exc))
            coeffs = [0] * cells
            continue
        if len(values) != order + 1:
            raise TensorFormatError(lineno, f"expected {order} indices and a value")
        value = values.pop()
        flat = 0
        for i in values:
            if not 0 <= i < dim:
                raise TensorFormatError(lineno, f"index {tuple(values)} out of range for dim {dim}")
            flat = flat * dim + i
        if not 0 <= value < p:
            raise TensorFormatError(lineno, f"value {value} is not a residue mod {p}")
        coeffs[flat] = (coeffs[flat] + value) % p
    if field is None:
        raise TensorFormatError(1, "missing header line `p n d`")
    return Tensor._trusted(field, dim, order, tuple(coeffs))
