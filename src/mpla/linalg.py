"""Exact linear algebra over the rationals.

``Matrix`` is the sparse container every public function takes and
returns: each row is a ``{column: Fraction}`` dict of its nonzero
entries, and nothing else is stored.  Every operation reads stored
entries only, so its cost follows the nonzeros, not rows x cols.
``Matrix.entries`` is a dense view, built afresh on each access, for
callers that want rows of Fractions; writing into it changes nothing.

A matrix may also hold an *integer form*: a positive integer D and one
``{row: int}`` dict per column, the nonzero entries of D times the
matrix.  The coboundary stencils (``stencil.ce_stencil``) and the
bracket kernel (``bracket.minus_bracket``) build their matrices in that
form (``Matrix.from_integer_columns``), and so does ``Matrix.mul``;
such a matrix builds its public rows (``data``, ``entries``) on their
first read, one Fraction per stored entry, and never before.  ``rank``,
``kernel_basis``, ``Matrix.mul`` and the delta o delta = 0 check of
``cohomology_dims`` read the integer form; for any other matrix
``_scaled_rows`` derives it from the rows, scaled by the least common
denominator of their entries, and is the one place that does.

Products are taken in integers: one kernel (``_product_rows``)
multiplies the integer columns, and the product keeps D_a * D_b and its
integer columns; the delta o delta = 0 check runs the same kernel and
builds no Fraction.

One sparse elimination kernel serves ``rank``, ``kernel_basis``,
``solve`` and ``invert``.  Each nonzero row becomes a sparse integer
row: denominators are cleared and the row is divided by its content.
Elimination is fraction-free.  Pivot columns are taken in column
order; among the rows that lead in a column, the shortest is the
pivot, which keeps fill-in small.  A row is divided by its content
once, when it becomes a pivot (and, when vectors are needed, once more
after its back-substitution), not after every elimination step: a step
multiplies the row by at most one pivot entry, so its entries grow by
at most that entry's bits per step.  The rows in between are positive
multiples of the rows that dividing at every step would give, with the
same lengths, so the same pivots are chosen.  Which pivot rows are
chosen never moves the pivot columns: those of any echelon form are
the pivot columns of the reduced row echelon form.  So ranks and the
cleared sets below do not depend on the pivot rule either.  When
vectors are needed, back-substitution yields the reduced row echelon
form.  That form is unique, so kernel bases, solutions and inverses do
not depend on the pivot rows chosen.

``cohomology_dims`` checks every composite of two consecutive
differentials as a sparse product and ranks each differential once,
with clearing.  The columns of delta_{d-1} are eliminated as rows; the
pivot coordinates J_{d-1} they lead in form a set onto which
im delta_{d-1} projects isomorphically.  So every x in C^d is an element
of im delta_{d-1} plus a vector that vanishes on J_{d-1}, and since
delta_d * delta_{d-1} = 0, delta_d kills the first part: rank delta_d is
the rank of its columns outside J_{d-1}.  Of those columns exactly
dim H^d reduce to zero.  The same columns serve the next check: the
columns of delta_{d-1} outside J_{d-2} lie in im delta_{d-1} and have
its rank, so they span it, and delta_d * delta_{d-1} = 0 exactly when
delta_d kills them.  The coboundary matrices are sparse in the
catalog bases, but not in a generic one: delta_2 of a random conjugate
of the 4+4 pair has about 9300 of its 73216 entries nonzero; clearing
keeps 147 of its 176 columns, and 7 of them reduce to zero instead of 36.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionMismatch, InputError, NotAComplex

# The value read for an entry that is not stored.
_ZERO = Fraction(0)


def _sparse_row(row) -> dict:
    """{column: Fraction} of the nonzero entries of a dense row."""
    out = {}
    for j, x in enumerate(row):
        if type(x) is not Fraction:
            x = Fraction(x)
        if x:
            out[j] = x
    return out


class Matrix:
    """Immutable-by-convention sparse matrix of Fractions.

    ``data[i]`` is the {column: Fraction} dict of the nonzero entries of
    row i.  ``Matrix(rows, cols, entries)`` reads dense rows.  A matrix
    built in integer form (``from_integer_columns``) builds ``data`` on
    its first read.
    """

    __slots__ = ("rows", "cols", "_data", "_scale", "_columns")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self._scale = self._columns = None
        if entries is None:
            self._data = [{} for _ in range(rows)]
            return
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionMismatch(f"entries do not fill a {rows}x{cols} matrix")
        self._data = [_sparse_row(r) for r in entries]

    @classmethod
    def from_sparse(cls, rows: int, cols: int, data) -> "Matrix":
        """The matrix whose row i holds data[i], a {column: Fraction} dict of
        nonzero entries; the dicts are taken over, not copied or checked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, data
        m._scale = m._columns = None
        return m

    @classmethod
    def from_integer_columns(cls, rows: int, cols: int, scale: int, columns) -> "Matrix":
        """The matrix whose column j is columns[j] / scale, columns[j] being a
        {row: int} dict of nonzero entries and scale a positive int; the
        dicts are taken over, not copied or checked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, None
        m._scale, m._columns = scale, columns
        return m

    @property
    def data(self) -> list[dict]:
        """One {column: Fraction} dict per row; a matrix in integer form
        builds them on the first read and keeps them."""
        if self._data is None:
            data = [{} for _ in range(self.rows)]
            scale = self._scale
            for j, column in enumerate(self._columns):
                for i, x in column.items():
                    data[i][j] = Fraction(x, scale)
            self._data = data
        return self._data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_sparse(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        return cls(len(rows), n_cols, rows)

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            return cls(0, 0)
        n_rows = len(cols[0])
        return cls(n_rows, len(cols), [[c[i] for c in cols] for i in range(n_rows)])

    @property
    def entries(self) -> list[list[Fraction]]:
        """Dense rows of Fractions, built on each access."""
        cols = range(self.cols)
        return [[row.get(j, _ZERO) for j in cols] for row in self.data]

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i].get(j, _ZERO)

    def column(self, j: int):
        return [row.get(j, _ZERO) for row in self.data]

    def transpose(self) -> "Matrix":
        return Matrix.from_sparse(self.cols, self.rows, _transposed(self.data, self.cols))

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        scale_a, a_cols = _scaled_columns(self)
        scale_b, b_cols = _scaled_columns(other)
        out = [{i: x for i, x in acc.items() if x} for acc in _product_rows(b_cols, a_cols)]
        return Matrix.from_integer_columns(self.rows, other.cols, scale_a * scale_b, out)

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for row in self.data:
            total = _ZERO
            for j, a in row.items():
                x = v[j]
                if x:
                    total += a * x
            out.append(total)
        return out

    def is_zero(self) -> bool:
        if self._columns is not None:
            return not any(self._columns)
        return not any(self._data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


# -- the elimination kernel --------------------------------------------------


def _integer_row(row: dict) -> dict:
    """{column: int} proportional to a sparse rational row, by its least
    common denominator."""
    if not row:
        return {}
    scale = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items()}


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by its content."""
    content = gcd(*row.values())
    if content > 1:
        return {j: v // content for j, v in row.items()}
    return row


def _eliminate(row: dict, pivot_row: dict, c: int) -> dict:
    """The integer row a*row - b*pivot_row, with a > 0 and b chosen so that
    column c cancels; it is not divided by its content.

    Each call multiplies row by at most |pivot_row[c]|, so with primitive
    pivot rows an entry grows by at most the bits of one pivot entry per
    step.
    """
    a, b = pivot_row[c], row[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        # the negated combination cancels column c as well; a unit pivot
        # then leaves row unscaled
        a, b = -a, -b
    out = {j: a * v for j, v in row.items()} if a != 1 else dict(row)
    get = out.get
    for j, v in pivot_row.items():
        total = get(j, 0) - b * v
        if total:
            out[j] = total
        else:
            del out[j]
    return out


def _echelon(rows, reduce: bool = False) -> list[tuple[int, dict]]:
    """(pivot column, primitive integer row) pairs of a row echelon form,
    in column order.

    ``rows`` are sparse integer rows ({column: int} dicts of nonzero
    entries); they are read, not changed.  Each is divided by its content
    on entry.  Among the rows that lead in column c the shortest is the
    pivot, and only then is it divided by its content (see the module
    docstring).  With ``reduce`` the rows are back-substituted: each then
    holds its pivot and free columns only, is divided by its content once
    more, and dividing it by its pivot entry gives the reduced row echelon
    form.
    """
    by_lead = {}
    for row in rows:
        if row:
            row = _primitive(row)
            by_lead.setdefault(min(row), []).append(row)
    heap = list(by_lead)
    heapify(heap)
    pivots = []
    while heap:
        c = heappop(heap)
        bucket = by_lead.pop(c)
        shortest = min(bucket, key=len)
        pivot_row = _primitive(shortest)
        pivots.append((c, pivot_row))
        for row in bucket:
            if row is shortest:
                continue
            row = _eliminate(row, pivot_row, c)
            if row:
                lead = min(row)
                if lead in by_lead:
                    by_lead[lead].append(row)
                else:
                    by_lead[lead] = [row]
                    heappush(heap, lead)
    if reduce:
        reduced = {}
        for c, row in reversed(pivots):
            above = [j for j in row if j in reduced]
            if above:
                for cj in above:
                    row = _eliminate(row, reduced[cj], cj)
                row = _primitive(row)
            reduced[c] = row
        pivots = [(c, reduced[c]) for c, _ in pivots]
    return pivots


def _rref(rows) -> list[tuple[int, dict]]:
    """(pivot column, {column: Fraction}) rows of the reduced row echelon
    form of sparse integer rows."""
    out = []
    for c, row in _echelon(rows, reduce=True):
        lead = row[c]
        out.append((c, {j: Fraction(v, lead) for j, v in row.items()}))
    return out


def rank(m: Matrix, clear=None, pivots=None) -> int:
    """Rank over the rationals, read from the integer form of m.

    Called with m alone, eliminates the rows of m or of its transpose,
    whichever are fewer: fewer rows means fewer rows to reduce to zero,
    and on dense, tall matrices less fill-in.

    With ``clear``, a set of column indices, returns the rank of the
    columns of m not in ``clear``, found by eliminating those columns as
    rows.  ``pivots``, a set, then receives the pivot coordinates (row
    indices of m) of that elimination.
    """
    if clear is None:
        _, lines = _scaled_rows(m) if m.rows <= m.cols else _scaled_columns(m)
        return len(_echelon(lines))
    _, columns = _scaled_columns(m)
    echelon = _echelon(col for j, col in enumerate(columns) if j not in clear)
    if pivots is not None:
        pivots.update(c for c, _ in echelon)
    return len(echelon)


def kernel_dim(m: Matrix) -> int:
    return m.cols - rank(m)


def _transposed(lines, n: int) -> list[dict]:
    """The n {index: value} dicts of the transpose of sparse lines."""
    out = [{} for _ in range(n)]
    for i, line in enumerate(lines):
        for j, x in line.items():
            out[j][i] = x
    return out


def _scaled_rows(m: Matrix) -> tuple[int, list]:
    """(c, rows): a positive integer c with c*m integral, and each row of
    c*m as a {column: int} dict of its nonzero entries.

    A matrix in integer form gives its own c and the transpose of its
    columns; for any other matrix c is the least common denominator of
    its entries, derived here and nowhere else.
    """
    if m._columns is not None:
        return m._scale, _transposed(m._columns, m.rows)
    scale = lcm(*(x.denominator for row in m.data for x in row.values()))
    return scale, [{j: x.numerator * (scale // x.denominator) for j, x in row.items()}
                   for row in m.data]


def _scaled_columns(m: Matrix) -> tuple[int, list]:
    """(c, columns): the integer form of m, each column of c*m as a
    {row: int} dict; a matrix in integer form gives its own."""
    if m._columns is not None:
        return m._scale, m._columns
    scale, rows = _scaled_rows(m)
    return scale, _transposed(rows, m.cols)


def _product_rows(a_rows, b_rows):
    """Each row of a * b as a {column: int} dict, zero sums included, for
    a and b given as their rows' nonzero integer entries ({column: int}
    dicts); given the columns of b and of a, it yields the columns of a * b."""
    for row in a_rows:
        acc = {}
        for k, x in row.items():
            for j, y in b_rows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        yield acc


def _product_is_zero(a_rows, b_rows) -> bool:
    """a * b == 0, for a and b given as their rows' nonzero integer entries."""
    return not any(any(acc.values()) for acc in _product_rows(a_rows, b_rows))


def require_degree(value: int, field: str = "degree") -> None:
    """Raise InputError naming ``field`` unless the degree ``value`` is >= 0."""
    if value < 0:
        raise InputError(f"{field} must be nonnegative, got {value}", field=field)


def cohomology_dims(delta, max_degree: int) -> list[int]:
    """dim H^0 .. dim H^max_degree of the complex with differentials delta(d).

    ``delta(d)`` is the matrix C^d -> C^{d+1}; H^d = dim ker delta(d) -
    rank delta(d - 1).  Each differential is ranked once, after
    delta(d) * delta(d - 1) = 0 has been checked, and its rank is taken
    with the pivot coordinates of delta(d - 1) cleared (see the module
    docstring).  The check multiplies delta(d) by the columns of
    delta(d - 1) that were kept when it was ranked: they span
    im delta(d - 1), so the check is exact.  Both read the integer form
    of each matrix, so the stencil-built coboundaries are ranked without
    building a Fraction.  Raises InputError on a negative degree,
    DimensionMismatch if the shapes do not chain and NotAComplex if some
    delta(d) * delta(d - 1) != 0.
    """
    require_degree(max_degree, "max_degree")
    dims = []
    prev_kept, prev_rows, prev_rank, prev_pivots = None, 0, 0, set()
    for d in range(max_degree + 1):
        m = delta(d)
        _, columns = _scaled_columns(m)
        if prev_kept is not None:
            if m.cols != prev_rows:
                raise DimensionMismatch(
                    f"d_out has {m.cols} columns but d_in has {prev_rows} rows"
                )
            # delta(d) applied to the kept columns of delta(d - 1)
            if not _product_is_zero(prev_kept, columns):
                raise NotAComplex("d_out * d_in != 0")
        pivots = set()
        r = rank(m, prev_pivots, pivots)
        dims.append(m.cols - r - prev_rank)
        prev_kept = [col for j, col in enumerate(columns) if j not in prev_pivots]
        prev_rows, prev_rank, prev_pivots = m.rows, r, pivots
    return dims


def cohomology_dim(d_out: Matrix, d_in: Matrix) -> int:
    """dim ker(d_out) - rank(d_in), for two consecutive coboundaries.

    Raises DimensionMismatch if the shapes do not chain and NotAComplex
    if d_out * d_in != 0.
    """
    return cohomology_dims((d_in, d_out).__getitem__, 1)[1]


def kernel_basis(m: Matrix) -> list[list[Fraction]]:
    """A basis of the null space, one vector per free column.

    The vector of free column f has 1 at f, minus the reduced row echelon
    entries of column f at the pivot columns, and 0 elsewhere.
    """
    pivots = _rref(_scaled_rows(m)[1])
    pivot_cols = {c for c, _ in pivots}
    free = [j for j in range(m.cols) if j not in pivot_cols]
    slot = {j: t for t, j in enumerate(free)}
    basis = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        basis.append(v)
    for c, row in pivots:
        for j, x in row.items():
            if j != c:
                basis[slot[j]][c] = -x
    return basis


def solve(m: Matrix, b) -> list[Fraction] | None:
    """Some exact solution of m x = b, or None if the system is inconsistent."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match row count")
    n = m.cols
    rows = []
    for row, bi in zip(m.data, b):
        bi = Fraction(bi)
        rows.append({**row, n: bi} if bi else row)
    pivots = _rref(map(_integer_row, rows))
    x = [Fraction(0)] * n
    for c, row in pivots:
        if c == n:
            return None
        x[c] = row.get(n, _ZERO)
    return x


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises DimensionMismatch if not square or singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    n = m.rows
    pivots = _rref(_integer_row({**row, n + i: 1}) for i, row in enumerate(m.data))
    if [c for c, _ in pivots[:n]] != list(range(n)):
        raise DimensionMismatch("matrix is singular")
    return Matrix.from_sparse(n, n, [{j - n: x for j, x in row.items() if j >= n}
                                     for _, row in pivots])
