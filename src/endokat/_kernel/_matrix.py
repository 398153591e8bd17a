"""The packed matrix over F_p that the F_p primitives and ``fp`` share: a
row is one int with one slot per entry, entry 0 most significant, as in the
MeatAxe and M4RI.  The slot is one byte for p <= 13, where a reduced slot
plus a term (p - 1)^2 stays below 256 and ``bytes.translate`` reduces a row;
else 64 bits while p < 2**20 (wider beyond), room for 2**24 such terms,
reduced slot by slot.  Every row of a :class:`Matrix` is reduced."""

import functools
from itertools import chain, compress
from operator import mul, xor


@functools.cache
def layout(p):
    """(bits per slot, mod-p table of a byte slot or None) for rows over F_p."""
    if p <= 13:
        return 8, bytes(x % p for x in range(256))
    return 64 * ((2 * p.bit_length() + 23) // 64 + 1), None


def slot_bits(p):
    return layout(p)[0]


def unpack(p, rows, n):
    """For each packed row of n slots, its entries, entry 0 first."""
    bits, table = layout(p)
    if table is not None:
        return [x.to_bytes(n, "big") for x in rows]
    return cut(rows, n, bits)


def join(p, values):
    """The packed row of slot values below 2**bits, entry 0 first."""
    bits, table = layout(p)
    if table is not None:
        return int.from_bytes(bytes(values), "big")
    return int.from_bytes(b"".join([v.to_bytes(bits // 8, "big") for v in values]), "big")


def reduce(p, x, n):
    """Every slot of the packed row x of n slots reduced mod p."""
    table = layout(p)[1]
    if table is not None:
        return int.from_bytes(x.to_bytes(n, "big").translate(table), "big")
    return join(p, [v % p for v in unpack(p, [x], n)[0]])


def combine(p, coeffs, rows, n):
    """For each coefficient row c of ``coeffs`` (entries in [0, p)), sum_k c[k]
    rows[k] over packed rows of n slots, reduced; for p = 2 the XOR of chosen
    rows.  A term adds at most (p - 1)^2 to a slot, so sums reduce every
    (2**bits - p) // (p - 1)^2 terms."""
    if p == 2:
        return [functools.reduce(xor, compress(rows, c), 0) for c in coeffs]
    step = ((1 << slot_bits(p)) - p) // (p - 1) ** 2
    out = []
    for c in coeffs:
        acc = 0
        for i in range(0, len(rows), step):
            acc = reduce(p, acc + sum(map(mul, c[i : i + step], rows[i : i + step])), n)
        out.append(acc)
    return out


def fuse(fields, widths):
    """For each i, the int of the fields fields[0][i], fields[1][i], ... of the
    given bit widths, most significant first; a long list is halved first."""
    if len(fields) > 16:
        half = len(fields) // 2
        shift = sum(widths[half:])
        return [x << shift | y for x, y in zip(fuse(fields[:half], widths[:half]), fuse(fields[half:], widths[half:]))]
    out = []
    for parts in zip(*fields):
        x = 0
        for y, width in zip(parts, widths):
            x = x << width | y
        out.append(x)
    return out


def cut(xs, count, width):
    """For each x of xs, its count fields of ``width`` bits, most significant
    first, the inverse of :func:`fuse`."""
    if count > 16:
        low, high = (count - count // 2) * width, count // 2
        tops, bottoms = cut([x >> low for x in xs], high, width), cut([x & (1 << low) - 1 for x in xs], count - high, width)
        return [a + b for a, b in zip(tops, bottoms)]
    mask, shifts = (1 << width) - 1, range(width * (count - 1), -1, -width) if width else [0] * count
    return [[x >> s & mask for s in shifts] for x in xs]


def pack(p, rows, ncols=None):
    """The matrix of rows of ints, reduced mod p, ``ncols`` wide if empty."""
    rows = [[int(v) % p for v in row] for row in rows]
    return Matrix(p, len(rows[0]) if rows else ncols, tuple([join(p, row) for row in rows]))


class Matrix:
    """An immutable matrix over F_p: its packed ``rows`` of ``ncols`` slots and
    the ``pivots`` of a reduced echelon basis (``rref``, ``spin``), else None.
    Equality and hashing read p, width and rows; the repr is the row tuples',
    so a Las Vegas loop seeded from its input's repr draws as it did on them."""

    __slots__ = ("p", "ncols", "rows", "pivots")

    def __init__(self, p, ncols, rows, pivots=None):
        self.p, self.ncols, self.rows, self.pivots = p, ncols, rows, pivots

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows and self.ncols == other.ncols and self.p == other.p

    def __hash__(self):
        return hash((self.p, self.ncols, self.rows))

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, span):
        rows, pivots = self.rows[span.start : span.stop], self.pivots and self.pivots[span.start : span.stop]
        return Matrix(self.p, self.ncols, rows, pivots)

    def __repr__(self):
        return repr(self.tuples())

    def tuples(self):
        """The rows as tuples of entries."""
        return tuple(map(tuple, unpack(self.p, self.rows, self.ncols)))

    def transpose(self):
        size, r, c = slot_bits(self.p) // 8, len(self.rows), self.ncols
        data = b"".join([x.to_bytes(c * size, "big") for x in self.rows])
        if size == 1:
            cols = [data[j::c] for j in range(c)]
        else:
            cols = [b"".join([data[k * size : (k + 1) * size] for k in range(j, r * c, c)]) for j in range(c)]
        return Matrix(self.p, r, tuple([int.from_bytes(col, "big") for col in cols]))

    def reshape(self, r, c):
        """The r x c matrix of the same entries, row by row, where c is a
        multiple of the width (k rows join) or divides it (a row splits)."""
        bits, n = slot_bits(self.p), self.ncols
        if not n or not c:
            return Matrix(self.p, c, (0,) * r)
        if c >= n:
            k = c // n
            return Matrix(self.p, c, tuple(fuse([self.rows[j::k] for j in range(k)], [bits * n] * k)))
        return Matrix(self.p, c, tuple(chain.from_iterable(cut(self.rows, n // c, bits * c))))
