"""Dense linear algebra over a prime field on packed rows.

A vector of GF(p) entries is one int (Kronecker substitution): entry c sits
in the `width`-bit slot at c * width, so adding a multiple of one vector to
another is a single big-int multiply-add.  A slot is reduced mod p only
where it is read; slot_width leaves room for the sums that pile up
unreduced in between, so no slot ever carries into the next.
"""

from __future__ import annotations


def slot_width(p: int, n: int) -> int:
    """Bits per slot for any sum below n * p^2, with one bit to spare: n
    products of two entries below p, or one entry plus n - 1 products."""
    return 2 * p.bit_length() + n.bit_length() + 1


def pack(values, p: int, width: int) -> int:
    """The values, each reduced mod p, with value c in slot c."""
    out = 0
    for v in reversed(values):
        out = out << width | v % p
    return out


def unpack(packed: int, n: int, p: int, width: int) -> list:
    """Slots 0 .. n-1 of a packed vector, each reduced mod p."""
    mask = (1 << width) - 1
    return [(packed >> width * c & mask) % p for c in range(n)]


def row_reduce(rows, field):
    """Gauss-Jordan elimination over a prime field on its int elements;
    returns (rref rows, pivot column list).

    Each row is packed into one int.  A pivot row is reduced mod p and
    scaled to a unit pivot, so its entries are below p; every other row with
    entry f in the pivot column then takes row += (p - f) * pivot, which adds
    less than p^2 to each slot.  Between being packed or scaled and being
    read, a row takes at most one such update per other pivot, fewer than
    len(rows) in all, so slot_width(p, len(rows)) bits keep the slots apart.
    """
    p = field.modulus
    rows = list(rows)
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    width = slot_width(p, nrows)
    mask = (1 << width) - 1
    packed = [pack(row, p, width) for row in rows]
    pivots = []
    for c in range(ncols):
        r, shift = len(pivots), width * c
        for k in range(r, nrows):
            if (packed[k] >> shift & mask) % p:
                break
        else:
            continue
        # a row below the pivots is zero mod p left of column c
        tail = unpack(packed[k] >> shift, ncols - c, p, width)
        packed[k] = packed[r]
        inv = pow(tail[0], -1, p)
        pivot = packed[r] = pack([v * inv for v in tail], p, width) << shift
        for k in range(nrows):
            if k != r:
                f = (packed[k] >> shift & mask) % p
                if f:
                    packed[k] += (p - f) * pivot
        pivots.append(c)
        if r + 1 == nrows:
            break
    # the rows below the pivots are zero mod p
    top = len(pivots)
    return ([unpack(row, ncols, p, width) for row in packed[:top]]
            + [[0] * ncols for _ in range(nrows - top)]), pivots


def rank(rows, field) -> int:
    return len(row_reduce(rows, field)[1])


def solve_affine(rows, rhs, field):
    """Solve rows * x = rhs, expressing pivot variables affinely in the free ones.

    Requires full row rank; returns (pivot_cols, expressions) where
    expressions[r] = (constant, {free_col: coefficient}) for pivot r, meaning
    x_pivot = constant - sum(coefficient * x_free).  Returns None when the
    matrix drops rank.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    rref, pivots = row_reduce(aug, field)
    if len(pivots) != len(rows) or any(p == len(rows[0]) for p in pivots):
        return None
    zero = field.zero()
    exprs = []
    for r, p in enumerate(pivots):
        const = rref[r][-1]
        coeffs = {c: rref[r][c] for c in range(len(rows[0]))
                  if c != p and rref[r][c] != zero}
        exprs.append((const, coeffs))
    return pivots, exprs
