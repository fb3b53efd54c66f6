"""Small dense linear algebra over a prime field (desk-scale matrices)."""

from __future__ import annotations


def row_reduce(rows, field):
    """Gaussian elimination over a prime field on its int elements; returns
    (rref rows, pivot column list)."""
    p = field.modulus
    rows = [list(r) for r in rows]
    pivots = []
    ncols = len(rows[0]) if rows else 0
    # forward: echelon form with unit pivots; a pivot row is zero left of its
    # pivot, so only columns c.. change
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        pivot = rows[r][c:] = [v * inv % p for v in rows[r][c:]]
        for row in rows[r + 1:]:
            factor = row[c]
            if factor:
                row[c:] = [(a - factor * b) % p for a, b in zip(row[c:], pivot)]
        pivots.append(c)
        if r + 1 == len(rows):
            break
    # backward, last pivot first: a pivot row is then zero at every other
    # pivot column, so only the free columns right of its pivot change
    free = [c for c in range(ncols) if c not in pivots]
    for r in reversed(range(len(pivots))):
        c, pivot = pivots[r], rows[r]
        right = [j for j in free if j > c]
        for row in rows[:r]:
            factor = row[c]
            if factor:
                row[c] = 0
                for j in right:
                    row[j] = (row[j] - factor * pivot[j]) % p
    return rows, pivots


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
