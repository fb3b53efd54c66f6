"""Row reduction over a prime field."""

import random

from _oracles import gauss_jordan
from polardeg.fields import GF
from polardeg.linalg import rank, row_reduce


def test_row_reduce_matches_gauss_jordan():
    field = GF(1000003)
    p = field.modulus
    rng = random.Random(8)
    for _ in range(300):
        nrows, ncols, density = rng.randint(1, 6), rng.randint(1, 7), rng.random()
        rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        # a dependent row leaves free columns between the pivots
        rows.append([(3 * a + b) % p for a, b in zip(rows[0], rows[-1])])
        want = gauss_jordan(rows, p)
        assert row_reduce(rows, field) == want
        assert rank(rows, field) == len(want[1])
