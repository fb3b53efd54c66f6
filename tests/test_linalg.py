"""Row reduction over a prime field."""

import random

import pytest

from _oracles import gauss_jordan
from polardeg.fields import GF, MIN_PRIME
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


@pytest.mark.parametrize("p", [MIN_PRIME, 2**31 - 1, 4611686018427387847])
def test_packed_rows_match_gauss_jordan_on_both_sides_of_each_width_step(p):
    """The slot width grows with len(rows).bit_length(), so row counts sit on
    both sides of its steps at 32 and 64, up to 100 rows.  A third of the
    rows are dense, a third are p - 1 but for a few entries, and the rest
    are combinations of earlier rows, which leave free columns."""
    field = GF(p)
    rng = random.Random(p)
    for nrows in (1, 2, 3, 31, 32, 33, 63, 64, 65, 100):
        ncols = nrows + rng.randint(0, 3)
        rows = []
        for k in range(nrows):
            if k % 3 == 0:
                row = [rng.randrange(p) for _ in range(ncols)]
            elif k % 3 == 1 or k < 3:
                row = [p - 1 if rng.random() < 0.9 else rng.randrange(p) for _ in range(ncols)]
            else:
                a, b = rng.randrange(p), rng.randrange(p)
                row = [(a * x + b * y) % p for x, y in zip(*rng.sample(rows, 2))]
            rows.append(row)
        rng.shuffle(rows)
        want = gauss_jordan(rows, p)
        assert row_reduce(rows, field) == want, nrows
        assert rank(rows, field) == len(want[1])
