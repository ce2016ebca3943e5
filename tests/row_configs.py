"""Row configurations for the tests to loop over."""

from itertools import combinations

from dwbc.lattice_oracle import RowConfig


def all_row_configs(N, s):
    """Every RowConfig of s up arrows on a row of N edges, in the order of
    `itertools.combinations`."""
    return [RowConfig(N, c) for c in combinations(range(1, N + 1), s)]
