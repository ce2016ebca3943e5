"""Row configurations for the tests to loop over, and the row marginals
of every configuration by enumeration, the tests' reference."""

from itertools import combinations

from dwbc.lattice_oracle import (RowConfig, _check_size, _one_like,
                                 _row_transitions)


def all_row_configs(N, s):
    """Every RowConfig of s up arrows on a row of N edges, in the order of
    `itertools.combinations`."""
    return [RowConfig(N, c) for c in combinations(range(1, N + 1), s)]


def row_state_weights(N, w, s):
    """Unnormalized row-s marginal: {bitmask: sum of config weights}.

    Pure enumeration: every complete lattice configuration contributes
    its weight to the bucket of its row-s edge state; value/Z is the row
    configuration probability.
    """
    _check_size(N, "enum")
    all_up = (1 << N) - 1
    out = {}

    def rec(k, state, weight, marked):
        if k == s:
            marked = state
        if k == N:
            if state == all_up:
                if marked in out:
                    out[marked] = out[marked] + weight
                else:
                    out[marked] = weight
            return
        for st2, wt2 in _row_transitions(N, w, k + 1, state):
            rec(k + 1, st2, weight * wt2, marked)

    rec(0, 0, _one_like(w), 0)
    return out
