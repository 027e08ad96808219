import numpy as np

from brwlab.streams import derive


def test_index_paths_of_different_lengths_do_not_alias():
    # a zero-padded key would make (5,), (5, 0), (5, 0, 0) one stream, and
    # (5, 1), (5, 1, 0) another
    keys = [(5,), (5, 0), (5, 0, 0), (5, 1), (5, 1, 0)]
    first = [int(derive(*key).integers(2 ** 63)) for key in keys]
    assert len(set(first)) == len(keys)


def test_derive_is_reproducible():
    a = derive(5, 2, 7).standard_normal(4)
    b = derive(5, 2, 7).standard_normal(4)
    assert np.array_equal(a, b)
