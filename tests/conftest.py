"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _valid_masks(table, points, orientation=None) -> dict:
    """{seq: (V, A) valid mask} over every sequence of `table`. eval yields
    only the sequences with a valid leg, on the antenna columns that can
    hold one; every other sequence and column is all False, so a test can
    read any sequence by key."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    masks = {seq: np.zeros((points.shape[0], table.antennas.shape[0]), bool)
             for seq in table.sequences}
    for seq, _, _, _, valid, cols in table.eval(points,
                                                orientation=orientation):
        masks[seq][:, cols] = valid
    return masks


@pytest.fixture
def valid_masks():
    return _valid_masks
