"""Input checks of the package's linear-algebra entry points.

Each caller validates its own arrays: project takes a finite vector of
length 8, branch_operators a finite 2x2 matrix, and classify tests the
channel parameter matrix for unitarity.
"""

import math

import numpy as np
import pytest

from telematch.channel import ChannelClass, TwoQubitChannel, classify, cpm
from telematch.measurement import branch_operators, project, standard_bell

H = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("bad", [[1, 0, 0], [], [[1, 0], [0, 1]]])
def test_as_vector_rejects_bad_shapes(bad):
    with pytest.raises(ValueError, match="length 8"):
        project(np.array(bad, dtype=complex), standard_bell(), 1)


def test_as_vector_rejects_nonfinite():
    for entry in (np.nan, np.inf * 1j):
        bad = np.zeros(8, dtype=complex)
        bad[0] = entry
        with pytest.raises(ValueError, match="finite"):
            project(bad, standard_bell(), 1)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError, match="2x2"):
        branch_operators(np.zeros((2, 3)), standard_bell())


def test_is_unitary_accepts_paulis():
    # X[k, j] = sqrt(2) * x_jk: these channels have X = I, X, Z and Y
    paulis = {
        (H, 0, 0, H): np.eye(2),
        (0, H, H, 0): [[0, 1], [1, 0]],
        (H, 0, 0, -H): [[1, 0], [0, -1]],
        (0, 1j * H, -1j * H, 0): [[0, -1j], [1j, 0]],
    }
    for entries, pauli in paulis.items():
        ch = TwoQubitChannel(*entries)
        assert np.allclose(cpm(ch), pauli, atol=1e-15)
        assert classify(ch) is ChannelClass.PERFECT
