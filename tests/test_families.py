import numpy as np
import pytest

import fiokit as fk


@pytest.mark.parametrize("N, L", [(16, 1.0), (64, 2.0 * np.pi), (128, 32.0 * np.pi)])
def test_plane_wave_member_clips_high_bands(N, L):
    # a band beyond the grid lands on the clipped center, 3N/8 lattice steps
    spec = fk.GridSpec(N=N, L=L)
    spectrum = np.abs(fk.forward_transform(fk.plane_wave_member(spec, 40).field))
    assert np.unravel_index(np.argmax(spectrum), spec.shape) == (3 * N // 8, 0)
