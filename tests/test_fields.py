import numpy as np
import pytest

from bozk.fields import _white_noise, random_smooth
from bozk.grid import make_grid


def test_same_seed_same_bits():
    a = _white_noise(17, (128, 128))
    b = _white_noise(17, (128, 128))
    assert a.dtype == np.float64 and a.shape == (128, 128)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 41, 2**40])
def test_neighbouring_seeds_uncorrelated(seed):
    # the key is the finalised seed, so s and s + 1 start unrelated streams;
    # a counter stream keyed by the bare seed would correlate them at some
    # shift
    a = _white_noise(seed, (128, 128)).ravel()
    b = _white_noise(seed + 1, (128, 128)).ravel()
    for shift in (-1, 0, 1):
        x = a[max(shift, 0) : a.size + min(shift, 0)]
        y = b[max(-shift, 0) : b.size + min(-shift, 0)]
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05, shift


@pytest.mark.parametrize("seed", [0, 5, 123456789])
def test_standard_normal_moments(seed):
    w = _white_noise(seed, (128, 128))
    assert abs(w.mean()) < 0.05
    assert abs(w.std() - 1.0) < 0.05
    assert np.isfinite(w).all()


def test_odd_sample_count():
    w = _white_noise(3, (3, 5))
    assert w.shape == (3, 5) and np.isfinite(w).all()
    # the stream is a pure function of seed and shape, read in order
    assert np.array_equal(_white_noise(3, (15,)), w.ravel())


def test_seed_out_of_range_rejected():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            _white_noise(seed, (4, 4))


def test_random_smooth_is_seeded():
    g = make_grid(32, 32, 20.0, 20.0)
    a = random_smooth(g, 9).samples
    assert np.array_equal(a, random_smooth(g, 9).samples)
    assert not np.array_equal(a, random_smooth(g, 10).samples)
    assert np.max(np.abs(a)) == pytest.approx(1.0)
