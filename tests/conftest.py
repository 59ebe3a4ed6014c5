"""Shared helpers for the test suite."""

import sys
import threading

import numpy as np
import pytest

from parafield import (Field, PathField, StoredNoise, enhance, make_grid,
                       noise_slices)


def random_field(grid, rng, dealiased=False, smooth=0.0):
    """Random real field; optionally truncated to the 2/3 band or smoothed."""
    spec = np.fft.rfft2(rng.standard_normal((grid.N, grid.N)))
    if dealiased:
        spec = spec * grid.dealias
    if smooth > 0:
        spec = spec * np.exp(-smooth * grid.k2)
    return Field.from_spectrum(grid, spec)


def constant_path(times, f):
    """The path that is the Field f at every time."""
    return PathField(times, [f] * len(times))


def additive(paths):
    """Forcing paths as noises for the additive equation (f_spec=None),
    which reads no counterterm: it is set to zero."""
    return [StoredNoise(z) for z in paths]


def _columns(times, rows):
    # one PathField per column of a list of slices
    return [PathField(times, list(col)) for col in zip(*rows)]


def read_paths(noises, X=False):
    """Every slice of ``noises``, as one PathField per noise; with X, the
    pair (xi paths, X paths)."""
    times = noises[0].times
    rows = list(noise_slices(noises, X=X))
    if X:
        return (_columns(times, [r[0] for r in rows]),
                _columns(times, [r[1] for r in rows]))
    return _columns(times, rows)


def sample(spec, grid, times, stream_id=0):
    """The raw noise (eps = 0) of one stream id, or of each of a
    sequence, read in full as PathFields."""
    ids = [stream_id] if np.ndim(stream_id) == 0 else list(stream_id)
    paths = read_paths(enhance(spec, 0.0, grid, times, ids))
    return paths[0] if np.ndim(stream_id) == 0 else paths


def on_two_threads(fn):
    """[fn(0), fn(1)], run at once on two threads that switch about every
    microsecond; the first exception either raised is raised here."""
    out, errors = [None, None], []
    barrier = threading.Barrier(2)

    def run(i):
        barrier.wait(timeout=60)
        try:
            out[i] = fn(i)
        except Exception as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid16():
    return make_grid(16)


@pytest.fixture
def grid32():
    return make_grid(32)


@pytest.fixture
def grid64():
    return make_grid(64)
