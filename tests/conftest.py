"""Shared helpers for the test suite."""

import sys
import threading

import numpy as np
import pytest

from parafield import EnhancedNoise, Field, PathField, make_grid


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
    """Noise paths as enhanced noises for the additive equation
    (f_spec=None), which reads no counterterm: it is set to zero."""
    return [EnhancedNoise(z, np.zeros_like) for z in paths]


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
