"""Shared test configuration.

Hypothesis runs derandomized: each property draws the same examples on
every run, so a passing suite stays passing until the code or the test
changes.  Per-test ``@settings`` (``max_examples``, ``deadline``) and
``@example`` pins still apply on top of this profile.

:func:`edited_config` is the one way tests edit the packaged default
config; test modules import it from here, and :func:`centered_points`,
:func:`peak_allocation` and :func:`comment_lines` too.
The ``noisy_drop`` fixture is the largest table the tests read and fit.
"""

import copy
import functools
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import settings

from loopfwm.config import default_config_text

settings.register_profile("loopfwm", derandomize=True)
settings.load_profile("loopfwm")

DELETE = object()


@functools.cache
def _default_document() -> dict:
    """The packaged default config, parsed once: the config fuzz edits it
    hundreds of times, and a deep copy is far cheaper than a YAML parse."""
    return yaml.safe_load(default_config_text())


def edited_config(*edits: tuple) -> str:
    """The packaged default config as YAML text, with the entry at each
    ``(path, value)`` edit's key path set to ``value``, or removed where
    ``value`` is ``DELETE``.  A path is a tuple of mapping keys and list
    indices, e.g. ``("loss_budget", "elements", 2, "loss_db")``."""
    document = copy.deepcopy(_default_document())
    for path, value in edits:
        *parents, last = path
        node = document
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return yaml.safe_dump(document, sort_keys=False)


@pytest.fixture(scope="session")
def noisy_drop(tmp_path_factory):
    """A 60,001-row drop trace at 0.1 pm steps: a Lorentzian dip of Q 2750 at
    1555.87 nm on a 0.2 baseline, with seeded Gaussian noise of 1% of its
    depth, every value written as ``%.12g``.  It is the benchmark's noisy
    trace, generated here so that the tests import nothing from ``bench``."""
    resonance, amplitude, baseline = 1555.87, 0.6382200814494171, 0.2
    wavelengths = centered_points(resonance, 6.0, 1e-4)
    fwhm = resonance / 2750.0
    clean = baseline + amplitude / (1.0 + (2.0 * (wavelengths - resonance) / fwhm) ** 2)
    noise = np.random.default_rng(8).normal(0.0, 0.01 * amplitude, size=wavelengths.size)
    lines = ["wavelength_nm,drop"] + [
        f"{x:.12g},{y:.12g}" for x, y in zip(wavelengths, clean + noise)
    ]
    path = tmp_path_factory.mktemp("noisy_drop") / "noisy_drop.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def centered_points(center: float, span: float, step: float) -> np.ndarray:
    """``round(span/step) + 1`` points ``step`` apart, centered on ``center``,
    so an odd count puts the middle one exactly on it: the sampling of the
    fitted resonance spectra."""
    count = int(round(span / step)) + 1
    return center + (np.arange(count) - (count - 1) / 2.0) * step


def peak_allocation(call):
    """``call()``'s result and the peak bytes allocated while it ran, as
    ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def comment_lines(path) -> tuple[str, ...]:
    """The text after the ``#`` of each comment line of a CSV file, stripped,
    wherever the line stands."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return tuple(line[1:].strip() for line in handle if line.startswith("#"))
