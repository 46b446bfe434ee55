"""Shared test configuration.

Hypothesis runs derandomized: each property draws the same examples on
every run, so a passing suite stays passing until the code or the test
changes.  Per-test ``@settings`` (``max_examples``, ``deadline``) and
``@example`` pins still apply on top of this profile.

:func:`edited_config` is the one way tests edit the packaged default
config; test modules import it from here.
"""

import copy
import functools

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
