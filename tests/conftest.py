import concurrent.futures
import importlib.util
import os
from pathlib import Path

import pytest

from syzstab import search

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# Child processes import the package from this source tree.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parents[1])}


def load_script(name):
    """The script ``scripts/<name>.py`` as a module, to call its functions
    in process."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canon_key(monomial):
    """The canonical member order as a sort key: degree ascending, then
    exponent vectors descending lexicographically."""
    return (monomial.degree, tuple(-e for e in monomial.exponents))


@pytest.fixture
def serial_pool(monkeypatch):
    """Make a search's process pool run its jobs in this process, in order,
    on a box of 2 CPUs, so that no test starts a worker; the list it gives
    holds the worker count of each pool made."""
    created = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            created.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # The pool class is looked up only when more than one worker runs.  Its
    # initializer builds the worker's space, here in this process.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(search, "_worker_space", None)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    return created
