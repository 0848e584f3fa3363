import pytest

from ptakkit.families import random_family
from ptakkit.game import delta_exact

CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def corpus():
    """The seeded 500-family corpus (n <= 12, at most 40 maximal sets)."""
    return [random_family(seed, n=None, max_sets=40) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_values(corpus):
    """Exact game value results, computed once for the whole session."""
    return [delta_exact(f) for f in corpus]


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(name, modules)`` patches ``name`` in each module with one
    wrapper and returns the list it appends each call's arguments to."""

    def install(name, modules):
        calls = []
        original = getattr(modules[0], name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in modules:
            monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install
