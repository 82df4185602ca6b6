import random
from itertools import combinations
from pathlib import Path

import pytest

from confan.arith import Matrix
from confan.config import config_new

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def square_chord_matrix():
    return Matrix(((1, 0, 0, 1, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)))


@pytest.fixture(scope="session")
def square_chord_config(square_chord_matrix):
    return config_new(square_chord_matrix)


@pytest.fixture(scope="session")
def square_chord_matroid(square_chord_config):
    return square_chord_config.matroid


@pytest.fixture(scope="session")
def square_chord_bases():
    return [
        frozenset(b)
        for b in combinations(range(1, 6), 3)
        if set(b) not in ({1, 2, 4}, {1, 3, 5})
    ]


def random_config(rng, max_n=7):
    """A random full-rank loopless configuration over Q."""
    while True:
        n = rng.randint(2, max_n)
        r = rng.randint(1, n - 1)
        rows = tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)
        )
        try:
            return config_new(Matrix(rows))
        except Exception:
            continue


@pytest.fixture
def rng():
    return random.Random(20260817)
