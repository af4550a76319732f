"""Shared fixtures.

The big enumerations are session-scoped: the full size-5 operator-combo
sweep takes a few seconds and several test modules plus the acceptance
gate walk it, so it is computed once.
"""

from pathlib import Path

import pytest

from tenselab import algebra
from tenselab.algebra import enumerate_op_combos
from tenselab.frames import enumerate_frames

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def op_combos_upto5():
    """Every base algebra up to size 5 with every pair of Galois pairs."""
    return tuple(enumerate_op_combos(5))


@pytest.fixture(scope="session")
def h2gc_fs_upto5(op_combos_upto5):
    return tuple(a for a in op_combos_upto5 if a.laws.all_green)


@pytest.fixture(scope="session")
def h2gc_fs_upto4(h2gc_fs_upto5):
    return tuple(a for a in h2gc_fs_upto5 if a.n <= 4)


@pytest.fixture(scope="session")
def ik_frames_upto3():
    return tuple(enumerate_frames(3))


@pytest.fixture
def fresh_verdicts(monkeypatch):
    """An empty store of kept verdict arrays for one test, so every chunk
    the test reads is graded in it; the process's store comes back after."""
    monkeypatch.setattr(algebra, "_VERDICTS", {})


@pytest.fixture
def grades(monkeypatch, fresh_verdicts):
    """The base of every call to the law grader, in call order: one per
    chunk of the stream, one per structure graded alone.  The kept
    verdicts start empty, so every chunk read is graded here."""
    calls = []
    grade = algebra._grade

    def counted(base, *args):
        calls.append(base)
        return grade(base, *args)

    monkeypatch.setattr(algebra, "_grade", counted)
    return calls


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS
