import numpy as np
import pytest
from hypothesis import strategies as st

from spp_teleport.qcore import MixedState

from reference import unit


def projector(amps: np.ndarray) -> MixedState:
    return MixedState(np.outer(amps, amps.conj()))


@st.composite
def pure_states(draw, dim=2):
    parts = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2 * dim,
            max_size=2 * dim,
        )
    )
    vec = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    if np.linalg.norm(vec) < 1e-3:
        vec = vec + np.eye(dim)[0]
    return unit(vec)


@st.composite
def mixed_states(draw, dim=2):
    n_terms = draw(st.integers(min_value=1, max_value=3))
    weights = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n_terms, max_size=n_terms)
    )
    states = [draw(pure_states(dim=dim)) for _ in range(n_terms)]
    mat = sum(w * projector(s).matrix for w, s in zip(weights, states))
    return MixedState(mat / np.trace(mat).real)


# one line per release acceptance criterion, shown after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_pure(rng, dim=2):
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return unit(vec)


def random_mixed(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return MixedState(mat / np.trace(mat).real)
