import pathlib
import random
import sys

import pytest
from hypothesis import strategies as st

try:
    import gradedtensor  # noqa: F401
except ImportError:  # running from a source checkout without installation
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gradedtensor.brauer import BrauerDiagram, Partners
from gradedtensor.combinatorics import DirectedPairing
from gradedtensor.model import StrandedGraph
from gradedtensor.young import Perm


def rand_directed_pairing(rng: random.Random, n: int) -> DirectedPairing:
    pts = list(range(1, n + 1))
    rng.shuffle(pts)
    return DirectedPairing(n, tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n // 2)))


def rand_diagram(rng: random.Random, D: int) -> BrauerDiagram:
    pts = list(range(1, 2 * D + 1))
    rng.shuffle(pts)
    return BrauerDiagram(D, tuple((pts[2 * i], pts[2 * i + 1]) for i in range(D)))


@st.composite
def diagrams(draw, min_D=1, max_D=6):
    D = draw(st.integers(min_D, max_D))
    pts = draw(st.permutations(range(1, 2 * D + 1)))
    return BrauerDiagram(D, tuple((pts[2 * k], pts[2 * k + 1]) for k in range(D)))


def rand_stranded_graph(rng: random.Random, D: int, vertices: int) -> StrandedGraph:
    pts = list(range(1, D * vertices + 1))
    rng.shuffle(pts)
    strands = tuple((pts[2 * i], pts[2 * i + 1]) for i in range(len(pts) // 2))
    return StrandedGraph(D, vertices, strands)


def rand_connected_graph(rng: random.Random, D: int, vertices: int) -> StrandedGraph:
    while True:
        g = rand_stranded_graph(rng, D, vertices)
        if g.is_connected():
            return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


# -- whole-permutation relabelings of partner tuples, the references for
# -- `brauer.transposed` and the factored symmetrizer


def _relabeled(p: Partners, image: Partners) -> Partners:
    """The diagram with each point x renamed image[x]."""
    q = [0] * len(p)
    for x, y in enumerate(p):
        q[image[x]] = image[y]
    return tuple(q)


def permuted_below(p: Partners, sigma: Perm) -> Partners:
    """sigma*d (sigma below d): d's bottom point D+1+k becomes D+1+sigma(k).

    The same as `compose_diagrams(from_permutation(sigma), d)`, which
    closes no loop."""
    D = len(sigma)
    return _relabeled(p, tuple(range(D + 1)) + tuple(D + 1 + s for s in sigma))


def permuted_above(p: Partners, sigma: Perm) -> Partners:
    """d*sigma (sigma above d): d's top point sigma(i)+1 becomes i+1.

    The same as `compose_diagrams(d, from_permutation(sigma))`, which
    closes no loop."""
    D = len(sigma)
    image = [0] * (2 * D + 1)
    for i, s in enumerate(sigma):
        image[s + 1] = i + 1
    image[D + 1 :] = range(D + 1, 2 * D + 1)
    return _relabeled(p, tuple(image))
