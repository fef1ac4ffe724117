"""Hypothesis strategies, oracles and a memory probe shared by several
test modules."""

import itertools
import os
import subprocess
import sys

from hypothesis import assume, strategies as st

import tileforge
from tileforge.analysis import TileAnalysis
from tileforge.lattice import IntMatrix, companion_form, is_expanding


@st.composite
def expanding_systems(draw):
    """Expanding companion matrices, conjugated by a unimodular shear, with
    a few distinct small digits and a small depth."""
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    c = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
    matrix, _ = companion_form([1, a, b, c])
    assume(is_expanding(matrix))
    i, j = draw(st.sampled_from([(i, j) for i in range(3) for j in range(3)
                                 if i != j]))
    k = draw(st.integers(-2, 2))
    shear = [[int(r == s) for s in range(3)] for r in range(3)]
    shear[i][j] = k
    inverse = [row[:] for row in shear]
    inverse[i][j] = -k
    matrix = IntMatrix(shear) @ matrix @ IntMatrix(inverse)
    digits = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3),
                           min_size=1, max_size=4, unique=True))
    return matrix, tuple(digits), draw(st.integers(1, 3))


@st.composite
def residue_systems(draw):
    """An expanding matrix, a complete residue system of short digits modulo
    it that need not be collinear, and the unit vectors as seed basis."""
    matrix, _, _ = draw(expanding_systems())
    modulus = abs(matrix.det)
    box = draw(st.permutations(list(itertools.product(range(-2, 3), repeat=3))))
    classes = {}
    for v in sorted(box, key=lambda v: sum(map(abs, v))):
        key = tuple(sum(a * b for a, b in zip(r, v)) % modulus
                    for r in matrix.adjugate)
        classes.setdefault(key, v)
    assume(len(classes) == modulus)
    return matrix, tuple(classes.values()), ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def signed_cubic_contexts(bound: int = 6):
    """(key, context) for each expanding x^3 + A x^2 + B x + C with |A|,
    |B|, |C| <= bound and C != 0, in key order, with companion digits and
    the default basis; nothing is computed yet."""
    for abc in itertools.product(range(-bound, bound + 1), repeat=3):
        if abc[2] == 0:
            continue
        m, digits = companion_form([1, *abc])
        if is_expanding(m):
            yield abc, TileAnalysis(m, digits)


def edge_lists(graph) -> dict:
    """Each vertex of a boundary graph mapped to the list of its labelled
    out-edges, in the order of graph.edges."""
    out = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.src].append(e)
    return out


def walk_alive_oracle(succ: dict) -> set:
    """The keys of succ, each mapped to the set of its successors, from
    which an infinite walk starts: keep the keys with a successor among the
    kept ones until nothing changes."""
    alive = set(succ)
    while True:
        kept = {v for v in alive if succ[v] & alive}
        if kept == alive:
            return alive
        alive = kept


# On Linux, exec starts a process's ru_maxrss at the peak RSS of the process
# it replaces, so an interpreter started by pytest reads pytest's peak
# whenever that is larger.  A bare interpreter in between, which only spawns
# and waits, passes on its own small peak instead.
SPAWNER = ("import os, sys; "
           "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
           "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))")


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports this tileforge and
    inherits no larger ru_maxrss than a bare interpreter; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tileforge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", SPAWNER, sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
