"""The sparse ladder maps (``fock.IndexMap``) against scipy.sparse as an oracle.

A map on ``size`` states is the ``size x size`` matrix whose column ``s``
holds ``weight[s]`` in row ``target[s]``.  Each operation is compared with
scipy's result on that matrix bit for bit (``same_bits``), on maps of
several sizes whose weights are complex numbers over six orders of
magnitude, or their real or imaginary parts.  Products are formed of real
weights, as the ladder maps hold.
"""

import numpy as np
import pytest
from scipy_oracle import dense, same_bits, to_scipy

from fockindex.fock import IndexMap

sp = pytest.importorskip("scipy.sparse")

SHAPES = [(1, 1), (2, 2), (6, 6), (7, 7), (13, 13), (40, 40), (57, 57)]


def _random_values(rng, count, kind):
    """``count`` random values of ``kind``: mixed, real or imaginary."""
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    values *= 10.0 ** rng.integers(-3, 4, size=count)
    if kind == "real":
        values = values.real.copy()
    elif kind == "imaginary":
        values = 1j * values.imag
    return values


def _map(target, held, values):
    """The map sending each ``held`` state ``s`` to ``target[s]`` with the
    next of ``values``, and every other state nowhere."""
    weight = np.zeros(len(target), dtype=np.asarray(values).dtype)
    weight[held] = values
    return IndexMap(np.where(held, target, -1), weight)


def _random(rng, size, density, kind="mixed", injective=False):
    """A random map on ``size`` states, a ``density`` share of them with an
    image; with ``injective``, no two states share a target."""
    target = rng.permutation(size) if injective else rng.integers(0, size, size=size)
    held = rng.random(size) < density
    return _map(target, held, _random_values(rng, held.sum(), kind))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("density", [0.0, 0.15, 0.6])
def test_construction_and_dense_form(shape, density):
    rng = np.random.default_rng(hash((shape, density)) % 2**32)
    size = shape[0]
    target = rng.integers(0, size, size=size)
    held = rng.random(size) < density
    values = _random_values(rng, held.sum(), "mixed")
    ours = _map(target, held, values)
    theirs = sp.csr_matrix((values, (target[held], np.flatnonzero(held))), shape=shape)
    assert ours.target.tolist() == np.where(held, target, -1).tolist()
    assert same_bits(ours, theirs)
    assert np.array_equal(dense(ours), theirs.toarray())


@pytest.mark.parametrize("shape", SHAPES)
def test_adjoint(shape):
    ours = _random(np.random.default_rng(1), shape[0], 0.7, injective=True)
    assert same_bits(ours.adjoint(), to_scipy(ours).conj().T)
    assert same_bits(ours.adjoint().adjoint(), to_scipy(ours))


@pytest.mark.parametrize("scalar", [2.5, -1.0, 0.0, 3, 1j, 0.3 - 1.7j])
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_scalar_multiples(scalar, kind):
    ours = _random(np.random.default_rng(3), 20, 0.6, kind)
    theirs = to_scipy(ours)
    assert same_bits(scalar * ours, scalar * theirs)
    assert same_bits(ours * scalar, theirs * scalar)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
def test_sums_and_differences(shape, overlap):
    # every operand sends a state nowhere or to ``target`` of that state, so
    # every pair of them may be added
    rng = np.random.default_rng(4)
    size = shape[0]
    target = rng.integers(0, size, size=size)
    held_a = rng.random(size) < 0.6
    a = _map(target, held_a, _random_values(rng, held_a.sum(), "mixed"))
    held_b = rng.random(size) < 0.6
    b = _map(target, held_b, _random_values(rng, held_b.sum(), "mixed"))
    # states shared with a, some holding a's weights so a - c cancels, and
    # states a sends nowhere
    shared = held_a & (rng.random(size) < overlap)
    cancel = rng.random(size) < 0.5
    weight = np.where(shared & cancel, a.weight, np.where(shared, 2.0, 0.0))
    alone = ~held_a & (rng.random(size) < 0.5)
    weight[alone] = _random_values(rng, alone.sum(), "mixed")
    c = _map(target, shared | alone, weight[shared | alone])
    # a product of real maps f @ g: g permutes the states, f sends each on
    # to the target of the state it came from
    order = rng.permutation(size)
    held_g, held_f = rng.random(size) < 0.8, rng.random(size) < 0.8
    g = _map(order, held_g, _random_values(rng, held_g.sum(), "real"))
    back = np.empty(size, dtype=np.intp)
    back[order] = np.arange(size)
    f = _map(target[back], held_f, _random_values(rng, held_f.sum(), "real"))
    operands = [a, c, f @ g, 2.0 * (f @ g)]
    for left in operands:
        for right in [b, *operands]:
            assert same_bits(left + right, to_scipy(left) + to_scipy(right))
            assert same_bits(left - right, to_scipy(left) - to_scipy(right))
    with pytest.raises(ValueError, match="index maps on"):
        a + IndexMap(np.arange(size + 1), np.ones(size + 1))
    if size > 1:
        moved = np.where(held_a, (target + 1) % size, -1)
        with pytest.raises(ValueError, match="sends each state to one state"):
            a - IndexMap(moved, np.ones(size))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["mixed", "real", "imaginary"])
def test_dense_operands_are_refused(shape, kind):
    # ``@`` composes two maps; a dense vector or stack of columns on either
    # side is a TypeError, not a silent dense product
    m = _random(np.random.default_rng(7), shape[0], 0.5, kind)
    size = shape[0]
    for x in (np.ones(size), np.ones((size, 1)), np.ones((size, 16)), np.zeros((size, 0))):
        with pytest.raises(TypeError):
            m @ x
    for y in (np.ones(size), np.ones((1, size)), np.ones((16, size))):
        with pytest.raises(TypeError):
            y @ m
        with pytest.raises(TypeError):
            y * m
