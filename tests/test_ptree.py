from dataclasses import dataclass, field

import numpy as np
import pytest

from rnnlab import ptree


@dataclass
class Inner:
    w: np.ndarray
    b: np.ndarray


@dataclass
class Outer:
    first: Inner
    items: list
    name: str = "x"
    count: int = 3
    extra: np.ndarray | None = None


def make_tree():
    return Outer(
        first=Inner(w=np.arange(6, dtype=np.float64).reshape(2, 3), b=np.array([1.0, 2.0])),
        items=[np.array([3.0]), Inner(w=np.array([[4.0]]), b=np.array([5.0]))],
    )


class TestNamedArrays:
    def test_canonical_order_and_paths(self):
        paths = [path for path, _ in ptree.named_arrays(make_tree())]
        assert paths == ["first.w", "first.b", "items[0]", "items[1].w", "items[1].b"]

    def test_skips_scalars_and_none(self):
        assert len(list(ptree.named_arrays(make_tree()))) == 5

    def test_rejects_unknown_nodes(self):
        with pytest.raises(TypeError):
            list(ptree.named_arrays(Outer(first=make_tree().first, items=[{"bad": 1}])))


class TestFlatten:
    def test_round_trip(self):
        tree = make_tree()
        flat = ptree.flatten(tree)
        assert flat.tolist() == [0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
        ptree.unflatten_into(tree, flat * 2)
        assert np.array_equal(tree.first.w, 2 * np.arange(6).reshape(2, 3))
        assert tree.items[1].b[0] == 10.0

    def test_preserves_dtype(self):
        tree = Inner(w=np.zeros((2, 2), dtype=np.float32), b=np.zeros(2))
        ptree.unflatten_into(tree, np.arange(6, dtype=np.float64))
        assert tree.w.dtype == np.float32
        assert tree.b.dtype == np.float64

    def test_size_mismatch_rejected(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            ptree.unflatten_into(tree, np.zeros(4))
        with pytest.raises(ValueError):
            ptree.unflatten_into(tree, np.zeros(99))

    def test_bare_array_is_a_tree(self):
        arr = np.array([1.0, 2.0])
        assert np.array_equal(ptree.flatten(arr), arr)


class TestTreeOps:
    def test_zeros_are_independent(self):
        tree = make_tree()
        zeros = ptree.map_arrays(tree, np.zeros_like)
        assert not np.any(ptree.flatten(zeros))
        zeros.first.w[0, 1] = 99.0
        assert tree.first.w[0, 1] == 1.0

    def test_accumulate(self):
        tree = make_tree()
        other = make_tree()
        ptree.accumulate(tree, other, scale=2.0)
        assert tree.first.b.tolist() == [3.0, 6.0]

    def test_accumulate_mismatch_rejected(self):
        tree = make_tree()
        bad = Inner(w=np.zeros((2, 3)), b=np.zeros(2))
        with pytest.raises(ValueError):
            ptree.accumulate(tree, bad)


@dataclass
class Owner:
    inner: Inner
    vector: np.ndarray | None = ptree.vector_field()


class TestViews:
    def test_leaves_view_the_vector_in_canonical_order(self):
        vector = np.arange(11.0)
        tree = ptree.views(make_tree(), vector)
        assert np.shares_memory(tree.first.w, vector)
        assert ptree.flatten(tree).tolist() == vector.tolist()
        vector[6] = -1.0
        assert tree.first.b[0] == -1.0
        tree.items[1].w[0, 0] = 7.0
        assert vector[9] == 7.0

    def test_keeps_the_vector_dtype(self):
        tree = ptree.views(make_tree(), np.zeros(11, dtype=np.float32))
        assert all(arr.dtype == np.float32 for _, arr in ptree.named_arrays(tree))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ptree.views(make_tree(), np.zeros(10))
        with pytest.raises(ValueError):
            ptree.views(make_tree(), np.zeros(12))

    def test_vector_field_is_not_a_leaf(self):
        vector = np.arange(6.0)
        owner = Owner(inner=ptree.views(Inner(w=np.empty((2, 2)), b=np.empty(2)), vector))
        owner.vector = vector
        assert [path for path, _ in ptree.named_arrays(owner)] == ["inner.w", "inner.b"]
        assert ptree.flatten(owner).tolist() == vector.tolist()
        assert ptree.map_arrays(owner, np.zeros_like).vector is None

    def test_stacked_views_pair_equal_blocks(self):
        # Three trees of Inner's layout one after the other: leaf [i] views
        # tree i's stretch, without a copy.
        vector = np.arange(18.0)
        stacked = ptree.stacked_views(Inner(w=np.empty((2, 2)), b=np.empty(2)), vector, 3)
        assert stacked.w.shape == (3, 2, 2) and stacked.b.shape == (3, 2)
        assert np.shares_memory(stacked.w, vector) and np.shares_memory(stacked.b, vector)
        for i in range(3):
            tree = ptree.views(Inner(w=np.empty((2, 2)), b=np.empty(2)), vector[6 * i : 6 * i + 6])
            assert np.array_equal(stacked.w[i], tree.w) and np.array_equal(stacked.b[i], tree.b)
        with pytest.raises(ValueError):
            ptree.stacked_views(Inner(w=np.empty((2, 2)), b=np.empty(2)), vector, 2)
