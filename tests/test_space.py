"""Product-space codec and joint-distribution extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgibbs import (
    JointDistribution,
    ProbVec,
    ProductSpace,
    SelectionProbs,
    SliceModel,
    conditional,
    conditional_joint,
    joint_from_weights,
    marginal,
    product_joint,
)
from hybridgibbs.errors import (
    DimensionMismatch,
    NullConditioningEvent,
    SpaceTooLarge,
)
from hybridgibbs.space import selection_probs, state_cap


class TestCodec:
    def test_strides_first_coordinate_fastest(self):
        sp = ProductSpace((2, 3, 4))
        assert sp.strides == (1, 2, 6)
        assert sp.total == 24

    def test_encode_decode_example(self):
        sp = ProductSpace((2, 2))
        assert sp.encode((1, 0)) == 1
        assert sp.encode((0, 1)) == 2
        assert sp.decode(3) == (1, 1)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, sizes):
        sp = ProductSpace(tuple(sizes))
        for idx in range(sp.total):
            assert sp.encode(sp.decode(idx)) == idx

    def test_out_of_range(self):
        sp = ProductSpace((2, 2))
        with pytest.raises(DimensionMismatch):
            sp.encode((2, 0))
        with pytest.raises(DimensionMismatch):
            sp.decode(4)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("HYBRIDGIBBS_STATE_CAP", "10")
        assert state_cap() == 10
        with pytest.raises(SpaceTooLarge):
            ProductSpace((4, 4))
        ProductSpace((3, 3))
        with pytest.raises(SpaceTooLarge):
            SliceModel(np.arange(1.0, 12.0))
        SliceModel(np.arange(1.0, 11.0))

    def test_product_cap_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLarge):
                product_joint([np.ones(10)] * 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_subspace_indices_order(self):
        sp = ProductSpace((2, 3))
        # Free coordinate 0 with x2 = 1: indices 2, 3.
        assert sp.subspace_indices((0,), (1,)).tolist() == [2, 3]
        # Free coordinate 1 with x1 = 1: indices 1, 3, 5.
        assert sp.subspace_indices((1,), (1,)).tolist() == [1, 3, 5]
        # Both free: the whole space in codec order.
        assert sp.subspace_indices((0, 1), ()).tolist() == list(range(6))


class TestConditional:
    def test_independent_coins(self):
        joint = product_joint([[0.5, 0.5], [0.5, 0.5]])
        for i, y in [(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))]:
            np.testing.assert_allclose(conditional(joint, i, y).weights, [0.5, 0.5])

    def test_spec_slice(self):
        joint = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(
            conditional(joint, 0, (0,)).weights, [1 / 3, 2 / 3], atol=1e-15
        )

    def test_null_event(self):
        joint = joint_from_weights((2, 2), [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(NullConditioningEvent):
            conditional(joint, 0, (1,))

    def test_conditional_joint_matches(self):
        joint = joint_from_weights((2, 2, 2), np.arange(1.0, 9.0))
        sub = conditional_joint(joint, (0, 1), (1,))
        expected = np.arange(5.0, 9.0)
        np.testing.assert_allclose(sub.weights, expected / expected.sum())


class TestMarginal:
    def test_product_joint_factorizes(self):
        f0, f1 = [0.2, 0.8], [0.3, 0.3, 0.4]
        joint = product_joint([f0, f1])
        np.testing.assert_allclose(marginal(joint, (0,)).weights, f0, atol=1e-15)
        np.testing.assert_allclose(marginal(joint, (1,)).weights, f1, atol=1e-15)

    def test_spec_example(self):
        joint = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(marginal(joint, (1,)).weights, [0.3, 0.7], atol=1e-15)

    def test_keep_all(self):
        joint = joint_from_weights((2, 2), [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(marginal(joint, (0, 1)).weights, joint.weights)

    def test_consistency_with_conditional(self):
        # weights = conditional * marginal along any coordinate split.
        joint = joint_from_weights((3, 2), [0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
        m = marginal(joint, (1,)).weights
        for y in range(2):
            c = conditional(joint, 0, (y,)).weights
            np.testing.assert_allclose(
                c * m[y], joint.weights[3 * y : 3 * y + 3], atol=1e-15
            )


class TestJointValidation:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            JointDistribution(ProductSpace((2, 2)), ProbVec(np.ones(3)))


class TestSelectionProbs:
    def test_normalizes(self):
        sel = SelectionProbs(np.array([1.0, 1.0]))
        np.testing.assert_allclose(sel.p, [0.5, 0.5])

    def test_default_uniform(self):
        sel = selection_probs(None, 4)
        np.testing.assert_allclose(sel.p, np.full(4, 0.25))

    def test_length_checked(self):
        with pytest.raises(DimensionMismatch):
            selection_probs([0.5, 0.5], 3)
