"""Seeded synthetic graph and incidence generators."""

import numpy as np
import pytest

from tensionkit import InputError
from tensionkit.synthetic import (block_incidence, gnm_graph, gnp_graph,
                                  planted_partition_graph)


class TestGnp:
    def test_extremes(self):
        assert gnp_graph(6, 0.0).edge_count == 0
        assert gnp_graph(6, 1.0).edge_count == 15

    def test_reproducible(self):
        assert gnp_graph(30, 0.2, rng_seed=4).edges() == gnp_graph(30, 0.2, rng_seed=4).edges()

    def test_probability_validated(self):
        with pytest.raises(InputError):
            gnp_graph(5, 1.5)


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_graph(20, 37, rng_seed=1)
        assert g.edge_count == 37
        assert len(set(g.edges())) == 37

    def test_too_many_edges_rejected(self):
        with pytest.raises(InputError, match="do not fit"):
            gnm_graph(4, 7)

    def test_reproducible(self):
        assert gnm_graph(50, 100, rng_seed=9).edges() == gnm_graph(50, 100, rng_seed=9).edges()


class TestPlantedPartition:
    def test_pure_blocks(self):
        g, labels = planted_partition_graph(3, 4, p_in=1.0, p_out=0.0, rng_seed=0)
        assert list(labels) == [0] * 4 + [1] * 4 + [2] * 4
        for u, v in g.edges():
            assert labels[u] == labels[v]
        assert g.edge_count == 3 * 6  # three 4-cliques

    def test_cross_edges_appear(self):
        g, labels = planted_partition_graph(2, 10, p_in=0.0, p_out=1.0, rng_seed=0)
        for u, v in g.edges():
            assert labels[u] != labels[v]
        assert g.edge_count == 100


class TestBlockIncidence:
    def test_shape_and_counts(self):
        labels = np.array([0, 0, 1, 1, 1])
        M, features = block_incidence(labels, rng_seed=2, block_count=4,
                                      noise_pool=30, noise_per_node=2)
        assert M.shape == (5, 32)
        assert features[:2] == ["b0", "b1"] and len(features) == 32
        dense = M.toarray()
        for i, lab in enumerate(labels):
            assert dense[i, lab] == 4
            noise = dense[i, 2:]
            assert noise.sum() == 2 and set(noise[noise > 0]) == {1.0}
