"""Unit tests for genetic operators: SBX, PM, discrete pair, selection."""

import hashlib

import numpy as np
import pytest

from repro.ea.operators import (
    binary_tournament,
    polynomial_mutation,
    random_reset_mutation,
    sbx_crossover,
    uniform_crossover,
)
from repro.ea.operators.selection import random_mating_pool
from repro.errors import ValidationError
from repro.model.placement import UNPLACED


class TestSBX:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        parents = rng.integers(0, 20, size=(40, 15))
        children = sbx_crossover(parents, n_servers=20, seed=1)
        assert children.shape == parents.shape
        assert children.min() >= 0 and children.max() < 20

    def test_rate_zero_is_identity(self):
        parents = np.random.default_rng(1).integers(0, 9, size=(10, 6))
        children = sbx_crossover(parents, n_servers=9, rate=0.0, seed=2)
        assert np.array_equal(children, parents)

    def test_identical_parents_yield_identical_children(self):
        parents = np.tile(np.arange(8), (4, 1))
        children = sbx_crossover(parents, n_servers=8, rate=1.0, seed=3)
        assert np.array_equal(children, parents)

    def test_high_eta_keeps_children_near_parents(self):
        parents = np.array([[0] * 50, [10] * 50]).astype(np.int64)
        children = sbx_crossover(parents, n_servers=100, rate=1.0, eta=1000.0, seed=4)
        # With a huge distribution index children hug the parents.
        assert np.all(np.minimum(np.abs(children - 0), np.abs(children - 10)) <= 2)

    def test_odd_parent_count_rejected(self):
        with pytest.raises(ValidationError):
            sbx_crossover(np.zeros((3, 2), dtype=np.int64), n_servers=4)

    def test_deterministic_given_seed(self):
        parents = np.random.default_rng(5).integers(0, 30, size=(20, 8))
        a = sbx_crossover(parents, n_servers=30, seed=42)
        b = sbx_crossover(parents, n_servers=30, seed=42)
        assert np.array_equal(a, b)


class TestPolynomialMutation:
    def test_shape_and_range(self):
        genomes = np.random.default_rng(0).integers(0, 50, size=(30, 20))
        mutated = polynomial_mutation(genomes, n_servers=50, seed=1)
        assert mutated.shape == genomes.shape
        assert mutated.min() >= 0 and mutated.max() < 50

    def test_rate_zero_is_identity(self):
        genomes = np.random.default_rng(1).integers(0, 9, size=(5, 7))
        assert np.array_equal(
            polynomial_mutation(genomes, n_servers=9, rate=0.0, seed=2), genomes
        )

    def test_rate_controls_change_fraction(self):
        genomes = np.full((50, 100), 25, dtype=np.int64)
        low = polynomial_mutation(genomes, n_servers=50, rate=0.05, seed=3)
        high = polynomial_mutation(genomes, n_servers=50, rate=0.9, seed=3)
        assert (low != genomes).mean() < (high != genomes).mean()

    def test_single_server_noop(self):
        genomes = np.zeros((4, 5), dtype=np.int64)
        assert np.array_equal(
            polynomial_mutation(genomes, n_servers=1, rate=1.0), genomes
        )

    def test_input_not_modified(self):
        genomes = np.random.default_rng(2).integers(0, 9, size=(6, 6))
        snapshot = genomes.copy()
        polynomial_mutation(genomes, n_servers=9, rate=1.0, seed=4)
        assert np.array_equal(genomes, snapshot)


def _digest(array: np.ndarray) -> str:
    """blake2b-128 of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _golden_genomes(case: str) -> tuple[np.ndarray, int]:
    """(genomes, n_servers) of one golden-bytes case."""
    rng = np.random.default_rng(2024)
    if case == "paper":  # Table III population at the Fig. 8 size
        return rng.integers(0, 800, size=(100, 1600)), 800
    if case == "in_range":
        return rng.integers(0, 30, size=(16, 40)), 30
    m = {"m1": 1, "m2": 2}.get(case, 20)
    # UNPLACED and ids past the top end: every gene comes back clipped.
    genomes = rng.integers(0, m + 4, size=(12, 40))
    genomes[rng.random(genomes.shape) < 0.1] = UNPLACED
    return genomes, m


class TestVariationGoldenBytes:
    """SBX and PM output pinned byte for byte, and the generator's next
    draw after each call, to values recorded before the operators were
    rewritten to compute only the genes they keep.  The next draw pins
    how many numbers each call consumes, in what shapes and order, which
    every seed-determinism and resume contract depends on."""

    #: (operator, case, rate, eta) -> (output digest, next draw as hex).
    GOLDEN = {
        ("sbx", "mixed", None, 15.0): ("0cfdab7d94450892af36e9010bcae3c8", "0x1.7c8befa3b5028p-2"),
        ("sbx", "mixed", 0.0, 15.0): ("08225316e66679e12e506dbd4142fabc", "0x1.7c8befa3b5028p-2"),
        ("sbx", "mixed", 1.0, 15.0): ("27970a8427fe90e6d1ccc7638760c902", "0x1.7c8befa3b5028p-2"),
        ("sbx", "m1", 1.0, 15.0): ("a96799904c6940f6c80568b445e214ec", "0x1.7c8befa3b5028p-2"),
        ("sbx", "m2", None, 15.0): ("ad48baa9a70c1acaedf019ea932c7539", "0x1.7c8befa3b5028p-2"),
        ("sbx", "m2", 1.0, 1.0): ("3842ef7e42390458f1737c967d14b2ee", "0x1.7c8befa3b5028p-2"),
        ("sbx", "in_range", 1.0, 2.5): ("12cef68bd3ed82bd26dc079572edf402", "0x1.b164b207c8480p-6"),
        ("sbx", "paper", None, 15.0): ("ac82266cfa4fec717d2f78e877a0a8de", "0x1.3d4f62c80e816p-2"),
        ("pm", "mixed", None, 15.0): ("ac03f573562ecd3dbb386a4d39c427dd", "0x1.b7120f4991ec0p-2"),
        ("pm", "mixed", 0.0, 15.0): ("08225316e66679e12e506dbd4142fabc", "0x1.b7120f4991ec0p-2"),
        ("pm", "mixed", 1.0, 15.0): ("5b3d25e8402097810926a479aaee1b0e", "0x1.b7120f4991ec0p-2"),
        ("pm", "m1", 1.0, 15.0): ("6ca01878822b3022f35f21a755e33f86", "0x1.400c8353e3ca9p-1"),
        ("pm", "m2", None, 15.0): ("673ad7a397d44fa61468648b052637cf", "0x1.b7120f4991ec0p-2"),
        ("pm", "m2", 1.0, 1.0): ("369a6cc45db702c7ee20ed6ead7ec739", "0x1.b7120f4991ec0p-2"),
        ("pm", "in_range", 1.0, 2.5): ("a6e349a3bd04cfce24464f285b3ed3d3", "0x1.efd24de27c828p-3"),
        ("pm", "paper", None, 15.0): ("be48df642e5836c4959421717d83db67", "0x1.f92791b8568f0p-5"),
    }

    CASES = [
        ("mixed", None, 15.0),
        ("mixed", 0.0, 15.0),
        ("mixed", 1.0, 15.0),
        ("m1", 1.0, 15.0),
        ("m2", None, 15.0),
        ("m2", 1.0, 1.0),
        ("in_range", 1.0, 2.5),
        ("paper", None, 15.0),
    ]

    @pytest.mark.parametrize("operator", ["sbx", "pm"])
    @pytest.mark.parametrize(("case", "rate", "eta"), CASES)
    def test_output_and_draws_unchanged(self, operator, case, rate, eta):
        genomes, m = _golden_genomes(case)
        snapshot = genomes.copy()
        rng = np.random.default_rng(7)
        op = sbx_crossover if operator == "sbx" else polynomial_mutation
        kwargs = {} if rate is None else {"rate": rate}
        out = op(genomes, n_servers=m, eta=eta, seed=rng, **kwargs)
        assert np.array_equal(genomes, snapshot)
        got = (_digest(out), float(rng.random()).hex())
        assert got == self.GOLDEN[(operator, case, rate, eta)]

    @pytest.mark.parametrize("operator", [sbx_crossover, polynomial_mutation])
    def test_memory_layout_does_not_matter(self, operator):
        genomes, m = _golden_genomes("mixed")
        expected = operator(genomes, n_servers=m, rate=0.5, seed=3)
        for view in (np.asfortranarray(genomes), np.repeat(genomes, 2, axis=1)[:, ::2]):
            assert np.array_equal(operator(view, n_servers=m, rate=0.5, seed=3), expected)


class TestDiscreteOperators:
    def test_uniform_crossover_genes_come_from_parents(self):
        rng = np.random.default_rng(0)
        parents = rng.integers(0, 100, size=(20, 12))
        children = uniform_crossover(parents, rate=1.0, seed=1)
        p1, p2 = parents[0::2], parents[1::2]
        c1, c2 = children[0::2], children[1::2]
        assert np.all((c1 == p1) | (c1 == p2))
        assert np.all((c2 == p1) | (c2 == p2))

    def test_uniform_crossover_preserves_multiset_per_gene(self):
        parents = np.random.default_rng(1).integers(0, 50, size=(10, 8))
        children = uniform_crossover(parents, rate=1.0, seed=2)
        for pair in range(5):
            p = np.sort(parents[2 * pair : 2 * pair + 2], axis=0)
            c = np.sort(children[2 * pair : 2 * pair + 2], axis=0)
            assert np.array_equal(p, c)

    def test_random_reset_range(self):
        genomes = np.zeros((10, 10), dtype=np.int64)
        mutated = random_reset_mutation(genomes, n_servers=5, rate=1.0, seed=3)
        assert mutated.min() >= 0 and mutated.max() < 5


class TestSelection:
    def test_tournament_prefers_lower_rank(self):
        ranks = np.array([0, 5])
        winners = binary_tournament(ranks, None, n_parents=200, seed=0)
        # Individual 0 must win every mixed tournament.
        share = (winners == 0).mean()
        assert share > 0.6

    def test_tournament_prefers_feasible_tier(self):
        ranks = np.array([5, 0])  # worse rank but feasible
        tiers = np.array([0, 3])
        winners = binary_tournament(ranks, None, n_parents=200, tiers=tiers, seed=1)
        assert (winners == 0).mean() > 0.6

    def test_tournament_crowding_tiebreak(self):
        ranks = np.array([0, 0])
        crowding = np.array([10.0, 0.1])
        winners = binary_tournament(ranks, crowding, n_parents=200, seed=2)
        assert (winners == 0).mean() > 0.6

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError):
            binary_tournament(np.empty(0, dtype=np.int64), None, 4)

    def test_random_pool_range(self):
        pool = random_mating_pool(10, 50, seed=3)
        assert pool.shape == (50,)
        assert pool.min() >= 0 and pool.max() < 10
