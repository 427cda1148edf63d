"""Golden regression tests: pinned exact outputs on fixed instances.

These freeze observable behaviour — solution costs, delays, paths, and
experiment-table schemas — on specific seeds. A refactor that changes any
of them must consciously update the goldens (the failure message says so),
which is the point: silent behavioural drift is the enemy of a
reproduction repository.
"""

import numpy as np

from repro.core import solve_krsp
from repro.eval.experiments import figure1_instance, figure2_instance
from repro.graph import anticorrelated_weights, from_edges, gnp_digraph

UPDATE_HINT = (
    "golden mismatch — if the change is intentional, update tests/test_goldens.py"
)


class TestSolverGoldens:
    def test_er_seed1_minsum(self):
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=1), rng=2)
        sol = solve_krsp(g, 0, 9, 2, 40, phase1="minsum")
        assert (sol.cost, sol.delay) == (51, 34), UPDATE_HINT
        # Determinism of the precise routing:
        again = solve_krsp(g, 0, 9, 2, 40, phase1="minsum")
        assert again.paths == sol.paths, UPDATE_HINT

    def test_er_seed3_providers_differ(self):
        """Seed 3 pins a case where the two providers land on different
        (both bound-respecting) solutions — a behavioural fingerprint."""
        g = anticorrelated_weights(gnp_digraph(10, 0.4, rng=3), rng=4)
        by_minsum = solve_krsp(g, 0, 9, 2, 40, phase1="minsum")
        by_lp = solve_krsp(g, 0, 9, 2, 40)
        assert (by_minsum.cost, by_minsum.delay) == (45, 35), UPDATE_HINT
        assert (by_lp.cost, by_lp.delay) == (44, 19), UPDATE_HINT

    def test_tradeoff_square(self):
        g, ids = from_edges(
            [
                ("s", "a", 1, 9),
                ("a", "t", 1, 9),
                ("s", "b", 5, 1),
                ("b", "t", 5, 1),
            ]
        )
        sol = solve_krsp(g, ids["s"], ids["t"], 1, 5, phase1="minsum")
        assert sol.paths == [[2, 3]], UPDATE_HINT
        assert (sol.cost, sol.delay, sol.iterations) == (10, 2, 1), UPDATE_HINT


class TestFigureGoldens:
    def test_figure1_numbers(self):
        for D in (4, 8):
            g, ids = figure1_instance(D, c_opt=10)
            sol = solve_krsp(g, ids["s"], ids["t"], 2, D, phase1="minsum")
            assert (sol.cost, sol.delay) == (10, D), UPDATE_HINT

    def test_figure2_shape(self):
        g, ids, path = figure2_instance()
        assert g.n == 5 and g.m == 7 and path == [0, 1, 2, 3], UPDATE_HINT
        assert g.cost_of(path) == 6 and g.delay_of(path) == 5, UPDATE_HINT


class TestWorkloadGoldens:
    def test_er_anticorrelated_stream(self):
        from repro.eval.workloads import er_anticorrelated

        insts = list(er_anticorrelated(n=10, n_instances=4, seed=5))
        pinned = [(inst.seed, inst.delay_bound) for inst in insts]
        assert pinned == [(1726691309, 76)], UPDATE_HINT
