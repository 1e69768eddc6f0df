"""check.py must accept right answers and reject wrong ones.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import itertools
import random
import unittest

import check
import workloads

# The uncolorable degree cover of K_3: two bands, equal bands conflict.
K3 = check.family_graph("complete", 3)
K3_BAD = ((2, 2, 2), {pair: {(1, 1), (2, 2)} for pair in K3[1]})
C4 = check.family_graph("cycle", 4)
DIAMOND = (4, {(1, 2): 1, (1, 3): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1})
PATH3 = (3, {(1, 2): 1, (2, 3): 1})


def plain(cover):
    sizes, cross = cover
    return sizes, tuple(sorted((p, tuple(sorted(e))) for p, e in cross.items()))


class OracleChecks(unittest.TestCase):
    def test_right_answer_passes(self):
        self.assertEqual(check.oracle_problems(K3, (False, K3_BAD, False, K3_BAD)), [])
        self.assertEqual(check.oracle_problems(DIAMOND, (True, None, True, None)), [])

    def test_corrupted_witness_is_rejected(self):
        sizes, cross = K3_BAD
        broken = dict(cross)
        broken[(1, 2)] = {(1, 1)}  # colors 2, 2, 1 now survive
        self.assertTrue(check.oracle_problems(K3, (False, (sizes, broken), False, K3_BAD)))
        too_big = ((2, 2, 3), cross)
        self.assertTrue(check.oracle_problems(K3, (False, K3_BAD, False, too_big)))

    def test_flipped_verdict_is_rejected(self):
        self.assertTrue(check.oracle_problems(K3, (True, None, False, K3_BAD)))
        self.assertTrue(check.oracle_problems(DIAMOND, (True, None, False, K3_BAD)))

    def test_block_characterization(self):
        self.assertFalse(check.degree_colorable(*C4))
        self.assertFalse(check.degree_colorable(*PATH3))  # blocks are K_2
        self.assertTrue(check.degree_colorable(*DIAMOND))
        self.assertTrue(check.degree_colorable(4, {(1, 2): 2, (2, 3): 1, (1, 3): 1, (3, 4): 1}))


class CensusChecks(unittest.TestCase):
    SMALL = [(1, {}), (2, {(1, 2): 1}), PATH3, K3]

    def test_right_census_passes(self):
        want = {1: 1, 2: 1, 3: 2}
        self.assertEqual(check.census_problems(self.SMALL, want, 1), [])
        self.assertEqual(check.connected_orbit_counts(3, 1), want)
        self.assertEqual(check.connected_orbit_counts(4, 1)[4], check.CONNECTED_SIMPLE[4])

    def test_duplicated_graph_is_rejected(self):
        relabeled_path = (3, {(1, 2): 1, (1, 3): 1})  # center 1 instead of 2
        graphs = self.SMALL[:3] + [relabeled_path]
        problems = check.census_problems(graphs, {1: 1, 2: 1, 3: 2}, 1)
        self.assertTrue(any("duplicate" in p for p in problems))

    def test_canonical_form_separates_and_merges(self):
        forms = {check.canonical_form(*g) for g in self.SMALL}
        self.assertEqual(len(forms), 4)
        for perm in itertools.permutations((1, 2, 3, 4)):
            mult = {(min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1])): k
                    for (u, v), k in DIAMOND[1].items()}
            self.assertEqual(check.canonical_form(4, mult), check.canonical_form(*DIAMOND))


class SolveChecks(unittest.TestCase):
    def test_two_sat_agrees_with_product_scan(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 6)
            sizes = tuple(rng.randint(1, 2) for _ in range(n))
            cross = {}
            for u, v in itertools.combinations(range(1, n + 1), 2):
                cells = [(i, j) for i in range(1, sizes[u - 1] + 1)
                         for j in range(1, sizes[v - 1] + 1) if rng.random() < 0.4]
                if cells:
                    cross[(u, v)] = set(cells)
            self.assertEqual(check.two_sat_colorable(sizes, cross),
                             check.brute_force_transversal(sizes, cross) is not None)

    def test_wrong_transversal_and_false_uncolorable_are_rejected(self):
        graph = "3\n1 2 1\n2 3 1\n1 3 1\n"
        cover = "3\n2 2 3\n1 1 2 1\n2 1 3 1\n1 1 3 1\n"
        self.assertEqual(workloads.solve_problems(True, (1, 2, 2), graph, cover, "colorable"), [])
        self.assertTrue(workloads.solve_problems(True, (1, 1, 2), graph, cover, "colorable"))
        self.assertTrue(workloads.solve_problems(False, None, graph, cover, "colorable"))


class CriticalChecks(unittest.TestCase):
    def test_bounds(self):
        k4 = check.family_graph("complete", 4)
        self.assertEqual(check.critical_bound_problems(k4, 4), [])  # K_4 is exempt
        self.assertTrue(check.critical_bound_problems(C4, 4))

    def test_flipped_critical_status_is_rejected(self):
        k4 = check.family_graph("complete", 4)
        record = {check.canonical_form(*k4)}
        self.assertEqual(workloads.critical_problems(k4, ("critical", None, None), record), [])
        self.assertTrue(workloads.critical_problems(k4, ("not-critical", None, None), record))
        self.assertTrue(workloads.critical_problems(C4, ("critical", None, None), record))

    def test_bad_deletion_witness_is_rejected(self):
        sizes, cross = K3_BAD
        three = ((3, 3, 3), cross)  # a 3-list cover of K_3 minus an edge; colorable
        ans = ("edge-deletion", None, (1, 2, plain(three)))
        self.assertTrue(workloads.critical_problems(K3, ans, set()))


if __name__ == "__main__":
    unittest.main()
