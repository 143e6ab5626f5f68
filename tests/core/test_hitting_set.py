"""Unit tests for the exact minimum hitting set solver."""

import itertools
import random

import pytest

from repro.core import minimum_hitting_set, minimum_hitting_set_size
from repro.core.hitting_set import greedy_hitting_set


def exhaustive_minimum(sets, forbidden=frozenset()):
    """Reference solver: try all subsets of the allowed universe."""
    universe = sorted({e for s in sets for e in s if e not in forbidden}, key=repr)
    for size in range(len(universe) + 1):
        for candidate in itertools.combinations(universe, size):
            chosen = set(candidate)
            if all(set(s) & chosen for s in sets):
                return size
    return None


class TestBasics:
    def test_empty_family(self):
        assert minimum_hitting_set([]) == frozenset()

    def test_single_set(self):
        assert len(minimum_hitting_set([{1, 2, 3}])) == 1

    def test_disjoint_sets_need_one_each(self):
        assert minimum_hitting_set_size([{1}, {2}, {3}]) == 3

    def test_shared_element_suffices(self):
        assert minimum_hitting_set_size([{1, 2}, {2, 3}, {2, 4}]) == 1

    def test_result_actually_hits_everything(self):
        sets = [{1, 2}, {2, 3}, {3, 4}, {4, 5}]
        result = minimum_hitting_set(sets)
        assert all(set(s) & result for s in sets)

    def test_infeasible_when_set_is_all_forbidden(self):
        assert minimum_hitting_set([{1, 2}], forbidden={1, 2}) is None

    def test_forbidden_elements_not_used(self):
        result = minimum_hitting_set([{1, 2}, {2, 3}], forbidden={2})
        assert result is not None and 2 not in result
        assert len(result) == 2

    def test_upper_bound_cutoff(self):
        assert minimum_hitting_set([{1}, {2}, {3}], upper_bound=2) is None
        assert minimum_hitting_set([{1}, {2}, {3}], upper_bound=3) is not None

    def test_supersets_are_dropped_harmlessly(self):
        assert minimum_hitting_set_size([{1}, {1, 2}, {1, 2, 3}]) == 1


class TestTiebreak:
    def test_ties_go_to_the_smallest_element_not_the_smallest_repr(self):
        # repr order would pick 10 ('10' < '2').
        assert minimum_hitting_set([{2, 10}]) == frozenset({2})

    def test_equal_size_results_pick_the_smallest_elements(self):
        # Any pair taking one element of each set is minimum.
        assert minimum_hitting_set([{4, 1}, {3, 2}]) == frozenset({1, 2})


class TestGreedy:
    """The greedy seed runs on the solver's bitmasks, where the smallest
    element is the highest bit."""

    def test_greedy_is_feasible(self):
        masks = [0b0011, 0b0110, 0b10000]
        greedy = greedy_hitting_set(masks)
        assert all(mask & greedy for mask in masks)

    def test_greedy_ties_go_to_the_highest_bit(self):
        # Bits 0-3 each hit two sets: the highest wins every tie, so bit 3
        # and then bit 2 (the lowest would give bits 0 and 1).
        assert greedy_hitting_set([0b0101, 0b0110, 0b1001, 0b1010]) == 0b1100


class TestAgainstExhaustiveSearch:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_small_instances(self, seed):
        rng = random.Random(seed)
        universe = list(range(7))
        sets = []
        for _ in range(rng.randint(2, 6)):
            size = rng.randint(1, 4)
            sets.append(set(rng.sample(universe, size)))
        forbidden = set(rng.sample(universe, rng.randint(0, 2)))
        expected = exhaustive_minimum(sets, forbidden)
        actual = minimum_hitting_set_size(sets, forbidden=forbidden)
        assert actual == expected
