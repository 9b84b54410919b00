"""Shared fixtures: the paper's Fig. 1 worked example, tiny synthetic
dataset stacks, and helpers for building ad-hoc corpora."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.baselines import BruteForceSearcher
from repro.datasets import SetCollection, TINY_PROFILES, generate_dataset
from repro.embedding import PinnedSimilarityModel
from repro.experiments import SearchStack, build_stack
from repro.sim import CallableSimilarity

#: ``HYPOTHESIS_PROFILE=ci`` (CI's Tier-1 step) draws the same examples
#: on every run and prints the blob that replays a failing one locally
#: (``@reproduce_failure``).
settings.register_profile("ci", derandomize=True, print_blob=True)
#: ``HYPOTHESIS_PROFILE=thorough`` raises the default to 2000 examples;
#: CI runs the solver-vs-oracle property under it (that property takes
#: the larger of 300 and the default; tests that fix their own count
#: keep it).
settings.register_profile(
    "thorough", derandomize=True, print_blob=True, max_examples=2000
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Relative tolerance for comparing scores computed through the float32
#: embedding path against independently recomputed ones (BLAS reduction
#: order differs between the index and the similarity matrix).
SCORE_RTOL = 1e-5

# -- the Fig. 1 worked example -----------------------------------------------

FIG1_QUERY = frozenset(
    {"LA", "Seattle", "Columbia", "Blaine", "BigApple", "Charleston"}
)
FIG1_C1 = frozenset(
    {"LA", "Blain", "Appleton", "MtPleasant", "Lexington", "WestCoast"}
)
FIG1_C2 = frozenset(
    {"LA", "Sacramento", "Southern", "Blain", "SC", "Minnesota", "NewYorkCity"}
)

#: Pinned semantic similarities consistent with every number in Fig. 1:
#: Semantic-O(Q,C1) = 4.09, Semantic-O(Q,C2) = 4.49,
#: Greedy(Q,C1) = 4.09, Greedy(Q,C2) = 3.74 (greedy mis-ranks C1 first).
FIG1_SIMS = {
    # C1 edges
    ("Blaine", "Blain"): 0.99,
    ("Seattle", "WestCoast"): 0.70,
    ("Columbia", "Lexington"): 0.70,
    ("Charleston", "MtPleasant"): 0.70,
    ("BigApple", "Appleton"): 0.33,  # below alpha: must not contribute
    # C2 edges
    ("BigApple", "NewYorkCity"): 0.90,
    ("Charleston", "SC"): 0.85,
    ("Columbia", "SC"): 0.80,
    ("Charleston", "Southern"): 0.80,
    ("LA", "Sacramento"): 0.75,
    ("Blaine", "Minnesota"): 0.70,
    ("Columbia", "Minnesota"): 0.50,  # below alpha
}

FIG1_ALPHA = 0.7


@pytest.fixture(scope="session")
def fig1_sim() -> CallableSimilarity:
    return CallableSimilarity(PinnedSimilarityModel(FIG1_SIMS))


@pytest.fixture(scope="session")
def fig1_collection() -> SetCollection:
    return SetCollection([FIG1_C1, FIG1_C2], names=["C1", "C2"])


# -- tiny synthetic stacks ----------------------------------------------------


@pytest.fixture(scope="session")
def tiny_stacks() -> dict[str, SearchStack]:
    """One wired search stack per tiny Table-I profile."""
    return {
        name: build_stack(generate_dataset(profile, seed=11))
        for name, profile in TINY_PROFILES.items()
    }


@pytest.fixture(scope="session")
def tiny_opendata(tiny_stacks) -> SearchStack:
    return tiny_stacks["opendata"]


@pytest.fixture(scope="session")
def tiny_wdc(tiny_stacks) -> SearchStack:
    return tiny_stacks["wdc"]


@pytest.fixture(scope="session")
def tiny_oracles(tiny_stacks) -> dict[str, BruteForceSearcher]:
    return {
        name: BruteForceSearcher(stack.collection, stack.sim, alpha=0.8)
        for name, stack in tiny_stacks.items()
    }


def assert_same_scores(got: list[float], expected: list[float]) -> None:
    """Score lists must agree up to float32-path noise."""
    assert len(got) == len(expected), (got, expected)
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, rel=SCORE_RTOL, abs=SCORE_RTOL), (
            got,
            expected,
        )
