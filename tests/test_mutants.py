"""The sampled strength tier against known-bad encodings.

Each mutant is a corpus graph's pc encoding with one clause deleted, chosen
by a fixed rule before any sampler ran on it: corpus graphs (the conftest
generator's seeds, in order) whose all-variable scope is over 14 variables,
so the sampled tier is the one that would check them; for each, the first
clause in random.Random(seed).shuffle order of the clause indexes whose
deletion fails the exhaustive pc check, trying at most six clauses and
skipping a walk that ran over 2 s; the first twelve such graphs.
"""

import pytest

from bdmc import compile_graph, gen_random
from bdmc.propcheck import check_strength, confirm_strength_counterexample

# (generator seed, deleted clause index, deleted clause, exhaustive
# counterexample alpha, its literal)
MUTANTS = [
    (0, 48, (-2, 6), (1, 2), 6),
    (6, 71, (21,), (), 21),
    (21, 92, (-1, -14, -17, -20), (2, 3, 8, 14), -1),
    (27, 68, (-29, -30, 37), (1, 3, 4, -5, -6, 29, 30), -9),
    (36, 45, (-15, -17, 19), (2, 17), 19),
    (37, 69, (-2, 16), (2,), 16),
    (42, 44, (-16, -17, 18), (16,), 18),
    (56, 18, (22, 33), (4, -33), 20),
    (57, 50, (-19,), (), -19),
    (60, 63, (-20, 24), (1,), 3),
    (61, 109, (30,), (), 30),
    (64, 93, (-6, 30), (1, 3, -4, 6), 30),
]

SEEDS = range(5)
SAMPLES = 3000
# of the 60 (mutant, seed) runs, the earlier sampler (a random.Random per
# sample, the whole alpha asserted at once) detected 51; the splitmix64
# sampler detects 53.  The rate must not fall below the earlier one.
PARENT_DETECTIONS = 51


def mutant(seed, index, clause):
    """The clauses and variable count of the mutant, rebuilt from its graph."""
    graph = gen_random(n=3 + seed % 6, max_depth=2 + seed % 3, leaf_class="pc", seed=seed)
    out = compile_graph(graph, "pc", auto_smooth=True, auto_level=True)
    clauses = out.all_clauses()
    assert tuple(clauses[index]) == clause
    return clauses[:index] + clauses[index + 1:], out.num_vars


@pytest.fixture(scope="module")
def mutants():
    return [mutant(seed, index, clause) for seed, index, clause, _, _ in MUTANTS]


@pytest.mark.parametrize("i", range(len(MUTANTS)))
def test_mutant_fails_the_exhaustive_check(mutants, i):
    clauses, nvars = mutants[i]
    *_, alpha, literal = MUTANTS[i]
    assert nvars > 14
    v = check_strength(clauses, nvars, list(range(1, nvars + 1)), "pc", budget=3 ** nvars)
    assert not v.passed
    assert (v.counterexample.alpha, v.counterexample.literal) == (alpha, literal)
    assert confirm_strength_counterexample(clauses, nvars, alpha, literal)


def test_sampled_detection_rate_holds(mutants):
    detected = 0
    for clauses, nvars in mutants:
        for seed in SEEDS:
            v = check_strength(clauses, nvars, list(range(1, nvars + 1)), "pc",
                               mode="sampled", samples=SAMPLES, seed=seed)
            if not v.passed:
                detected += 1
                cex = v.counterexample
                assert confirm_strength_counterexample(clauses, nvars, cex.alpha, cex.literal)
    assert detected >= PARENT_DETECTIONS, detected
