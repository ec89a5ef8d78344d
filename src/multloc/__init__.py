"""multloc: exact-arithmetic toolkit for spectrum combinatorics,
multiplicative-subset localization, completions and obtainability certificates."""

__version__ = "0.1.0"

# the rule each acceptance criterion checks; the CLI cites them too
RULE_REFS = {
    1: "closest-integer-subset-count",
    2: "distinguishing-family-pairwise-antichain-equivalence",
    3: "two-subset-exact-height-intersection",
    4: "constant-and-primitive-polynomial-artinian-quadruple",
    5: "telescope-two-term-reduction-homology",
    6: "completion-torsion-limit-exact-sequence",
    7: "weakly-cotorsion-free-rank-rule",
    8: "cyclic-projectivity-coprimality-rule",
    9: "obtainability-certificate-soundness",
    10: "seed-orthogonality-propagation",
    11: "seeded-run-determinism",
}
