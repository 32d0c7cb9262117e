"""The torus-fixed points of the Hilbert scheme of 2m + 2 in P^3 as a test
corpus for classify: every label must agree with the tangent dimension,
the counts must give the Euler characteristic of the blow-up of
Sym^2 G(1, 3) along its diagonal, and the labels must survive a coordinate
change and the cones in P^4 and P^5."""

from collections import Counter
from math import comb

import pytest

from hilbcomp.classify import classify, equidimensional_hull, normal_form_ideal
from hilbcomp.errors import ClassificationError
from hilbcomp.hilbert import hilbert_series, pair_hilbert_polynomial
from hilbcomp.ideals import (
    Ideal,
    _integer_partials,
    intersect,
    irrelevant_ideal,
    random_linear_change,
    saturate,
)
from hilbcomp.rings import PolyRing
from hilbcomp.tangent import hom_degree_zero

from oracles import ideal_product, torus_fixed_points

# dim Hom(I/I^2, S/I)_0 at n = 3: 4n - 4 on the smooth types, 8n - 12 at the
# points where H_3 meets the other component
TANGENT = {"I": 8, "II": 8, "III": 12, "IV": 12}

FALSE_III = "refused: the embedded structure does not sit where the two components meet"


def _ideal(gens, nv):
    ring = PolyRing(nv)
    return Ideal(ring, [ring.from_dict({g + (0,) * (nv - 4): 1}) for g in gens])


def _outcome(J):
    """classify's label, or the reason of its refusal without the figures
    it quotes, which grow with n."""
    try:
        return classify(J, seed=1).label
    except ClassificationError as e:
        return "refused: " + str(e).split(": ")[1].split(" (")[0]


@pytest.fixture(scope="module")
def points():
    return torus_fixed_points()


@pytest.fixture(scope="module")
def corpus(points):
    return [_ideal(gens, 4) for gens in points]


@pytest.fixture(scope="module")
def outcomes(corpus):
    return [_outcome(J) for J in corpus]


def test_corpus_is_the_saturated_monomial_points(corpus):
    assert len(corpus) == len({tuple(g.terms for g in J.generators) for J in corpus}) == 159
    m = irrelevant_ideal(PolyRing(4))
    for J in corpus:
        assert hilbert_series(J).hilbert_polynomial == pair_hilbert_polynomial(3)
        assert saturate(J, m) == J


def test_labels_agree_with_the_tangent_dimension(corpus, outcomes):
    for J, outcome in zip(corpus, outcomes):
        if outcome in TANGENT:
            assert hom_degree_zero(J).dimension == TANGENT[outcome], outcome


def test_fixed_point_counts_give_the_euler_characteristic(outcomes):
    counts = Counter(outcomes)
    assert counts == {
        "I": 3,
        "III": 12,
        "IV": 24,
        "refused: the ideal contains a linear form": 72,
        "refused: residual structure is not embedded in the top-dimensional part": 24,
        FALSE_III: 24,
    }
    # chi of the blow-up of Sym^2 G(1, 3) along its diagonal: C(6, 2) pairs
    # of the 6 fixed lines, and the 2 * 2 fixed points of the exceptional
    # P^3 over each of the 6 diagonal ones
    assert sum(counts[label] for label in TANGENT) == comb(6, 2) + 2 * 2 * 6


@pytest.mark.parametrize("variant", ["moved", "cone in P^4", "cone in P^5"])
def test_labels_survive_a_coordinate_change_and_cones(points, corpus, outcomes, variant):
    for k, (gens, outcome) in enumerate(zip(points, outcomes)):
        if variant == "moved":
            assert _outcome(random_linear_change(corpus[k], seed=k)) == outcome, k
            continue
        # a cone over a point with a linear form has another Hilbert
        # polynomial, so only the label, or that there is none, must stay
        got = _outcome(_ideal(gens, 5 if variant == "cone in P^4" else 6))
        assert (got if got in TANGENT else None) == (outcome if outcome in TANGENT else None), k


def test_the_type_iii_meet_has_its_closed_form(corpus, outcomes):
    # classify's type-III gate reads hull meet P^2 as l*P + (q), for the
    # hull (l, q) and P = (l) plus the partials of q; the elimination the
    # gate once ran is the oracle.  The inputs are the moved III normal
    # forms and the torus points that reach the gate, true III or not
    moved = [random_linear_change(normal_form_ideal(n, "III"), seed=n + 50) for n in (3, 4, 5)]
    reaching = [(J, o) for J, o in zip(corpus, outcomes) if o in ("III", FALSE_III)]
    assert len(reaching) == 36
    for J, outcome in [(J, "III") for J in moved] + reaching:
        hull = equidimensional_hull(J, seed=1)
        ring = hull.ring
        q, ell = hull.canonical_generators()
        P = [ell] + [ring.from_dict(p) for p in _integer_partials(q) if p]
        closed = Ideal(ring, [ell * p for p in P] + [q])
        assert intersect(hull, ideal_product(Ideal(ring, P), Ideal(ring, P))) == closed
        assert (J == closed) == (outcome == "III")
