"""Where a trail enters a quiver: `TrailCalculus.codes` checks a trail of
another universe once, and every trail-taking function rejects a non-trail
with the same DomainError; trails the calculus built are not checked again.
The library's other DomainErrors, which no report reaches, are named here too."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from gentleflow import complexes, dag, flows, polyhedra, trails
from gentleflow.fixtures import fixture_quiver
from gentleflow.flows import trail_counts
from gentleflow.quiver import DomainError
from gentleflow.trails import (
    MarkedTrail,
    boosted_and_crisscrossed,
    countercurrent_compare,
    format_walk,
    g_vector,
    inverse_walk,
    is_elementary_band,
    is_elementary_route,
    parse_trail,
)

from oracles import oracle_is_trail

UNKNOWN = "zz"  # an arrow id of no quiver in the pool


def _empty_marking():
    t = parse_trail("")
    return MarkedTrail(t, t.codes, 0)


# foreign non-trails on kronecker that once gave an answer or the wrong exception
MOTIVATION = {
    "g_vector": lambda f: g_vector(f, parse_trail("e1 e3 f1")),
    "kiss": lambda f: f.calculus.kiss(parse_trail("e3 e1"), parse_trail("e1 e2 e3")),
    "is_elementary_route": lambda f: is_elementary_route(f, parse_trail("e3 e1")),
    "boosted_and_crisscrossed": lambda f: boosted_and_crisscrossed(f, parse_trail("e1 e3 f1")),
    "countercurrent_compare": lambda f: countercurrent_compare(f, _empty_marking(), _empty_marking()),
}


@pytest.mark.parametrize("call", MOTIVATION.values(), ids=MOTIVATION)
def test_a_foreign_non_route_is_a_domain_error(call):
    with pytest.raises(DomainError, match="^not a route of this quiver$"):
        call(fixture_quiver("kronecker"))


@pytest.mark.parametrize("text", ["band:", "band: e1", "band: e2 f2^-1 e2 f2^-1"])
def test_a_foreign_non_band_is_a_domain_error(text):
    f = fixture_quiver("kronecker")
    for call in (g_vector, trail_counts, is_elementary_band):
        with pytest.raises(DomainError, match="^not a band of this quiver$"):
            call(f, parse_trail(text))


def test_a_marked_position_outside_the_trail_is_a_domain_error():
    f = fixture_quiver("kronecker")
    p = parse_trail("e1 e2 e3")
    for m in (MarkedTrail(p, p.codes, 3), MarkedTrail(p, p.codes, -1),
              MarkedTrail(f.calculus.straight[0], f.calculus.straight[0].codes, 3)):
        with pytest.raises(DomainError, match="outside the trail"):
            countercurrent_compare(f, m, m)


def _outside_the_bundle(f):
    bundle = complexes.maximal_bundles(f, 6, 4)[-1]  # the straight routes and the band
    return complexes.distinguished_arrows(f, bundle, parse_trail("e1 f1^-1"))


# the library's own DomainErrors that no report reaches, on kronecker, and
# the one call among them that answers
LIBRARY_ERRORS = {
    "trace_interval": (lambda f: flows.trace_interval(flows.Flow(f, {"e1": 1, "e2": 1, "e3": 1}), ("e1", 1), 3),
                       "value 3 outside [0, F(e1)=1]"),
    "closure": (lambda f: polyhedra.closure(f, {UNKNOWN}), "unknown arrow zz"),
    "phi": (lambda f: polyhedra.phi(f, {UNKNOWN: 1}), "unknown arrow zz"),
    "g_face": (lambda f: polyhedra.g_face(f, set()), "arrow set is not crooked"),
    "g_facet": (lambda f: polyhedra.g_facet(f, set()), "arrow set is not barely crooked"),
    "s_coefficients": (lambda f: polyhedra.s_coefficients(f, set()),
                       "arrow set misses the straight route of e2 (not crooked)"),
    "unimodularity_check": (lambda f: polyhedra.unimodularity_check(f, []), "expected 2 bending routes, got 0"),
    "viewed_at": (lambda f: trails.markings_at(f.calculus.straight[0], "e1", 1)[0].viewed_at(UNKNOWN, 1),
                  "trail is not marked at zz^1"),
    "distinguished_arrows": (_outside_the_bundle, "trail is not a member of the bundle"),
    "from_paired": (lambda f: dag.from_paired(f, {}), "pairing does not label arrow e1"),
    "is_closed": (lambda f: polyhedra.is_closed(f, set(f.arrows)), False),
}


@pytest.mark.parametrize("call, want", LIBRARY_ERRORS.values(), ids=LIBRARY_ERRORS)
def test_library_domain_errors(call, want):
    try:
        got = call(fixture_quiver("kronecker"))
    except DomainError as err:
        got = str(err)
    assert got == want


WALK_ITEMS = {
    "bad sign": ((("e1", 2),), "the sign of an arrow is 1 or -1, not 2"),
    "bare arrow id": (("e1",), "not a signed arrow: 'e1'"),
    "list item": ((["e1", 1],), "not a signed arrow: ['e1', 1]"),
    "unknown arrow": ((("e1", 1), ("zz", -1)), "unknown arrow id zz"),
}


@pytest.mark.parametrize("walk, message", WALK_ITEMS.values(), ids=WALK_ITEMS)
def test_a_walk_item_that_is_no_signed_arrow_is_named(walk, message):
    with pytest.raises(DomainError) as err:
        trails.is_string(fixture_quiver("kronecker"), walk)
    assert str(err.value) == message


def test_trails_the_calculus_built_are_not_checked_again(monkeypatch):
    checks = []
    for module in [m for name, m in sys.modules.items() if name.startswith("gentleflow")]:
        for name in ("is_route_walk", "is_band_walk"):
            if hasattr(module, name):
                check = getattr(trails, name)
                monkeypatch.setattr(module, name, lambda f, w, check=check: checks.append(w) or check(f, w))
    f = fixture_quiver("triple-kronecker")
    assert complexes.maximal_cliques(f, 8)
    assert complexes.band_stable_cliques(f, 8, 8)
    assert polyhedra.turbulence_presentation(f).vertices
    assert polyhedra.g_polyhedron_presentation(f).vertices
    assert checks == []
    with pytest.raises(DomainError):  # the wrappers are in place
        g_vector(f, parse_trail("e1 e1"))
    assert len(checks) == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_trail_taking_functions_reject_what_the_oracle_rejects(quiver_pool, data):
    pool = quiver_pool[data.draw(st.integers(0, len(quiver_pool) - 1), label="pool index")]
    f = pool.quiver
    assert UNKNOWN not in f.arrows
    band = data.draw(st.booleans(), label="band")
    known = pool.bands if band else pool.routes
    if known and data.draw(st.booleans(), label="a trail of the pool"):
        walk = data.draw(st.sampled_from(known)).walk
        walk = inverse_walk(walk) if data.draw(st.booleans(), label="inverted") else walk
    else:
        signed = st.tuples(st.sampled_from(sorted(f.arrows) + [UNKNOWN]), st.sampled_from((1, -1)))
        walk = tuple(data.draw(st.lists(signed, max_size=8), label="walk"))
    t = parse_trail(("band: " if band else "") + format_walk(walk))
    m = MarkedTrail(t, t.codes, 0)
    calc = f.calculus

    if any(a == UNKNOWN for a, _e in walk):
        want = f"unknown arrow id {UNKNOWN}"
    elif oracle_is_trail(f, walk, band):
        want = None
    else:
        want = f"not a {'band' if band else 'route'} of this quiver"
    calls = {
        "g_vector": lambda: g_vector(f, t),
        "kiss": lambda: calc.kiss(t, calc.straight[0]),
        "is_elementary": lambda: (is_elementary_band if band else is_elementary_route)(f, t),
        "boosted_and_crisscrossed": lambda: boosted_and_crisscrossed(f, t),
        "trail_counts": lambda: trail_counts(f, t),
        "countercurrent_compare": lambda: countercurrent_compare(f, m, m),
    }
    for name, call in calls.items():
        try:  # any exception but a DomainError fails the test
            call()
            got = None
        except DomainError as exc:
            got = str(exc)
        assert got == want, (name, str(t))
