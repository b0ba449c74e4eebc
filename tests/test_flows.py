import random
from fractions import Fraction as Q

import pytest

from gentleflow import dag, trails
from gentleflow.fixtures import DAG_FIXTURES, fixture_quiver, singleton_quiver
from gentleflow.flows import (
    Flow,
    QInterval,
    backward,
    blank_spaces,
    decompose_bundle,
    decompose_vortex,
    forward,
    indicator,
    splitting_strength,
    trace,
    trace_interval,
)
from gentleflow.quiver import DomainError
from gentleflow.trails import Band, Route, parse_walk

from oracles import (
    _oracle_step_tables,
    oracle_backward_data,
    oracle_forward_data,
    oracle_step,
    signed_head,
    solve_nonneg_band_combination,
)


def R(text):
    return Route.of(parse_walk(text))


def B(text):
    return Band.of(parse_walk(text))


def walk_str(mt):
    return trails.format_walk(mt.walk)


# -- indicators ---------------------------------------------------------------

def test_indicator_examples():
    f = fixture_quiver("kronecker")
    i1 = indicator(f, R("e1 f1^-1"))
    assert i1.values == Flow(f, {"e1": 1, "f1": 1}).values
    assert i1.strength == 1
    i2 = indicator(f, B("e2 f2^-1"))
    assert i2.values == Flow(f, {"e2": 1, "f2": 1}).values
    assert i2.strength == 0
    i3 = indicator(f, R("e1 e2 e3"))
    assert i3.values == Flow(f, {"e1": 1, "e2": 1, "e3": 1}).values


def test_flow_validation():
    f = fixture_quiver("kronecker")
    with pytest.raises(DomainError):
        Flow(f, {"e1": 1})  # conservation fails at v1
    with pytest.raises(DomainError):
        Flow(f, {"e1": -1, "e2": -1})
    with pytest.raises(DomainError):
        Flow(f, {"e1": 0.5})  # floats rejected
    with pytest.raises(DomainError):
        Flow(f, {"zz": 1})


# -- Forward / Back on the single-vertex quiver --------------------------------

def singlevertex_flow():
    f = fixture_quiver("single-vertex")
    # conservation: F(a) + F(bp) = F(b) + F(ap)
    return f, Flow(f, {"a": 1, "ap": Q(1, 2), "bp": 1, "b": Q(3, 2)})


def test_forward_branches():
    f, F = singlevertex_flow()
    for c in (Q(0), Q(1, 4), Q(1, 2)):
        assert forward(F, ("a", 1), c) == (("ap", 1), c)
    for c in (Q(3, 4), Q(1)):
        assert forward(F, ("a", 1), c) == (("b", -1), c - Q(1, 2))
    for c in (Q(0), Q(1, 2), Q(1)):
        assert forward(F, ("bp", -1), c) == (("b", -1), c + Q(1, 2))


def test_forward_zero_is_straight_continuation():
    f, F = singlevertex_flow()
    assert forward(F, ("a", 1), Q(0)) == (("ap", 1), Q(0))
    mt = trace(F, ("a", 1), Q(0))
    assert walk_str(mt) == "a ap"


def test_forward_backward_identity_interior(quiver_pool):
    rng = random.Random(11)
    cases = 0
    for pool in quiver_pool:
        f = pool.quiver
        for _ in range(6):
            F, _ = pool.random_bundle_combination(rng)
            for a in sorted(f.arrows):
                if F[a] == 0:
                    continue
                c = F[a] * Q(rng.randint(1, 96), 97)
                for eps in (1, -1):
                    if not f.is_internal(signed_head(f, a, eps)):
                        continue
                    nxt, val = forward(F, (a, eps), c)
                    back, val2 = backward(F, nxt, val)
                    assert (back, val2) == ((a, eps), c)
                    cases += 1
    assert cases >= 300


def test_forward_boundary_errors():
    f, F = singlevertex_flow()
    with pytest.raises(DomainError):
        forward(F, ("ap", 1), Q(0))  # head is fringe
    with pytest.raises(DomainError):
        backward(F, ("a", 1), Q(0))  # tail is fringe


# the single-vertex flow's arrow-flows at which each stepping function is defined
STEPS = [(forward, ("a", 1)), (backward, ("ap", 1)), (trace_interval, ("a", 1))]
STEP_IDS = ["forward", "backward", "trace_interval"]


@pytest.mark.parametrize("fn", [fn for fn, _sa in STEPS], ids=STEP_IDS)
def test_stepping_an_unknown_arrow_is_a_domain_error(fn):
    _f, F = singlevertex_flow()
    with pytest.raises(DomainError, match="unknown arrow zz"):
        fn(F, ("zz", 1), Q(0))


@pytest.mark.parametrize("fn, sa", STEPS, ids=STEP_IDS)
def test_stepping_with_a_sign_other_than_one_or_minus_one_is_a_domain_error(fn, sa):
    _f, F = singlevertex_flow()
    for eps in (0, 2, -2):
        with pytest.raises(DomainError, match="sign"):
            fn(F, (sa[0], eps), Q(0))


@pytest.mark.parametrize("fn, sa", STEPS, ids=STEP_IDS)
def test_stepping_rejects_a_float_value(fn, sa):
    _f, F = singlevertex_flow()
    with pytest.raises(DomainError, match="not an exact rational"):
        fn(F, sa, 0.5)


@pytest.mark.parametrize("fn, sa", STEPS, ids=STEP_IDS)
def test_stepping_reads_a_rational_string(fn, sa):
    _f, F = singlevertex_flow()
    assert fn(F, sa, "1/2") == fn(F, sa, Q(1, 2))


def test_forward_backward_match_the_name_keyed_oracle(quiver_pool):
    # At 0, F(a)/2, F(a), F(a) k/97 and one value outside [0, F(a)], which
    # Forward and Back accept too: the code-table step agrees with the step
    # decoded by name from the relation pairs, boundary errors included.
    rng = random.Random(97)
    cases = boundary = 0
    for pool in quiver_pool:
        f = pool.quiver
        for _ in range(3):
            F, _ = pool.random_bundle_combination(rng)
            for a in sorted(f.arrows):
                out = Q(rng.randint(1, 40), rng.randint(2, 9))
                values = (Q(0), F[a] / 2, F[a], F[a] * Q(rng.randint(1, 96), 97),
                          F[a] + out if rng.random() < 0.5 else -out)
                for c in values:
                    for eps in (1, -1):
                        for fn, data_fn in ((forward, oracle_forward_data),
                                            (backward, oracle_backward_data)):
                            cases += 1
                            try:
                                want = oracle_step(F, (a, eps), c, data_fn)
                            except DomainError:
                                boundary += 1
                                with pytest.raises(DomainError, match="boundary reached"):
                                    fn(F, (a, eps), c)
                                continue
                            assert fn(F, (a, eps), c) == want, (a, eps, c)
    assert cases >= 5000 and 0 < boundary < cases


def test_step_tables_match_the_name_keyed_oracle(quiver_pool):
    # Entry by entry, the calculus's (Forward, Back) tables are the oracle's
    # (alpha', beta, beta') decoded by name from the relation pairs, as
    # (code of alpha', code of beta^-1, rank of alpha', rank of beta'), and
    # None exactly where the head (Forward) or tail (Back) is a fringe vertex.
    quivers = [pool.quiver for pool in quiver_pool]
    quivers += [dag.fringed_quiver(dag.make_convenient(dag.parse_framed_graph(text)))
                for text in DAG_FIXTURES.values()]
    entries = ends = 0
    for f in quivers:
        code = f.calculus.universe.code
        want = _oracle_step_tables(Flow(f))
        for table, oracle, side in zip(f.calculus.steps, want, (1, -1)):
            assert len(table) == 2 * len(f.arrows)
            for (a, eps), c in code.items():
                data = oracle.get((a, eps))
                fringe_end = not f.is_internal(signed_head(f, a, side * eps))
                assert (data is None) == fringe_end, (a, eps)
                if data is None:
                    ends += 1
                    assert table[c] is None, (a, eps)
                    continue
                entries += 1
                alpha_prime, beta, beta_prime = data
                assert table[c] == (code[(alpha_prime, 1)], code[(beta, -1)],
                                    code[(alpha_prime, 1)] >> 1, code[(beta_prime, 1)] >> 1), (a, eps)
    assert entries == 880 and ends == 576


def test_mirror_equivalence(quiver_pool):
    # p_(a^e, C) == p_(a^-e, F(a)-C) as marked trails
    rng = random.Random(12)
    for pool in quiver_pool[:10]:
        f = pool.quiver
        F, _ = pool.random_bundle_combination(rng)
        for a in sorted(f.arrows):
            if F[a] == 0:
                continue
            c = F[a] * Q(rng.randint(0, 97), 97)
            m1, i1, a1 = trace_interval(F, (a, 1), c)
            m2, i2, a2 = trace_interval(F, (a, -1), F[a] - c)
            assert a1 == a2
            if m1 is not None:
                assert m1.trail == m2.trail
                assert i2 == QInterval(F[a] - i1.hi, F[a] - i1.lo,
                                       i1.hi_open, i1.lo_open)


# -- tracing goldens ------------------------------------------------------------

def test_singleton_interval():
    f = singleton_quiver()
    F = Flow(f, {"alpha": 2, "beta": 1, "gamma": 1, "delta": 1, "eps": 1})
    mt, interval, length = trace_interval(F, ("alpha", 1), Q(1))
    assert walk_str(mt) == "alpha gamma delta^-1 kappa^-1"
    assert interval == QInterval(Q(1), Q(1))
    assert length == 0
    assert walk_str(trace(F, ("alpha", 1), Q(3, 2))) == "alpha beta^-1"
    assert walk_str(trace(F, ("alpha", 1), Q(1, 2))) == "alpha gamma delta^-1 eps"


def test_gottabemarked_intervals():
    f = fixture_quiver("shard")
    F = Flow(f, {"e1": 2, "e2": 1, "e3": 1})
    mt, interval, _ = trace_interval(F, ("e1", 1), Q(1, 2))
    assert walk_str(mt) == "e1 e2 e3 e1^-1" and mt.index == 0
    assert interval == QInterval(Q(0), Q(1), True, False)
    mt2, interval2, _ = trace_interval(F, ("e1", 1), Q(3, 2))
    assert walk_str(mt2) == "e1 e3^-1 e2^-1 e1^-1" and mt2.index == 0
    assert interval2 == QInterval(Q(1), Q(2), True, False)
    # same unmarked route, different markings
    assert mt.trail == mt2.trail
    mt0, interval0, _ = trace_interval(F, ("e1", 1), Q(0))
    assert walk_str(mt0) == "e1 e2 e3 e4"
    assert interval0 == QInterval(Q(0), Q(0))


def test_interval_length_same_for_all_markings():
    f = fixture_quiver("kronecker")
    F = Flow(f, {"e1": 1, "f1": 1, "e2": Q(5, 2), "f2": Q(5, 2)})
    lengths = {}
    for tiles in F.tiles().values():
        for mt, iv in tiles:
            lengths.setdefault(mt.trail, set()).add(iv.length)
    assert lengths
    for t, ls in lengths.items():
        assert len(ls) == 1, f"{t}: {ls}"


# -- decomposition ----------------------------------------------------------------

def test_decompose_ex52():
    f = fixture_quiver("kronecker")
    p = R("f1 f2 e2^-1 f2 e2^-1 e1^-1")
    q = R("f1 f2 e2^-1 f2 e2^-1 f2 e2^-1 e1^-1")
    F = Flow(f, {a: (indicator(f, p)[a] + indicator(f, q)[a]) / 2 for a in f.arrows})
    combo = decompose_bundle(F)
    assert combo.coefficients == {p: Q(1, 2), q: Q(1, 2)}
    assert combo.strength == 1


def test_decompose_band_multiple():
    f = fixture_quiver("kronecker")
    F = Flow(f, {"e2": 3, "f2": 3})
    combo = decompose_bundle(F)
    assert combo.coefficients == {B("e2 f2^-1"): Q(3)}


def test_decompose_rejects_bad_flow():
    f = fixture_quiver("kronecker")
    with pytest.raises(DomainError):
        decompose_bundle(Flow(f, {"e2": 1}))


def test_decompose_vortex_examples():
    f = fixture_quiver("kronecker")
    # indicator(e1f1^-1) + 5*indicator(band) is NOT a valid bundle (they kiss):
    # its decomposition must differ from that naive sum
    F_bad = indicator(f, R("e1 f1^-1")).plus(indicator(f, B("e2 f2^-1")), Q(5))
    combo = decompose_bundle(F_bad)
    assert combo.coefficients != {R("e1 f1^-1"): Q(1), B("e2 f2^-1"): Q(5)}
    # the compatible composite decomposes on the nose
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, B("e2 f2^-1")), Q(5))
    vd = decompose_vortex(F)
    assert vd.routes == {R("e1 e2 e3"): Q(1)}
    assert vd.vortex == {B("e2 f2^-1"): Q(5)}


def test_decompose_vortex_only_double_kronecker():
    f = fixture_quiver("double-kronecker")
    b11 = B("e2 e3 f3^-1 f2^-1")
    F = indicator(f, b11).plus(indicator(f, b11))  # 2 * I(B_(1,1))
    vd = decompose_vortex(F)
    assert vd.routes == {}
    assert vd.vortex == {b11: Q(2)}
    # oracle: among exact nonnegative band combinations realizing F, exactly
    # one has pairwise-compatible self-compatible support
    bands = sorted(trails.enumerate_bands(f, 8), key=trails.trail_key)
    sols = solve_nonneg_band_combination(f, bands, F.values)
    calc = f.calculus
    bundle_sols = [s for s in sols
                   if all(calc.compatible(x, y) for x in s for y in s)]
    assert bundle_sols == [{b11: Q(2)}]


def test_vortex_routes_match_bundle_routes(quiver_pool):
    rng = random.Random(13)
    for pool in quiver_pool[:12]:
        F, _ = pool.random_bundle_combination(rng)
        assert decompose_vortex(F).routes == decompose_bundle(F).routes


# -- blank spaces and splitting strength ----------------------------------------------

def test_blank_spaces_card_and_positions():
    f = fixture_quiver("kronecker")
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, B("e2 f2^-1")))
    spaces = blank_spaces(F)
    routes = decompose_bundle(F).routes
    assert len(spaces) == len(f.arrows) + sum(len(p.walk) for p in routes)
    proper = {b.arrow: b.interval for b in spaces if b.proper}
    assert set(proper) == {"e2", "f2"}
    assert proper["e2"] == QInterval(Q(1), Q(2), True, True)
    assert proper["f2"] == QInterval(Q(0), Q(1), True, True)


def test_blank_spaces_clique_combination_has_none():
    f = fixture_quiver("kronecker")
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, R("e1 f1^-1")), Q(2))
    assert not any(b.proper for b in blank_spaces(F))


def test_blank_spaces_build_no_marked_trail(perfbench_gen, monkeypatch):
    # a blank space is bounded by routes: the tiles' traced markings are read
    # as they are, and no marking is built per route tile
    f = fixture_quiver("kronecker")
    F = Flow(f, perfbench_gen.winding_flow(5))
    F.markings
    built = []
    init = trails.MarkedTrail.__init__
    monkeypatch.setattr(trails.MarkedTrail, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    spaces = blank_spaces(F)
    assert not built
    assert len(spaces) == len(f.arrows) + len(perfbench_gen.winding_route(5).split())
    assert {type(x) for b in spaces for x in (b.below, b.above)} == {Route, type(None)}


def test_splitting_strength():
    f = fixture_quiver("kronecker")
    band = B("e2 f2^-1")
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, band), Q(5))
    assert splitting_strength(F, band) == 5
    # no proper blank spaces -> strength 0
    F0 = indicator(f, R("e1 e2 e3")).plus(indicator(f, R("f1 f2 f3")))
    assert splitting_strength(F0, band) == 0
    # incompatible with a route of the canonical clique -> error
    F_bad = indicator(f, R("e1 f1^-1"))
    with pytest.raises(DomainError):
        splitting_strength(F_bad, band)


def test_splitting_strength_on_an_unknown_arrow_is_a_domain_error():
    f = fixture_quiver("kronecker")
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, B("e2 f2^-1")), Q(5))
    with pytest.raises(DomainError, match="unknown arrow id zz"):
        splitting_strength(F, B("zz e2"))


def test_splitting_shrinks_proper_blanks():
    f = fixture_quiver("kronecker")
    band = B("e2 f2^-1")
    F = indicator(f, R("e1 e2 e3")).plus(indicator(f, band), Q(5))
    m = splitting_strength(F, band)
    F2 = F.plus(indicator(f, band), -m)
    before = sum(1 for b in blank_spaces(F) if b.proper)
    after = sum(1 for b in blank_spaces(F2) if b.proper)
    assert after < before


def test_decompose_single_vertex_worked_example():
    # half along each of the two walks out of `a`, plus a full unit along the
    # backward pair: the first worked bundle combination
    f, F = singlevertex_flow()
    combo = decompose_bundle(F)
    assert combo.coefficients == {
        R("a ap"): Q(1, 2),
        R("a b^-1"): Q(1, 2),
        R("b bp"): Q(1),
    }
