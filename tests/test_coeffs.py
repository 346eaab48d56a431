"""Coefficient cascade: pins, symmetries, derivative wiring, guard behavior."""
from __future__ import annotations

import ast
import gc
import subprocess
import tracemalloc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from pmcsurf import _cascade_gen, coeffs, jets, verify
from pmcsurf.coeffs import (CoeffCache, EvalPoint, ModelParams, check_guards,
                            eval_t, phase_quadratic_roots, t1_value, t2_value,
                            t4_skew_residual, t11_roots)
from pmcsurf.errors import ConfigError, SingularPoint, UnresolvedFormula, ZeroDenominator
from pmcsurf.family4 import default_window, family_amplitude
from pmcsurf.jets import Jet, jcos, jcot, jsin

from conftest import MODEL, random_points, richardson_fd


def point(alpha, a, abar=None, params=MODEL):
    return EvalPoint(alpha, a, abar, params=params)


# ---- value pins ----

def test_first_coefficient_exact_pin():
    # at alpha = pi/4 (so sin^2 = 1/2, cot = 1) with a = abar = 2, b = 1:
    # (-4 + 6 + 8 + 3) / (3/2 - 2) = 13 / (-1/2) = -26
    val = eval_t(1, point(np.pi / 4.0, 2.0)).value()
    assert val == pytest.approx(-26.0, rel=1e-10)


def test_first_coefficient_vanishes_at_right_angle():
    val = eval_t(1, point(np.pi / 2.0, 1.0 + 0.5j)).value()
    assert abs(val) <= 1e-12


def test_second_coefficient_closed_form():
    al, a = 0.7, 0.3 - 0.8j
    val = eval_t(2, point(al, a)).value()
    cot = np.cos(al) / np.sin(al)
    expect = 2.0 * a * (np.conj(a) - 1.0) * cot - 4.5 * np.sin(al) * np.cos(al)
    assert val == pytest.approx(expect, rel=1e-12)


# ---- symmetry sweeps ----

def test_skew_identity_on_a_thousand_points():
    pt = random_points(1000, seed=7)
    res = t4_skew_residual(pt)
    cache = CoeffCache(pt)
    scale = 1.0 + np.abs(cache.get(4).value())
    assert float(np.max(np.abs(res) / scale)) <= 1e-10


def test_skew_identity_closed_form_at_right_angle():
    # both sides reduce to -6 b (2i) (5 - 3) / (1 - 3)^2 = -6i at a = 1 + i
    pt = point(np.pi / 2.0, 1.0 + 1.0j)
    cache = CoeffCache(pt)
    skew = cache.get(4).value() - cache.get(4, conjugated=True).value()
    assert skew == pytest.approx(-6.0j, abs=1e-12)
    assert abs(t4_skew_residual(pt, cache)) <= 1e-12


def test_conjugate_pair_consistency_of_every_coefficient():
    pt = random_points(200, seed=11)
    cache = CoeffCache(pt, t9_mode="alternate")
    for i in range(1, 11):
        v = cache.get(i).value()
        w = cache.get(i, conjugated=True).value()
        scale = 1.0 + np.abs(v)
        assert float(np.max(np.abs(w - np.conj(v)) / scale)) <= 1e-12, f"id {i}"
    for i in (11, 12, 13):
        for branch in (+1, -1):
            v = cache.get(i, branch=branch).value()
            w = cache.get(i, conjugated=True, branch=branch).value()
            scale = 1.0 + np.abs(v)
            assert float(np.max(np.abs(w - np.conj(v)) / scale)) <= 1e-12, f"id {i}"


@pytest.mark.parametrize("conjugate_pair", [True, False])
def test_t9_reading_is_a_memo_key_of_one_cascade(conjugate_pair):
    # a cache per reading: the readings agree bit for bit outside t9 and
    # t11..t13, and differ at t9; the internal cascade asked for both
    # readings gives, bit for bit, what each reading's cache gives, and
    # asking for one reading does not leak into the other's memo entries
    pt = random_points(50, seed=5, conjugate_pair=conjugate_pair)
    shared = coeffs._Cascade(pt, "assume")
    printed, alternate = CoeffCache(pt), CoeffCache(pt, t9_mode="alternate")
    for i in range(1, 14):
        for order in (0, 1):
            for cj in (False, True):
                for br in ((+1, -1) if i >= 11 else (+1,)):
                    kw = dict(conjugated=cj, branch=br)
                    got = alternate.get(i, order, **kw).coeffs
                    want = printed.get(i, order, **kw).coeffs
                    key = (i, order, cj, br)
                    assert np.array_equal(shared.t(*key, "alternate").coeffs, got), (i, order, kw)
                    assert np.array_equal(shared.t(*key, "as_printed").coeffs, want), (i, order, kw)
                    if i not in (9, 11, 12, 13):
                        assert np.array_equal(got, want), (i, order, kw)
    assert not np.array_equal(printed.get(9).coeffs, alternate.get(9).coeffs)


def test_swap_rule_off_the_conjugate_pair_locus():
    pt = random_points(100, seed=3, conjugate_pair=False)
    swapped = point(pt.alpha, pt.abar, pt.a)
    c1, c2 = CoeffCache(pt), CoeffCache(swapped)
    for i in range(1, 9):
        v = c1.get(i, conjugated=True).value()
        w = c2.get(i).value()
        np.testing.assert_allclose(v, w, rtol=0, atol=1e-12 * float(np.max(1 + np.abs(w))))


def test_real_valued_members_at_conjugate_pair_points():
    pt = random_points(300, seed=5)
    cache = CoeffCache(pt)
    for i in (5, 6):
        v = cache.get(i).value()
        assert float(np.max(np.abs(v.imag) / (1.0 + np.abs(v)))) <= 1e-12, f"id {i}"


# ---- derivative wiring ----

@pytest.mark.parametrize("i", range(1, 9))
def test_jet_partials_match_finite_differences(i):
    pt = random_points(30, seed=100 + i)
    jet = eval_t(i, pt, order=1)
    for var in range(3):
        def f(h):
            args = [pt.alpha, pt.a, pt.abar]
            args[var] = args[var] + h
            return eval_t(i, point(*args)).value()
        fd = richardson_fd(f, 0.0)
        got = jet.partial(var)
        scale = 1.0 + np.abs(fd)
        assert float(np.max(np.abs(got - fd) / scale)) <= 1e-5, f"id {i} var {var}"


def test_higher_order_jets_nest_consistently():
    pt = random_points(20, seed=42)
    j2 = eval_t(3, pt, order=2)
    j1 = eval_t(3, pt, order=1)
    np.testing.assert_allclose(j2.value(), j1.value(), rtol=1e-13)
    for var in range(3):
        np.testing.assert_allclose(j2.partial(var), j1.partial(var), rtol=1e-12)


# ---- phase quadratic ----

def test_phase_quadratic_double_root():
    r1, r2 = phase_quadratic_roots(1.0, -2.0, 1.0)
    assert r1 == pytest.approx(1.0) and r2 == pytest.approx(1.0)


def test_phase_quadratic_roots_satisfy_their_equation():
    pt = random_points(50, seed=23)
    cache = CoeffCache(pt, t9_mode="alternate")
    t9 = cache.get(9).value()
    t9b = cache.get(9, conjugated=True).value()
    t10 = cache.get(10).value()
    t6 = cache.get(6).value()
    for x in t11_roots(cache):
        res = t9 * x + t9b * (t6 / x) + t10
        scale = 1.0 + np.abs(t9 * x) + np.abs(t10)
        assert float(np.max(np.abs(res) / scale)) <= 1e-9
    # where the two roots are a conjugate pair they carry the stated modulus
    # and the equation collapses to a real linear condition
    r1, r2 = t11_roots(cache)
    pair = np.abs(r1 - np.conj(r2)) <= 1e-9 * (1.0 + np.abs(r1))
    if pair.any():
        x = r1[pair]
        lin = 2.0 * (t9[pair] * x).real + t10[pair]
        assert float(np.max(np.abs(x) ** 2 - t6[pair].real)) <= 1e-8
        assert float(np.max(np.abs(lin))) <= 1e-8 * float(np.max(1 + np.abs(t10[pair])))


def test_phase_quadratic_conjugates_under_swap():
    # replacing a conjugate-pair point by its mirror (a -> conj a) conjugates
    # every cascade coefficient, so the roots come back conjugated too
    pt = random_points(40, seed=31)
    swapped = point(pt.alpha, np.conj(pt.a))
    r1, r2 = t11_roots(CoeffCache(pt, t9_mode="alternate"))
    s1, s2 = (np.conj(x) for x in t11_roots(CoeffCache(swapped, t9_mode="alternate")))
    straight = np.abs(s1 - r1) + np.abs(s2 - r2)
    crossed = np.abs(s1 - r2) + np.abs(s2 - r1)
    scale = 1.0 + np.abs(r1) + np.abs(r2)
    assert float(np.max(np.minimum(straight, crossed) / scale)) <= 1e-8


def test_amplitude_derivative_is_a_phase_quadratic_root_on_the_family():
    # the explicit-family amplitude satisfies the quadratic's alternate
    # reading; the as-printed reading misses by orders of magnitude
    ts = np.linspace(0.82, 1.2, 40)
    a = family_amplitude(ts, 2.0)
    pt = point(ts, a)
    cache = CoeffCache(pt, t9_mode="alternate")
    t1 = cache.get(1).value()
    t2 = cache.get(2).value()
    a1 = -a * t1 + (a + 1.0) * t2 / (np.conj(a) + 1.0)
    r1, r2 = t11_roots(cache)
    dist = np.minimum(np.abs(r1 - a1), np.abs(r2 - a1)) / (1.0 + np.abs(a1))
    assert float(np.max(dist)) <= 1e-6
    p1, p2 = t11_roots(CoeffCache(pt))
    dist_p = np.minimum(np.abs(p1 - a1), np.abs(p2 - a1)) / (1.0 + np.abs(a1))
    assert float(np.min(dist_p)) >= 1e-4


def test_swap_mirror_shares_the_trig_block(monkeypatch):
    calls = {"sin": [], "cos": []}

    def counting(name, fn):
        def wrapped(al):
            calls[name].append(al.order)
            return fn(al)
        return wrapped

    monkeypatch.setattr(coeffs, "jsin", counting("sin", jsin))
    # jets.jcos too, so a cotangent built by jets.jcot would count as well
    for owner in (coeffs, jets):
        monkeypatch.setattr(owner, "jcos", counting("cos", jcos))
    cache = CoeffCache(random_points(5, seed=3, conjugate_pair=False))
    cache.get(1, 2)
    cache.get(1, 2, conjugated=True)
    assert calls == {"sin": [2], "cos": [2]}
    # the cotangent from the block's own sin and cos is jcot's, bit for bit
    al = Jet.variable(0, cache.point.alpha, 2)
    tr = cache._cascade.trig(2)
    assert tr["cot"].coeffs.tobytes() == jcot(al).coeffs.tobytes()


# ---- guards and modes ----

def test_singularity_guards_reject_bad_points():
    with pytest.raises(SingularPoint):
        CoeffCache(point(float(np.arcsin(np.sqrt(2.0 / 3.0))), 0.5 + 0.5j))
    with pytest.raises(SingularPoint):
        CoeffCache(point(1e-12, 0.5 + 0.5j))
    with pytest.raises(SingularPoint):
        check_guards(point(np.array([0.7, np.nan]), 0.5 + 0.5j))
    check_guards(point(0.7, 0.5 + 0.5j))   # clean point passes silently


@pytest.mark.parametrize("rho,b", [(np.nan, 1.0), (-3.0, np.inf), (-3.0, 0.0), (-3.0, -1.0)])
def test_model_parameters_are_validated_on_construction(rho, b):
    with pytest.raises(ConfigError):
        ModelParams(rho=rho, b=b)


def test_flat_ambient_space_has_no_sixth_coefficient():
    pt = point(0.7, 0.5 + 0.5j, params=ModelParams(rho=0.0, b=1.0))
    cache = CoeffCache(pt)
    cache.get(5)   # no rho division up to here
    with pytest.raises(ZeroDenominator):
        cache.get(6)


def test_reject_mode_blocks_the_unreconciled_formula():
    pt = random_points(5, seed=1)
    cache = CoeffCache(pt, appendix_reconciliation="reject")
    cache.get(9)   # the ambiguity below ten is a mode, not a damaged formula
    with pytest.raises(UnresolvedFormula):
        cache.get(10)
    with pytest.raises(UnresolvedFormula):
        cache.get(11)


def test_invalid_ids_and_modes_rejected():
    pt = random_points(2, seed=2)
    with pytest.raises(ValueError):
        eval_t(14, pt)
    with pytest.raises(ValueError):
        eval_t(0, pt)
    with pytest.raises(ValueError):
        CoeffCache(pt, t9_mode="sideways")
    with pytest.raises(ValueError):
        CoeffCache(pt, appendix_reconciliation="maybe")


# ---- order-0 evaluators ----

# b = 1 at MODEL hides a factor b that is multiplied where it should divide
OFF_MODEL = ModelParams(rho=-1.5, b=0.5)


@pytest.mark.parametrize("params,conjugate_pair",
                         [(MODEL, True), (MODEL, False), (OFF_MODEL, True), (OFF_MODEL, False)],
                         ids=["True", "False", "off-model-True", "off-model-False"])
def test_order_zero_values_match_the_cascade(params, conjugate_pair):
    pt = random_points(200, seed=11, params=params, conjugate_pair=conjugate_pair)
    cache = CoeffCache(pt)
    np.testing.assert_allclose(t1_value(pt.alpha, pt.a, params), cache.get(1).value(),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(t2_value(pt.alpha, pt.a, pt.abar, params), cache.get(2).value(),
                               rtol=1e-12, atol=0.0)


# ---- the generated straight-line cascade the verifier reads ----

def _arc_points(params: ModelParams, conjugate_pair: bool, n: int = 300, seed: int = 0):
    """Points on the family amplitude arcs of c1 = 2, 3 and -1, over the window
    (family4.default_window) that family surfaces use.

    t10 and t9 "alternate" are long sums that cancel: at generic points both
    the jets and the generated code lose digits alike (up to ~2e-8 relative,
    each against a 60-digit reference), so the oracle compares them where the
    verifier evaluates them and the cascade is well conditioned.
    """
    rng = np.random.default_rng(seed)
    alpha, a = [], []
    for c1 in (2.0, 3.0, -1.0):
        t = rng.uniform(*default_window(c1), n)
        alpha.append(t)
        a.append(family_amplitude(t, c1))
    alpha, a = np.concatenate(alpha), np.concatenate(a)
    abar = np.conj(a)
    if not conjugate_pair:
        abar = abar + 0.1 * (rng.uniform(-1.0, 1.0, a.size) + 1j * rng.uniform(-1.0, 1.0, a.size))
    return EvalPoint(alpha, a, abar, params=params)


@pytest.mark.parametrize("params", [MODEL, OFF_MODEL], ids=["model", "other"])
@pytest.mark.parametrize("conjugate_pair", [True, False], ids=["pair", "off-pair"])
def test_generated_cascade_matches_the_jet_cascade(params, conjugate_pair):
    pt = _arc_points(params, conjugate_pair)
    caches = [CoeffCache(pt, t9_mode=m) for m in coeffs.T9_READINGS]
    want = ([caches[0].get(i).value() for i in _cascade_gen.T_IDS]
            + [cache.get(9).value() for cache in caches])
    got = _cascade_gen.cascade_values(pt.alpha, pt.a, pt.abar, params.rho, params.b,
                                      *verify._arena(pt.alpha.size))
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-12 * (1.0 + np.abs(w))), k
    # the two t9 readings differ, so each output is checked against its own reading
    assert not np.allclose(want[-1], want[-2])


def _generated(pt: EvalPoint, lo: int, hi: int) -> list:
    """Copies of the generated values at nodes lo..hi-1 of pt, from one call."""
    return [v.copy() for v in _cascade_gen.cascade_values(
        pt.alpha[lo:hi], pt.a[lo:hi], pt.abar[lo:hi], MODEL.rho, MODEL.b,
        *verify._arena(hi - lo))]


@pytest.mark.parametrize("conjugate_pair", [True, False], ids=["pair", "off-pair"])
def test_generated_cascade_bits_do_not_depend_on_the_batch_size(conjugate_pair):
    # above 16384 complex nodes a numpy temporary reaches 256 KiB, where an
    # operator may compute x * tmp in place as tmp * x; the arena's ufunc
    # calls keep their written operand order at any size
    pt = _arc_points(MODEL, conjugate_pair, n=5600)
    n = pt.alpha.size
    assert n > 16384
    whole = _generated(pt, 0, n)
    chunks = [_generated(pt, lo, min(lo + 2048, n)) for lo in range(0, n, 2048)]
    for k, w in enumerate(whole):
        assert np.concatenate([c[k] for c in chunks]).tobytes() == w.tobytes(), k
    for i in range(0, n, 331):   # single nodes across the batch
        assert [v.tobytes() for v in _generated(pt, i, i + 1)] == [w[i:i + 1].tobytes()
                                                                 for w in whole], i


def test_generated_cascade_allocates_no_array():
    # every temporary is a row of the caller's arena, so one call's traced
    # peak is the row views and numpy's casting buffers, not 200-odd arrays
    pt = _arc_points(MODEL, True, n=700)
    alpha, a, abar = pt.alpha[:2048].copy(), pt.a[:2048].copy(), pt.abar[:2048].copy()
    arena = verify._arena(alpha.size)
    tracemalloc.start()
    try:
        values = _cascade_gen.cascade_values(alpha, a, abar, MODEL.rho, MODEL.b, *arena)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.shares_memory(v, arena[1]) for v in values)
    assert peak < 0.3 * 2 ** 20, peak


def _slot_flow(node, slots: set, written: set):
    """Walk node in Python's evaluation order, checking each ufunc call into
    an arena row: no read of a row before it is written, and no call whose
    out (its last argument) is a row it reads. The row node leaves its value
    in, else None."""
    if isinstance(node, ast.Name):
        if node.id not in slots:
            return None
        assert node.id in written, f"{node.id} read before it is written"
        return node.id
    if isinstance(node, ast.Call) and isinstance(getattr(np, ast.unparse(node.func), None),
                                                 np.ufunc):
        *args, out = node.args
        assert len(args) == getattr(np, node.func.id).nin and not node.keywords
        read = {_slot_flow(x, slots, written) for x in args}
        assert isinstance(out, ast.Name) and out.id in slots, ast.unparse(node)
        assert out.id not in read, f"{ast.unparse(node)} writes a row it reads"
        written.add(out.id)
        return out.id
    for child in ast.iter_child_nodes(node):
        _slot_flow(child, slots, written)
    return None


def test_generated_cascade_never_writes_a_row_it_reads():
    # with an out allowed to alias an input, t10 and t9 alternate moved bits
    # at one node, so the rule is checked on the module's text
    tree = ast.parse(Path(_cascade_gen.__file__).read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "cascade_values")
    doc, unpack_f, unpack_c, *body = fn.body
    rows = {}
    for stmt, arena in ((unpack_f, "F"), (unpack_c, "C")):
        assert isinstance(stmt, ast.Assign) and ast.unparse(stmt.value) == arena
        rows[arena] = [t.id for t in stmt.targets[0].elts]
    assert rows == {"F": [f"f{k}" for k in range(_cascade_gen.NF)],
                    "C": [f"c{k}" for k in range(_cascade_gen.NC)]}
    slots, written = set(rows["F"] + rows["C"]), set()
    for stmt in body:
        _slot_flow(stmt, slots, written)
    assert written == slots   # NF and NC are the rows the calls use
    assert isinstance(body[-1], ast.Return) and len(body[-1].value.elts) == (
        len(_cascade_gen.T_IDS) + len(coeffs.T9_READINGS))


def test_generated_cascade_module_is_up_to_date():
    sympy = pytest.importorskip("sympy")
    if sympy.__version__ != _cascade_gen.SYMPY_VERSION:
        pytest.skip(f"module written by sympy {_cascade_gen.SYMPY_VERSION}, "
                    f"sympy {sympy.__version__} installed")
    script = Path(__file__).resolve().parents[1] / "scripts" / "gen_cascade.py"
    proc = subprocess.run([sys.executable, str(script), "--check"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_cache_and_its_mirror_are_freed_without_the_collector():
    # the swap mirror points back weakly, so refcounting alone frees a cache's jets
    enabled = gc.isenabled()
    gc.disable()   # no collection to hide a reference cycle
    try:
        cache = CoeffCache(random_points(16, seed=5, conjugate_pair=False))
        cache.get(9, conjugated=True)
        refs = [weakref.ref(c) for c in (cache._cascade, cache._cascade.mirror())]
        assert all(ref() is not None for ref in refs)
        del cache
        assert all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
