"""Fibered lattice operators: algebra, kernels, determinants, windows."""

import itertools

import numpy as np
import pytest

from detline import _linalg
from detline._intervals import Box, BoxUnion, _axis_atoms, _cell_rep
from detline.errors import NotFiniteRank, ShapeMismatch
from detline.lattice import COEFF_TOL, FiberedLatticeOp, SlotSpace, _fibers_agree, _walk, pt_key
from detline.torus import quadrant
from detline.windows import DenseOp
from detline import circle as ci


def _probe_box(op, margin=2):
    """Box reaching `margin` past the operator's outermost breakpoints."""
    return Box(tuple((c[0] - margin, c[-1] + margin) if c else (0, 1) for c in op._grid()))


def _probe_points(op):
    return list(_probe_box(op).points())


def proj(region):
    space = SlotSpace([("h", BoxUnion.full(region.dim))])
    return FiberedLatticeOp(
        space, space, {(0, 0): [(1.0, b) for b in region.canonical_boxes()]}
    )


def test_region_algebra():
    q1, q2 = quadrant(a=2), quadrant(a=0, b=1)
    assert q1.intersect(q2) == quadrant(a=2, b=1)
    assert not q1.subtract(q1).canonical()


def test_projection_idempotent_and_nesting():
    p = proj(quadrant(a=0))
    assert not p.compose(p).sub(p).entries
    p2, p1 = proj(quadrant(a=2)), proj(quadrant(a=1))
    assert not p2.compose(p1).sub(p2).entries  # half planes nest


def test_rectangle_product():
    n, m = 3, 2
    P, Pn = proj(quadrant(a=0)), proj(quadrant(a=n))
    Q, Qm = proj(quadrant(b=0)), proj(quadrant(b=m))
    prod = P.sub(Pn).compose(Q.sub(Qm))
    cells = prod.entries[(0, 0)]
    assert len(cells) == 1
    val, box = cells[0]
    assert val == 1.0 and box == Box(((0, n), (0, m)))
    assert prod.trace_norm() == pytest.approx(n * m)


def test_identity_kernel_cokernel_and_det(fredholm_det):
    sp = SlotSpace([("a", quadrant(a=0)), ("b", quadrant(b=1))])
    ident = FiberedLatticeOp.identity(sp)
    pres = ident.presentation()
    assert pres.ker == () and pres.coker == ()
    assert ident.index() == 0
    assert fredholm_det(ident) == pytest.approx(1.0)


def test_rank_one_det_and_trace_norm(fredholm_det):
    delta = 0.37 + 0.21j
    sp = SlotSpace([("h", BoxUnion.full(1))])
    op = FiberedLatticeOp(
        sp, sp, {(0, 0): [(1.0, Box(((None, None),))), (delta, Box(((4, 5),)))]}
    )
    assert fredholm_det(op) == pytest.approx(1 + delta)
    rank1 = FiberedLatticeOp(sp, sp, {(0, 0): [(delta, Box(((2, 3),)))]})
    assert rank1.trace_norm() == pytest.approx(abs(delta))
    zero = FiberedLatticeOp(sp, sp, {})
    assert zero.trace_norm() == 0.0


def test_det_requires_identity_tail(fredholm_det):
    sp = SlotSpace([("h", BoxUnion.full(1))])
    op = FiberedLatticeOp(sp, sp, {(0, 0): [(2.0, Box(((None, None),)))]})
    with pytest.raises(AssertionError, match="not identity"):
        fredholm_det(op)
    with pytest.raises(NotFiniteRank):
        op.trace_norm()


def test_shape_mismatch():
    a = proj(quadrant(a=0))
    b = proj(BoxUnion(1, [Box(((0, None),))]))
    with pytest.raises(ShapeMismatch):
        a.compose(b)


def _random_detclass(rng, dim=2):
    sp = SlotSpace(
        [("a", BoxUnion.full(dim)), ("b", quadrant(a=-1) if dim == 2 else BoxUnion.full(dim))]
    )
    ident = FiberedLatticeOp.identity(sp)
    ents = {}
    for i in range(2):
        for j in range(2):
            cells = []
            for _ in range(2):
                lo = rng.integers(-2, 2, size=dim)
                box = Box(tuple((int(l), int(l) + int(rng.integers(1, 3))) for l in lo))
                cells.append((0.4 * complex(rng.standard_normal(), rng.standard_normal()), box))
            ents[(i, j)] = cells
    return ident.add(FiberedLatticeOp(sp, sp, ents))


def test_fredholm_det_dense_window_oracle(fredholm_det):
    rng = np.random.default_rng(8)
    for _ in range(5):
        op = _random_detclass(rng)
        val = fredholm_det(op)
        pts = _probe_points(op)
        labels = [(pt, s) for pt in pts for s in op.dom.active(pt)]
        pos = {l: i for i, l in enumerate(labels)}
        mat = np.eye(len(labels), dtype=complex)
        for pt in pts:
            m, d_a, c_a = op.fiber(pt)
            for r, i in enumerate(c_a):
                for c, j in enumerate(d_a):
                    mat[pos[(pt, i)], pos[(pt, j)]] = m[r, c]
        assert abs(val - np.linalg.det(mat)) <= 1e-10 * max(1.0, abs(val))


def test_fiber_locality_and_index_additivity():
    rng = np.random.default_rng(21)
    from detline.verify import random_fibered_op

    a = random_fibered_op(rng, 0, 1)
    b = random_fibered_op(rng, 1, -1)
    ba = b.compose(a)
    for pt in _probe_points(ba):
        m_ba, _, _ = ba.fiber(pt)
        m_b, _, _ = b.fiber(pt)
        m_a, _, _ = a.fiber(pt)
        want = m_b @ m_a if m_a.size and m_b.size else np.zeros(m_ba.shape)
        assert np.allclose(m_ba, want, atol=1e-12)
    assert ba.index() == a.index() + b.index()


# -- windowed mode ----------------------------------------------------------


def _with_singular_values(rng, rows, cols, sv):
    """A rows x cols matrix with the given singular values, randomly rotated."""
    diag = np.zeros((rows, cols), dtype=complex)
    diag[np.arange(len(sv)), np.arange(len(sv))] = sv
    return _unitary(rng, rows) @ diag @ _unitary(rng, cols)


def _presentations(matrix, monkeypatch, reference):
    """repr of the presentation and coordinate maps, rank-first and reference."""
    rows, cols = matrix.shape
    probes = [{l: 1.0 + 0.5j * l for l in range(rows)}]
    out = []
    for decompose in (DenseOp._decompose, reference):
        with monkeypatch.context() as m:
            m.setattr(DenseOp, "_decompose", decompose)
            op = DenseOp(range(cols), range(rows), matrix)
            pres = op.presentation()
            out.append(repr((pres, op._ker_frame, op.coker_coords(probes))))
    return out


def test_window_shifted_identity():
    # bilateral shift between shifted windows: bijective, index zero
    n = 32
    op = DenseOp(list(range(n)), list(range(1, n + 1)), np.eye(n))
    pres = op.presentation()
    assert pres.ker == () and pres.coker == () and op.index() == 0


def test_invertible_square_window_takes_singular_values_only(svd_flags):
    rng = np.random.default_rng(5)
    op = DenseOp(range(9), range(9), _with_singular_values(rng, 9, 9, np.linspace(3.0, 0.1, 9)))
    pres = op.presentation()
    assert pres.ker == () and pres.coker == () and op.index() == 0
    assert svd_flags == [False]
    assert op.coker_coords([{0: 1.0}]).shape == (0, 1)


def test_rank_first_matches_the_full_svd_reference(monkeypatch, full_svd_decompose, svd_flags):
    rng = np.random.default_rng(6)
    # a deficient square takes both SVDs, a rectangle the full one only
    DenseOp(range(8), range(8), _with_singular_values(rng, 8, 8, [1, 1, 1, 0, 0, 0, 0, 0])).index()
    DenseOp(range(6), range(9), rng.standard_normal((9, 6))).index()
    assert svd_flags == [False, True, True]
    # a rotated rank-deficient square, then rectangles of every kind
    shapes = [(8, 8, 5), (6, 9, 6), (6, 9, 4), (9, 6, 6), (9, 6, 3), (1, 4, 1), (4, 1, 0)]
    for rows, cols, rank in shapes:
        sv = np.concatenate([rng.uniform(0.5, 2.0, rank), np.zeros(min(rows, cols) - rank)])
        mat = _with_singular_values(rng, rows, cols, sv)
        mine, ref = _presentations(mat, monkeypatch, full_svd_decompose)
        assert mine == ref


@pytest.mark.parametrize("ratio,dim", [(1e-9, 1), (1e-7, 0)])
def test_window_rank_cut(ratio, dim, monkeypatch, full_svd_decompose):
    sv = [2.0, 1.0, 2.0 * ratio]
    for mat in (np.diag(sv), _with_singular_values(np.random.default_rng(7), 3, 3, sv)):
        op = DenseOp(range(3), range(3), mat)
        pres = op.presentation()
        assert len(pres.ker) == len(pres.coker) == dim
        mine, ref = _presentations(mat, monkeypatch, full_svd_decompose)
        assert mine == ref


def test_empty_windows():
    for rows, cols in ((0, 0), (3, 0), (0, 3)):
        op = DenseOp(range(cols), range(rows), np.zeros((rows, cols)))
        pres = op.presentation()
        assert (len(pres.ker), len(pres.coker), op.index()) == (cols, rows, cols - rows)
        assert op.coker_coords([{}]).shape == (rows, 1)


def test_window_compression_of_shift():
    one = ci.Loop.monomial(1.0, 0)
    z = ci.Loop.monomial(1.0, 1)
    for n in (8, 24):
        op = ci.WindowContext().toeplitz(z, one, n)
        pres = op.presentation()
        assert len(pres.ker) == 0 and len(pres.coker) == 1
        assert op.index() == -1
    # index of the compression equals minus the winding number
    u = ci.Loop.laurent([2.0, 1.0], 0)
    op = ci.WindowContext().toeplitz(u, one, 24)
    assert op.index() == -ci.winding_number(u) == 0


def test_window_toeplitz_matches_entrywise_reference():
    # a rectangular compression wider than the symbol band 2 BAND + 1, of a
    # symbol whose coefficients past the band are far above roundoff
    u = ci.Loop.laurent([0.3, 2.0, 0.5], -1)
    v = ci.Loop.laurent([2.0, -1.8], 3)  # 2 z^3 (1 - 0.9 z)
    op = ci.WindowContext().toeplitz(u, v, 120)
    coeffs, _ = ci.symbol_coeffs(u, v, ci.BAND)
    wide, _ = ci.symbol_coeffs(u, v, ci.BAND + 1)
    assert abs(wide[ci.BAND + 1]) > 1e-3
    ref = np.zeros((117, 120), dtype=complex)
    for j in range(117):
        for k in range(120):
            c = coeffs.get(j - k)
            if c is not None:
                ref[j, k] = c
    assert np.array_equal(op.matrix, ref)


def test_window_express_in_kernel_rejects_non_kernel_vectors():
    op = DenseOp([0, 1, 2], [0, 1], [[1, 0, 0], [0, 1, 0]])
    assert np.allclose(op.express_in_kernel([{2: 2.0}]), [[2.0]])
    with pytest.raises(np.linalg.LinAlgError):
        op.express_in_kernel([{0: 1, 2: 1}])


def _dense_frame(vecs, labels):
    return np.array([[v.get(l, 0.0) for l in labels] for v in vecs], dtype=complex)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def test_window_matches_fibered_on_monomials():
    # windowed kernel data for a monomial symbol equals the exact labels
    one = ci.Loop.monomial(1.0, 0)
    zk = ci.Loop.monomial(1.0, 2)
    op = ci.WindowContext().toeplitz(one, zk, 16)  # symbol z^-2
    pres = op.presentation()
    ker = pres.ker
    assert pres.coker == () and len(ker) == 2
    assert {l for k in ker for l in k} == {0, 1}
    # the kernel frame is (e_0, e_1), in label order
    assert np.allclose(_dense_frame(ker, op.dom_labels), np.eye(16)[:2], atol=1e-12)
    # rotating the codomain, and the domain off the kernel, changes the SVD
    # but not the subspaces, hence not the frames
    rng = np.random.default_rng(3)
    rot_dom = np.eye(16, dtype=complex)
    rot_dom[2:, 2:] = _unitary(rng, 14)
    rotated = DenseOp(op.dom_labels, op.cod_labels, _unitary(rng, 14) @ op.matrix @ rot_dom)
    rpres = rotated.presentation()
    rker = rpres.ker
    assert rpres.coker == () and len(rker) == 2
    assert np.allclose(
        _dense_frame(rker, op.dom_labels), _dense_frame(ker, op.dom_labels), atol=1e-12
    )
    half = BoxUnion(1, [Box(((0, None),))])
    dom = SlotSpace([("P", half)])
    cod = SlotSpace([("Pz", BoxUnion(1, [Box(((2, None),))]))])
    exact = FiberedLatticeOp(dom, cod, {(0, 0): [(1.0, Box(((2, None),)))]})
    epres = exact.presentation()
    assert [next(iter(k))[0] for k in epres.ker] == [(0,), (1,)] and epres.coker == ()


def test_window_frames_depend_only_on_subspaces():
    # kernel and cokernel of dimension 2: a rotation that preserves the
    # kernel, its complement, the image and its complement leaves the
    # presentation and the coordinate maps unchanged
    rng = np.random.default_rng(11)
    n, r = 7, 5
    a = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) @ (
        rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    )
    u, _, vh = np.linalg.svd(a)
    v = np.conj(vh.T)

    def preserving(basis):
        blocks = np.zeros((n, n), dtype=complex)
        blocks[:r, :r] = _unitary(rng, r)
        blocks[r:, r:] = _unitary(rng, n - r)
        return basis @ blocks @ np.conj(basis.T)

    labels = list(range(n))
    op = DenseOp(labels, labels, a)
    rotated = DenseOp(labels, labels, preserving(u) @ a @ preserving(v))
    p, q = op.presentation(), rotated.presentation()
    assert len(p.ker) == len(p.coker) == 2
    for mine, theirs in ((p.ker, q.ker), (p.coker, q.coker)):
        assert np.allclose(_dense_frame(mine, labels), _dense_frame(theirs, labels), atol=1e-9)
    probes = [{l: complex(x) for l, x in zip(labels, rng.standard_normal(n))} for _ in range(3)]
    assert np.allclose(op.coker_coords(probes), rotated.coker_coords(probes), atol=1e-9)
    assert np.allclose(op.coker_coords(list(p.coker)), np.eye(2), atol=1e-9)
    assert np.allclose(op.express_in_kernel(list(q.ker)), np.eye(2), atol=1e-9)


def test_not_fredholm_asymptotics():
    from detline.errors import NotFredholm

    sp = SlotSpace([("h", BoxUnion(1, [Box(((0, None),))]))])
    zero = FiberedLatticeOp(sp, sp, {})
    with pytest.raises(NotFredholm):
        zero.presentation()


# -- per-cell work against the per-point reference ----------------------------
#
# The references below are the per-point algorithms that the grid-cell code
# replaced: every lattice point of the probe box gets its own fiber, built
# from the entries, and its own elimination.


def _ref_fiber(op, pt):
    dom_a, cod_a = op.dom.active(pt), op.cod.active(pt)
    mat = np.zeros((len(cod_a), len(dom_a)), dtype=complex)
    for r, i in enumerate(cod_a):
        for c, j in enumerate(dom_a):
            val = 0.0
            for coeff, box in op.entries.get((i, j), ()):
                if box.contains(pt):
                    val += coeff
            mat[r, c] = val
    return mat, dom_a, cod_a


def _ref_presentation(op):
    ker, coker = [], []
    for pt in _probe_points(op):
        mat, dom_a, cod_a = _ref_fiber(op, pt)
        if not dom_a and not cod_a:
            continue
        for v in _linalg.nullspace(mat):
            ker.append({(pt, dom_a[ix]): v[ix] for ix in range(len(dom_a)) if abs(v[ix]) > COEFF_TOL})
        for r in _linalg.coker_free_rows(mat):
            coker.append({(pt, cod_a[r]): 1.0 + 0.0j})
    return ker, coker


def _ref_fredholm_det(op):
    val = 1.0 + 0.0j
    for pt in _probe_points(op):
        mat, dom_a, _ = _ref_fiber(op, pt)
        if dom_a:
            val *= _linalg.det(mat)
    return val


def _ref_trace_norm(op):
    total = 0.0
    for pt in _probe_points(op):
        mat = _ref_fiber(op, pt)[0]
        if mat.size:
            total += float(np.sum(np.linalg.svd(mat, compute_uv=False)))
    return total


def _ref_pert_labels(t1, t2, images):
    p1, p2 = t1.presentation(), t2.presentation()
    axes = zip(_probe_box(t1).axes, _probe_box(t2).axes)
    pts = list(Box(tuple((min(a[0], b[0]), max(a[1], b[1])) for a, b in axes)).points())
    exceptional = set()
    for pt in pts:
        m1, d1, c1 = _ref_fiber(t1, pt)
        m2, _, _ = _ref_fiber(t2, pt)
        if m1.shape != m2.shape or (
            m1.size and np.max(np.abs(m1 - m2)) > 1e-12 * max(1.0, np.max(np.abs(m1)))
        ):
            exceptional.add(pt)
            continue
        if len(d1) != len(c1):
            exceptional.add(pt)
            continue
        if d1 and abs(_linalg.det(m1)) < 1e-10:
            exceptional.add(pt)
    for coll in (p1.ker, p1.coker, p2.ker, p2.coker, images):
        for vec in coll:
            for (pt, _slot) in vec:
                exceptional.add(pt)
    dom_labels, cod_labels = [], []
    for pt in sorted(exceptional, key=pt_key):
        dom_labels.extend((pt, j) for j in t1.dom.active(pt))
        cod_labels.extend((pt, i) for i in t1.cod.active(pt))
    return dom_labels, cod_labels


def _finite_perturbation(rng, op, count=3, width=2):
    """op plus random coefficients on a few small boxes of its slot pairs."""
    lo = [min(op.breakpoints(ax)) for ax in range(op.dim)]
    ents = {}
    for _ in range(count):
        i, j = int(rng.integers(len(op.cod))), int(rng.integers(len(op.dom)))
        start = [x + int(rng.integers(0, 4)) for x in lo]
        box = Box(tuple((s, s + int(rng.integers(1, width + 1))) for s in start))
        coeff = 0.5 * complex(rng.standard_normal(), rng.standard_normal())
        ents.setdefault((i, j), []).append((coeff, box))
    return op.add(FiberedLatticeOp(op.dom, op.cod, ents))


def _torus_ops(rng, count):
    from detline import torus as tor

    def mono(lo=0):
        a, b = (int(x) for x in rng.integers(lo, 5, size=2))
        return tor.Monomial2(complex(*rng.uniform(0.5, 2.0, size=2)), a, b)

    def sigma():
        return tor.SigmaIndex(mono(-4))

    def gen():
        return tor.RingIdempotent.generator(mono())

    ops = []
    for _ in range(count):
        lams = [sigma() for _ in range(3)]
        p, q = gen(), gen()
        ops.append(tor.F_op(lams[0], lams[1], p, q))
        ops.append(tor.big_Omega((lams[0], lams[1]), (0, 1), (p, p)))
        ops.append(tor.big_F(lams, (0, 2), (p, gen(), q)))
        ops.append(tor.big_Omega(lams, (1, 2), (gen(), p, p)))
    return ops


def _fibered_cases():
    from detline.verify import random_fibered_op

    rng = np.random.default_rng(2024)
    ops = [random_fibered_op(rng, *(int(x) for x in rng.integers(-2, 3, size=2))) for _ in range(8)]
    # supports made of several boxes: an L-shaped slot, and its inclusion
    # from a copy with a finite hole (cokernel on the hole)
    ell = BoxUnion(2, [Box(((0, None), (0, None))), Box(((None, 0), (2, None)))])
    sp = SlotSpace([("a", ell), ("b", quadrant(b=1))])
    ops.append(_finite_perturbation(rng, FiberedLatticeOp.identity(sp), count=4, width=3))
    holed = SlotSpace([("a", ell.subtract(BoxUnion(2, [Box(((-1, 2), (1, 3)))])))])
    ops.append(FiberedLatticeOp.inclusion(holed, SlotSpace([("a", ell)]), [0]))
    return rng, ops + _torus_ops(rng, 4)


def test_fiber_is_the_per_point_fiber():
    _, ops = _fibered_cases()
    for op in ops:
        for pt in _probe_box(op, margin=5).points():
            mat, dom_a, cod_a = op.fiber(pt)
            ref, rdom, rcod = _ref_fiber(op, pt)
            assert (dom_a, cod_a) == (rdom, rcod) and np.array_equal(mat, ref)


def test_cell_presentation_matches_per_point_reference():
    _, ops = _fibered_cases()
    assert any(op.presentation().ker for op in ops) and any(op.presentation().coker for op in ops)
    for op in ops:
        pres = op.presentation()
        ker, coker = _ref_presentation(op)
        assert list(pres.ker) == ker and list(pres.coker) == coker


def test_cell_pert_labels_match_per_point_reference():
    rng, ops = _fibered_cases()
    for op in ops:
        other = _finite_perturbation(rng, op)
        probe = _probe_box(op, margin=3)
        stray = {(tuple(hi - 1 for _, hi in probe.axes), 0): 1.0}
        images = [dict(r) for r in other.presentation().coker] + [stray]
        assert op.pert_labels(other, images) == _ref_pert_labels(op, other, images)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def test_cell_det_and_trace_norm_match_per_point_reference(fredholm_det):
    rng, ops = _fibered_cases()
    dets = [_random_detclass(rng) for _ in range(4)]
    for op in ops:
        if op.dom.compatible(op.cod):
            ident = FiberedLatticeOp.identity(op.dom)
            dets.append(_finite_perturbation(rng, ident, count=4, width=3))
            if not op.compose(op).sub(ident).entries:
                dets.append(op.compose(dets[-1]).compose(op))  # Omega X Omega
    assert len(dets) >= 12
    for op in dets:
        assert _close(fredholm_det(op), _ref_fredholm_det(op))
    finite = [op.sub(_finite_perturbation(rng, op, count=5, width=3)) for op in ops]
    finite.append(proj(quadrant(a=3)).sub(proj(quadrant(a=-1))).compose(
        proj(quadrant(b=4)).sub(proj(quadrant(b=1)))))
    for op in finite:
        assert op.is_finite_box()
        assert _close(op.trace_norm(), _ref_trace_norm(op))
    assert finite[-1].trace_norm() == 12.0


def test_presentation_eliminates_once_per_grid_cell(monkeypatch):
    from detline import torus as tor

    calls = []
    real = _linalg.nullspace
    monkeypatch.setattr(_linalg, "nullspace", lambda mat, *a: calls.append(1) or real(mat, *a))
    lam = tor.SigmaIndex(tor.Monomial2(1.0, 4, -3))
    mu = tor.SigmaIndex(tor.Monomial2(2.0, -2, 4))
    p = tor.RingIdempotent.generator(tor.Monomial2(1.0, 3, 4))
    q = tor.RingIdempotent.generator(tor.Monomial2(1.0, 0, 1))
    op = tor.F_op(lam, mu, p, q)
    pres = op.presentation()
    cells = np.prod([len(op.breakpoints(ax)) + 1 for ax in range(op.dim)])
    assert pres.ker or pres.coker
    assert 0 < len(calls) <= cells < len(_probe_points(op))


# -- one solve per distinct system against the per-vector reference ----------
#
# The references solve every (point, vector) system afresh, as
# `express_in_kernel` and `coker_coords` did before they kept one solution
# per distinct system and call.


def _ref_express_in_kernel(op, vecs):
    from detline.lattice import _index_by_point, label_key

    pres = op.presentation()
    out = np.zeros((len(pres.ker), len(vecs)), dtype=complex)
    ker_by_pt = _index_by_point(pres.ker)
    for cix, v in enumerate(vecs):
        by_pt = {}
        for (pt, slot), c in v.items():
            by_pt.setdefault(pt, {})[(pt, slot)] = c
        for pt, coords in by_pt.items():
            kids = ker_by_pt.get(pt, [])
            if not kids:
                raise np.linalg.LinAlgError("vector not in kernel (no fiber)")
            labels = sorted({l for k in kids for l in pres.ker[k]} | set(coords), key=label_key)
            kmat = np.array([[pres.ker[k].get(l, 0.0) for k in kids] for l in labels], dtype=complex)
            rhs = np.array([coords.get(l, 0.0) for l in labels], dtype=complex)
            sol = _linalg.solve_exact(kmat, rhs)
            for ix, k in enumerate(kids):
                out[k, cix] += sol[ix]
    return out


def _ref_coker_coords(op, vecs):
    from detline.lattice import _index_by_point

    pres = op.presentation()
    out = np.zeros((len(pres.coker), len(vecs)), dtype=complex)
    coker_by_pt = _index_by_point(pres.coker)
    for cix, v in enumerate(vecs):
        by_pt = {}
        for (pt, slot), c in v.items():
            by_pt.setdefault(pt, {})[slot] = c
        for pt, coords in by_pt.items():
            mat, dom_a, cod_a = op.fiber(pt)
            kids = coker_by_pt.get(pt, [])
            rep_mat = np.array(
                [[pres.coker[k].get((pt, i), 0.0) for k in kids] for i in cod_a], dtype=complex
            ).reshape(len(cod_a), len(kids))
            rhs = np.array([coords.get(i, 0.0) for i in cod_a], dtype=complex)
            sol = _linalg.solve_exact(np.hstack([mat, rep_mat]), rhs)
            for ix, k in enumerate(kids):
                out[k, cix] += sol[len(dom_a) + ix]
    return out


def _probe_vectors(rng, op, count):
    """Codomain vectors with repeats: cokernel representatives, images of
    domain unit vectors, and random combinations of them."""
    pres = op.presentation()
    units = [{(pt, j): 1.0} for pt in _probe_points(op) for j in op.dom.active(pt)]
    base = [dict(r) for r in pres.coker] + [op.apply(u) for u in units[:: max(1, len(units) // 12)]]
    base = [b for b in base if b]
    out = list(base)
    for _ in range(count):
        a, b = (base[int(k)] for k in rng.integers(len(base), size=2))
        c = complex(*rng.standard_normal(2))
        out.append({l: a.get(l, 0.0) + c * b.get(l, 0.0) for l in set(a) | set(b)})
    return out + out[:3]


def test_solve_once_per_system_matches_per_vector_reference(monkeypatch):
    rng, ops = _fibered_cases()
    solves = {"new": 0, "ref": 0}
    real = _linalg.solve_exact

    def counted(side, fn, op, vecs):
        def solve(a, b, *rest):
            solves[side] += 1
            return real(a, b, *rest)

        monkeypatch.setattr(_linalg, "solve_exact", solve)
        return fn(op, vecs)

    for op in ops:
        kers = [dict(k) for k in op.presentation().ker]
        doubled = [{l: 2.0 * x for l, x in k.items()} for k in kers]
        for new, ref, vecs in (
            (FiberedLatticeOp.express_in_kernel, _ref_express_in_kernel, kers + doubled + kers[:2]),
            (FiberedLatticeOp.coker_coords, _ref_coker_coords, _probe_vectors(rng, op, 6)),
        ):
            if vecs:
                got = counted("new", new, op, vecs)
                assert np.array_equal(got, counted("ref", ref, op, vecs))
    assert solves["new"] < solves["ref"] / 2


def test_express_in_kernel_still_rejects_non_kernel_vectors():
    seg = BoxUnion(1, [Box(((0, 3),))])
    dom = SlotSpace([("a", seg), ("b", seg)])
    cod = SlotSpace([("c", seg)])
    op = FiberedLatticeOp(dom, cod, {(0, 0): [(1.0, Box(((0, 3),)))], (0, 1): [(1.0, Box(((0, 3),)))]})
    kers = [dict(k) for k in op.presentation().ker]
    assert len(kers) == 3 and all(len(k) == 2 for k in kers)  # fiber [1 1]: kernel (-1, 1)
    bad = dict(kers[1])
    bad[((1,), 0)] += 1.0
    outside = {((5,), 0): 1.0}
    # alone, and after kernel vectors that share the bad vector's system
    for vecs in ([bad], [kers[1], bad, kers[1]], [kers[0], outside]):
        with pytest.raises(np.linalg.LinAlgError):
            op.express_in_kernel(vecs)
        with pytest.raises(np.linalg.LinAlgError):
            _ref_express_in_kernel(op, vecs)
    assert np.array_equal(op.express_in_kernel(kers + kers), _ref_express_in_kernel(op, kers + kers))


# -- construction against the reference geometry -------------------------------
#
# The references are the construction geometry that the hull-restricted code
# replaced: every cell of the full breakpoint grid is visited, and inclusion
# tests containment by enumerating the grid of a difference.


def _ref_cells(boxes, dim):
    per_axis = [_axis_atoms(boxes, ax) for ax in range(dim)]
    for combo in itertools.product(*per_axis):
        yield Box(tuple(combo))


def _ref_canonical_cells(pairs, support):
    if not pairs:
        return ()
    boxes = [b for _, b in pairs] + list(support.canonical_boxes())
    out = []
    for cell in _ref_cells(boxes, support.dim):
        rep = _cell_rep(cell)
        if not support.contains(rep):
            continue
        val = sum(c for c, b in pairs if b.contains(rep))
        if abs(val) > COEFF_TOL:
            out.append((complex(val), cell))
    return tuple(out)


def _ref_subtract(a, b):
    cells = []
    for cell in _ref_cells(a.boxes + b.boxes, a.dim):
        rep = _cell_rep(cell)
        if a.contains(rep) and not b.contains(rep):
            cells.append(cell)
    return BoxUnion(a.dim, cells)


def _ref_inclusion(cls, sub, sup, positions):
    entries = {}
    for j, pos in enumerate(positions):
        if _ref_subtract(sub.slots[j].support, sup.slots[pos].support).canonical():
            raise ShapeMismatch("inclusion target does not contain source")
        entries[(pos, j)] = [(1.0, b) for b in sub.slots[j].support.canonical_boxes()]
    return cls(sub, sup, entries)


def _ref_init(self, dom, cod, entries):
    # each entry's support is always the intersection of its two slots
    if dom.slots and cod.slots and dom.dim != cod.dim:
        raise ShapeMismatch("domain/codomain lattice dimension mismatch")
    self.dom, self.cod = dom, cod
    self.dim = dom.dim if dom.slots else cod.dim
    self.entries = {}
    for (i, j), pairs in entries.items():
        if not (0 <= i < len(cod) and 0 <= j < len(dom)):
            raise ShapeMismatch("entry index out of range")
        sup = cod.slots[i].support.intersect(dom.slots[j].support)
        cells = _ref_canonical_cells(list(pairs), sup)
        if cells:
            self.entries[(i, j)] = cells
    self._pres = self._cuts = self._fibers = None


def _use_reference_geometry(monkeypatch):
    monkeypatch.setattr(FiberedLatticeOp, "__init__", _ref_init)
    monkeypatch.setattr(FiberedLatticeOp, "inclusion", classmethod(_ref_inclusion))
    monkeypatch.setattr(BoxUnion, "subtract", _ref_subtract)


def _random_box(rng, dim, span=3):
    """A box with each side bounded, or unbounded on one or both ends."""
    axes = []
    for _ in range(dim):
        lo, hi = sorted(int(x) for x in rng.choice(np.arange(-span, span + 1), 2, replace=False))
        kind = int(rng.choice(4, p=[0.55, 0.15, 0.2, 0.1]))
        axes.append([(lo, hi), (None, hi), (lo, None), (None, None)][kind])
    return Box(tuple(axes))


def _random_union(rng, dim, most=3):
    return BoxUnion(dim, [_random_box(rng, dim) for _ in range(int(rng.integers(1, most + 1)))])


def _random_op(rng, dim):
    """Multi-box slots and entries of 1-3 (coefficient, box) pairs per slot pair,
    some of which cancel."""
    dom = SlotSpace([(f"d{k}", _random_union(rng, dim)) for k in range(int(rng.integers(1, 3)))])
    cod = SlotSpace([(f"c{k}", _random_union(rng, dim)) for k in range(int(rng.integers(1, 3)))])
    entries = {}
    for i in range(len(cod)):
        for j in range(len(dom)):
            pairs = [
                (complex(*rng.standard_normal(2)), _random_box(rng, dim))
                for _ in range(int(rng.integers(1, 4)))
            ]
            if rng.random() < 0.3:
                pairs.append((-pairs[0][0], pairs[0][1]))
            entries[(i, j)] = pairs
    return FiberedLatticeOp(dom, cod, entries)


def _construction_cases():
    """Operators of every construction path, rebuilt identically on each call."""
    rng, ops = _fibered_cases()  # random_fibered_op, torus F and Omega, L-shaped and holed slots
    ops += [_random_op(rng, dim) for dim in (1, 2, 3) for _ in range(6)]
    square = [op for op in ops if op.dom.compatible(op.cod)]
    ops += [op.compose(op) for op in square]  # multi-pair entries
    ops += [op.add(_finite_perturbation(rng, op)) for op in square[:8]]
    arms = [Box(((0, None), (0, None), (None, 2))), Box(((None, 0), (2, None), (-1, 4)))]
    ell = BoxUnion(3, arms)
    holed = ell.subtract(BoxUnion(3, [Box(((-1, 2), (1, 3), (0, 1)))]))
    ops.append(FiberedLatticeOp.inclusion(SlotSpace([("a", holed)]), SlotSpace([("a", ell)]), [0]))
    return ops


def _geometry(op):
    entries = {key: [(repr(v), b) for v, b in cells] for key, cells in op.entries.items()}
    supports = [s.support.boxes for s in op.dom.slots + op.cod.slots]
    return entries, supports, op._grid()


def test_construction_matches_reference_geometry(monkeypatch):
    ops = _construction_cases()
    assert {op.dim for op in ops} == {1, 2, 3}
    assert any(len(cells) > 1 for op in ops for cells in op.entries.values())
    with monkeypatch.context() as m:
        _use_reference_geometry(m)
        refs = _construction_cases()
    assert len(ops) == len(refs)
    for op, ref in zip(ops, refs):
        assert _geometry(op) == _geometry(ref)


def test_inclusion_refuses_exactly_where_reference_containment_fails(monkeypatch):
    rng = np.random.default_rng(7)
    refused = 0
    for dim in (1, 2, 3):
        for _ in range(40):
            sub = SlotSpace([("a", _random_union(rng, dim))])
            sup = SlotSpace([("a", _random_union(rng, dim)), ("b", _random_union(rng, dim))])
            pos = int(rng.integers(2))
            try:
                ref = _ref_inclusion(FiberedLatticeOp, sub, sup, [pos])
            except ShapeMismatch:
                refused += 1
                with pytest.raises(ShapeMismatch):
                    FiberedLatticeOp.inclusion(sub, sup, [pos])
                continue
            assert _geometry(FiberedLatticeOp.inclusion(sub, sup, [pos])) == _geometry(ref)
    assert 20 < refused < 100


def test_inclusion_refuses_an_l_shaped_source_poking_out():
    ell = BoxUnion(2, [Box(((0, None), (0, None))), Box(((None, 0), (2, None)))])
    target = BoxUnion(2, [Box(((-3, None), (0, None)))])  # misses x < -3 of the upper arm
    with pytest.raises(ShapeMismatch):
        FiberedLatticeOp.inclusion(SlotSpace([("a", ell)]), SlotSpace([("a", target)]), [0])
    with pytest.raises(ShapeMismatch):
        _ref_inclusion(FiberedLatticeOp, SlotSpace([("a", ell)]), SlotSpace([("a", target)]), [0])
    wide = BoxUnion(2, [Box(((None, None), (0, None)))])
    op = FiberedLatticeOp.inclusion(SlotSpace([("a", ell)]), SlotSpace([("a", wide)]), [0])
    assert op.entries[(0, 0)] and all(v == 1.0 for v, _ in op.entries[(0, 0)])


# -- the joint cell walk against per-point lookups ----------------------------


def _far_corner(box):
    """A second point of the box: its top corner, or 5 steps into an unbounded side."""

    def far(lo, hi):
        if hi is None:
            return 7 if lo is None else lo + 5
        return hi - 1 if lo is not None else hi - 5

    return tuple(far(lo, hi) for lo, hi in box.axes)


def test_walk_reads_each_fiber_by_cell_index():
    rng = np.random.default_rng(31)
    by_dim = {}
    for op in _construction_cases():
        by_dim.setdefault(op.dim, []).append(op)
    for dim, ops in by_dim.items():
        full = SlotSpace([("h", BoxUnion.full(dim))])
        no_cuts = FiberedLatticeOp.identity(full)
        far = FiberedLatticeOp(full, full, {(0, 0): [(2.0, Box(((20, 23),) * dim))]})
        tuples = [(no_cuts,), (no_cuts, far), (far, ops[0]), (ops[0], no_cuts, far)]
        tuples += [
            tuple(ops[k] for k in rng.choice(len(ops), size=int(rng.integers(1, 5))))
            for _ in range(10)
        ]
        for group in tuples:
            cuts = [sorted(set().union(*axes)) for axes in zip(*(op._grid() for op in group))]
            counts, volume = {}, 0
            for bounded in (True, False):
                counts[bounded] = 0
                for box, pt, fibers in _walk(group, bounded):
                    counts[bounded] += 1
                    assert box.contains(pt) and box.is_finite() == bounded
                    if bounded:
                        volume += len(list(box.points()))
                    for op, (mat, dom_a, cod_a) in zip(group, fibers):
                        for q in (pt, _far_corner(box)):
                            ref, rdom, rcod = op.fiber(q)
                            assert (dom_a, cod_a) == (rdom, rcod) and np.array_equal(mat, ref)
            assert counts[True] == np.prod([max(len(c) - 1, 0) for c in cuts])
            assert counts[True] + counts[False] == np.prod([len(c) + 1 for c in cuts])
            assert volume == np.prod([c[-1] - c[0] if c else 0 for c in cuts])


def test_cell_walks_make_no_point_lookups(monkeypatch):
    rng, ops = _fibered_cases()
    others = [_finite_perturbation(rng, op) for op in ops]
    det = _random_detclass(rng)
    calls = []
    real = FiberedLatticeOp.fiber
    monkeypatch.setattr(FiberedLatticeOp, "fiber", lambda op, pt: calls.append(pt) or real(op, pt))
    for op, other in zip(ops, others):
        ident_dom, ident_cod = FiberedLatticeOp.identity(op.dom), FiberedLatticeOp.identity(op.cod)
        assert op.intertwines(op, ident_dom, ident_cod)
        assert op.finite_difference(other)
        op.pert_labels(other, [])
    assert not calls
    det.apply({((0, 0), 0): 1.0})
    assert calls == [(0, 0)]


def test_fibers_agree_needs_equal_shapes_and_is_relative():
    assert not _fibers_agree(np.zeros((1, 2)), np.zeros((2, 1)))
    assert not _fibers_agree(np.zeros((0, 1)), np.zeros((1, 0)))
    assert _fibers_agree(np.zeros((0, 1)), np.zeros((0, 1)))
    big = np.full((2, 2), 1e6)
    assert _fibers_agree(big, big + 1e-7) and not _fibers_agree(big, big + 1e-5)
    assert not _fibers_agree(np.eye(2), np.eye(2) + 1e-11)
