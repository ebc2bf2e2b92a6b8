from pbwkit.freealg import filtration_size, parse_element
from pbwkit.gradedring import PresentedRing
from pbwkit.deformation import (FilteredSubspace, extract_alpha, pn_ladder,
                                minimize_relations, rp_of)
from pbwkit.errors import InvalidPresentation
from pbwkit.extension import ExtensionEngine, build_pz, engine_for, rees_identity_check
from pbwkit.linalg import QQ, _Layout

from conftest import (NaiveEngine, annihilator_basis, certified_cut_dim, eval_z, lex_columns,
                      random_presentation, zcolumns)

X, XY, XYC = ["x"], ["x", "y"], ["x", "y", "c"]
HEISENBERG = ["x*y - y*x - c", "x*c - c*x", "y*c - c*y"]


def test_column_maps_multiply_monomials():
    # x_i· moves the monomial w z^k at column p of T[z]^n to the column of
    # x_i w z^k in T[z]^(n+1), and the word at p of T^n to x_i w in
    # T^(n+1), keeping the order, and the source of that column is (i, p);
    # a column of I^(n+1) is a pivot byte of the left products iff its
    # source is one of I^n.  The closure step moves the column c of a
    # right product by x to g·c + x, in T[z]^n and in T^n alike
    for g in (1, 2, 3):
        for n in range(4):
            for cols, up, size in ((zcolumns(g, n), zcolumns(g, n + 1), filtration_size(g, n + 1)),
                                   (lex_columns(g, n), lex_columns(g, n + 1), g ** (n + 1))):
                layout = _Layout(g, n + 1, size)
                words = sorted(cols, key=cols.get)
                for i in range(g):
                    moved = [up[(i,) + w] for w in words]
                    assert moved == sorted(moved)
                    assert layout.move(dict.fromkeys(range(len(words)), 1), i) == \
                        dict.fromkeys(moved, 1)
                    assert [layout.source(c) for c in moved] == [(i, p) for p in range(len(words))]
                below = bytearray(p % 3 == 1 for p in range(len(words)))
                want = bytearray(size)
                for p, w in enumerate(words):
                    for i in range(g):
                        want[up[(i,) + w]] = below[p]
                assert layout.mask(below, size) == want
                for x in range(g):
                    assert [up[w + (x,)] for w in words] == [g * c + x for c in range(len(words))]


def els(texts, gens):
    return [parse_element(t, gens) for t in texts]


def fs(texts, gens):
    return FilteredSubspace(len(gens), els(texts, gens))


def sympy_quotient_dims(polys, variables, upto):
    """Graded dims of a commutative quotient k[vars]/(polys): the
    independent oracle for the 1-generator central extensions, where
    T[z] = k[x, z] is genuinely commutative."""
    import sympy
    from sympy import groebner
    xs = sympy.symbols(variables)
    gb = groebner([sympy.sympify(p, dict(zip(variables, xs))) for p in polys],
                  *xs, order="grevlex")
    lts = [sympy.Poly(t, *xs).LM(order="grevlex") for t in gb.exprs]
    dims = []
    from sympy.polys.monomials import itermonomials
    for n in range(upto + 1):
        monos = [m for m in itermonomials(xs, n)
                 if sympy.Poly(m, *xs).total_degree() == n]
        surviving = 0
        for m in monos:
            mm = sympy.Poly(m, *xs).LM(order="grevlex")
            if not any(_divides(lt, mm) for lt in lts):
                surviving += 1
        dims.append(surviving)
    return dims


def _divides(a, b):
    return all(ea <= eb for ea, eb in zip(a.exponents, b.exponents))


class TestBuildPz:
    def test_tail_gets_z_squared(self):
        P = fs(["x*x + 1"], X)
        pz = build_pz(extract_alpha(P))
        assert len(pz) == 1
        assert pz[0].terms == {((0, 0), 0): QQ.one, ((), 2): QQ.one}

    def test_inclusion_keeps_no_z(self):
        P = fs(["x*y - y*x"], XY)
        pz = build_pz(extract_alpha(P))
        assert all(k == 0 for h in pz for (_, k) in h.terms)

    def test_degree_one_tail(self):
        P = fs(HEISENBERG, XYC)
        pz = build_pz(extract_alpha(P))
        comm = next(h for h in pz if len(h.terms) == 3)
        assert ((2,), 1) in comm.terms  # the c z term

    def test_ev_identities(self):
        P = fs(["x*y - y*x - x", "x*x"], XY)
        alpha = extract_alpha(P)
        rel = rp_of(P)
        for h in build_pz(alpha):
            e1 = eval_z(h, QQ.one)
            assert P.space.contains(P.basis.element_to_vec(e1))
            e0 = eval_z(h, QQ.zero)
            assert rel.blocks[e0.degree()].contains(rel.vec_of(e0))


class TestExtensionDegrees:
    def test_free(self):
        P = FilteredSubspace(2, [])
        eng = engine_for(P)
        assert [eng.dim_d(n) for n in range(5)] == [1, 3, 7, 15, 31]
        assert all(eng.annihilator_dim(n) == 0 for n in range(4))

    def test_x3_dims_match_sympy_oracle(self):
        # D = k[x, z]/(x^3, x^2 + z^2): brute-force commutative quotient
        P = fs(["x*x + 1", "x*x*x"], X)
        eng = engine_for(P)
        mine = [eng.dim_d(n) for n in range(7)]
        oracle = sympy_quotient_dims(["x**3", "x**2 + z**2"], ["x", "z"], 6)
        assert mine == oracle
        assert mine[2] == 2  # {xz, z^2} after x^2 = -z^2

    def test_heisenberg_rees_dims(self):
        # z regular: dim D^n = sum of dim A^i for i <= n
        P = fs(HEISENBERG, XYC)
        eng = engine_for(P)
        acc = 0
        for n in range(6):
            acc += (n + 2) * (n + 1) // 2
            assert eng.dim_d(n) == acc


class TestAnnihilator:
    def test_x3_witness(self):
        # the class of x z is annihilated: (xz) z = x z^2 = -x^3 = 0
        P = fs(["x*x + 1", "x*x*x"], X)
        eng = engine_for(P)
        assert eng.annihilator_dim(2) >= 1
        basis = annihilator_basis(eng, 2)
        assert [(((0,), 1), QQ.one)] in basis
        assert eng.annihilator_dim(0) == 0 and eng.annihilator_dim(1) == 0

    def test_free_all_zero(self):
        eng = engine_for(FilteredSubspace(2, []))
        assert all(eng.annihilator_dim(n) == 0 for n in range(5))

    def test_heisenberg_regular_up_to_6(self):
        eng = engine_for(fs(HEISENBERG, XYC))
        assert [eng.annihilator_dim(n) for n in range(7)] == [0] * 7


def test_counts_stop_at_saturation(monkeypatch):
    # x^2 = -1 and x^3 = 0 give 1 = 0: <P_z>^4 is all of T[z]^4.  No count
    # and no ladder builds a component past it, and the counts are those
    # of the naive engine's components, built here past degree 4
    P = fs(["x*x + 1", "x*x*x"], X)
    steps = []
    real = ExtensionEngine._step
    monkeypatch.setattr(ExtensionEngine, "_step",
                        lambda self, m: steps.append(m) or real(self, m))
    eng = engine_for(P)
    lad = pn_ladder(P, 10, eng)
    naive = NaiveEngine(P.g, extract_alpha(P), rp_of(P), QQ)
    comps = [naive.ideal_component(m) for m in range(13)]
    for m in range(12):
        assert eng.dim_d(m) == filtration_size(1, m) - comps[m].rank
        assert eng.annihilator_dim(m) == sum(c >= 1 for c in comps[m + 1].rows) \
            - comps[m].rank
        for n in range(m + 1):
            assert eng.cut_dim(m, n) == sum(c >= m - n for c in comps[m].rows)
    assert rees_identity_check(eng, 12)[2] == 3
    assert eng.gr_table(8) == [0] * 9        # U(P) = 0
    assert steps == [1, 2, 3, 4] and eng.saturated_at == lad.full_from == 4
    assert lad.dims == [comps[k].rank for k in range(12)]
    assert lad.first_failure == 2


class TestReesIdentity:
    def test_free(self):
        eng = engine_for(FilteredSubspace(2, []))
        holds, per, bad = rees_identity_check(eng, 5)
        assert holds and bad is None

    def test_heisenberg(self):
        eng = engine_for(fs(HEISENBERG, XYC))
        holds, per, bad = rees_identity_check(eng, 6)
        assert holds and all(per)

    def test_x3_fails_at_3(self):
        # regularity breaks at degree 2, the dimension identity at 3
        eng = engine_for(fs(["x*x + 1", "x*x*x"], X))
        holds, per, bad = rees_identity_check(eng, 4)
        assert not holds and bad == 3
        assert per[:3] == [True, True, True]


class TestCrossValidation:
    def test_jacobi_iff_annihilator_randomized(self, rng):
        # Desk-scale version of the acceptance spine: (J_n) <=> ann^n = 0
        for _ in range(25):
            g, elems = random_presentation(rng, max_g=2, tops_at_least_2=False)
            try:
                P = FilteredSubspace(g, elems)
            except InvalidPresentation:
                continue
            lad = pn_ladder(P, 4)
            eng = engine_for(P)
            for n in range(1, 5):
                assert lad.verdicts[n] == (eng.annihilator_dim(n) == 0), \
                    (g, [e.terms for e in elems], n)

    def test_ev0_compatibility(self, rng):
        # dim D^n - dim(zD ∩ D^n) = dim A^n
        for texts, gens in ((HEISENBERG, XYC), (["x*x + 1", "x*x*x"], X),
                            (["x*y - y*x - x", "x*x"], XY)):
            P = fs(texts, gens)
            eng = engine_for(P)
            rel = rp_of(P)
            ring_rel = minimize_relations(rel)
            ring = PresentedRing(P.g, ring_rel, QQ)
            for n in range(1, 5):
                z_image_rank = eng.dim_d(n - 1) - eng.annihilator_dim(n - 1)
                assert eng.dim_d(n) - z_image_rank == ring.hilbert_value(n)

    def test_exact_sequence_dimensions(self):
        # dim((z-1)D ∩ D^n) = dim <P>^{<=n} - dim P_n on 1-generator
        # instances where the certified stabilization bound is affordable;
        # the left side is dim D^n - dim U^{<=n} since D^n surjects onto
        # U^{<=n} with kernel (z-1)D ∩ D^n
        cases = [["x*x + x"], ["x*x + x", "x*x*x + 1"], ["x*x*x - x"]]
        for texts in cases:
            P = fs(texts, X)
            eng = engine_for(P)
            lad = pn_ladder(P, 5)
            for n in range(5):
                ideal_cut = certified_cut_dim(eng, n)
                dim_u = (n + 1) - ideal_cut
                lhs = eng.dim_d(n) - dim_u
                rhs = ideal_cut - lad.dims[n]
                assert lhs == rhs, (texts, n)
