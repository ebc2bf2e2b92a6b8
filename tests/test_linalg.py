import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from pbwkit.errors import InvariantViolation, ValidationError
from pbwkit.linalg import QQ, PrimeField, RowSpace, left_kernel_basis, span

from conftest import DenseEchelon, copied, dense_rank, inserted, intersection


def vecs(entries, field=QQ):
    """Dense integer rows as dict vectors over ``field``."""
    return [{c: field.from_int(x) for c, x in enumerate(row) if x}
            for row in entries]


def columns(entries):
    """The columns of a dense matrix as dict vectors: the left kernel of
    the columns is the (right) kernel of the matrix."""
    return vecs([list(col) for col in zip(*entries)])


class TestRref:
    def test_proportional_rows(self):
        r = span(QQ, vecs([[2, 4], [1, 2]])).reduced_basis()
        assert r == [{0: QQ.one, 1: QQ.from_int(2)}]

    def test_identity_fixed(self):
        rows = vecs([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert span(QQ, rows).reduced_basis() == rows

    def test_idempotent_and_rank(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            sp = span(QQ, vecs(rows))
            r = sp.reduced_basis()
            assert len(r) == sp.rank == dense_rank(rows)
            again = span(QQ, r)
            assert again.reduced_basis() == r
            assert again.equals_space(sp)


class TestKernel:
    def test_single_row(self):
        k = left_kernel_basis(QQ, columns([[1, 1]]), 1)
        assert len(k) == 1
        v = k[0]
        assert v.get(0, 0) + v.get(1, 0) == 0 and v

    def test_identity(self):
        assert left_kernel_basis(QQ, columns([[1, 0], [0, 1]]), 2) == []

    def test_zero_matrix(self):
        assert len(left_kernel_basis(QQ, columns([[0, 0, 0], [0, 0, 0]]), 2)) == 3

    def test_kernel_annihilates(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
            k = left_kernel_basis(QQ, columns(rows), 3)
            assert len(k) == 6 - dense_rank(rows)
            for v in k:
                for r in rows:
                    assert sum(r[c] * s for c, s in v.items()) == 0


class TestSubspaceOps:
    def test_transverse_lines(self):
        a, b = vecs([[1, 0]]), vecs([[0, 1]])
        assert intersection(QQ, a, b, 2) == []
        assert span(QQ, a + b).rank == 2
        assert not span(QQ, a).contains(b[0])

    def test_contains(self):
        big = span(QQ, vecs([[1, 0, 0], [0, 1, 0]]))
        assert big.contains_space(span(QQ, vecs([[2, 3, 0]])))
        assert not big.contains(vecs([[0, 0, 1]])[0])


@st.composite
def small_matrix_pair(draw):
    ncols = draw(st.integers(2, 5))
    def mat():
        nrows = draw(st.integers(1, 4))
        return [[draw(st.integers(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
    return ncols, mat(), mat()


@settings(max_examples=60, deadline=None)
@given(small_matrix_pair())
def test_dimension_formula(pair):
    ncols, a, b = pair
    sa, sb = span(QQ, vecs(a)), span(QQ, vecs(b))
    inter = intersection(QQ, vecs(a), sb.basis(), ncols)
    assert len(inter) + span(QQ, vecs(a + b)).rank == sa.rank + sb.rank
    # the intersection really is contained in both
    assert all(sa.contains(v) and sb.contains(v) for v in inter)


def test_fp_agrees_with_q_on_random_integer_matrices():
    # ranks agree whenever no Q-pivot denominator is divisible by p; with a
    # large prime that is virtually always, and we verify the precondition
    rng = random.Random(11)
    p = 1000003
    fp = PrimeField(p)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
        sq = span(QQ, vecs(rows))
        denominators_ok = all(
            s.denominator % p for row in sq.reduced_basis() for s in row.values())
        if denominators_ok:
            assert span(fp, vecs(rows, fp)).rank == sq.rank


# ---------------------------------------------------------------------------
# Tagged elimination (RowSpace.relate) against the dense oracle.

@st.composite
def relate_case(draw):
    p = draw(st.sampled_from([None, 7]))
    ncols = draw(st.integers(1, 6))
    vector = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, 3, Fraction(1, 2),
                                       Fraction(-2, 3)]),
                      min_size=ncols, max_size=ncols)
    a = draw(st.lists(vector, min_size=1, max_size=5))
    b = draw(st.lists(vector, min_size=1, max_size=5))
    cs = draw(st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    return p, ncols, a, b, cs


class RelateCase:
    """One drawn case: the field, its rows as dict vectors, and the dense
    oracle's rank."""

    def __init__(self, case):
        self.p, self.ncols, a, b, self.cs = case
        self.field = QQ if self.p is None else PrimeField(self.p)
        self.a = [self.sparse(r) for r in a]
        self.b = [self.sparse(r) for r in b]

    def sparse(self, dense):
        out = {}
        for c, x in enumerate(dense):
            s = self.field.from_fraction(Fraction(x))
            if s:
                out[c] = s
        return out

    def rank(self, vectors, ncols):
        oracle = DenseEchelon(ncols, self.p)
        for v in vectors:
            dense = [0] * ncols
            for c, s in v.items():
                dense[c] = s if self.p is None else s.v
            oracle.insert(dense)
        return len(oracle.rows)

    def combine(self, coeffs, rows):
        out = {}
        for c, r in zip(coeffs, rows):
            for k, s in r.items():
                out[k] = out.get(k, self.field.zero) + c * s
        return {k: s for k, s in out.items() if s}


@settings(max_examples=150, deadline=None)
@given(relate_case())
def test_relate_left_kernel(case):
    t = RelateCase(case)
    rows = t.a + t.b
    ker = left_kernel_basis(t.field, rows, t.ncols)
    assert len(ker) == len(rows) - t.rank(rows, t.ncols)
    for combo in ker:
        assert combo and max(combo) < len(rows)
        coeffs = [combo.get(i, t.field.zero) for i in range(len(rows))]
        assert t.combine(coeffs, rows) == {}
    assert t.rank(ker, len(rows)) == len(ker)


@settings(max_examples=150, deadline=None)
@given(relate_case())
def test_relate_left_kernel_scaled_rows(case):
    # row i given scaled by L_i with the tag L_i: the kernel is exact for
    # the unscaled rows
    t = RelateCase(case)
    rows = t.a + t.b
    scales = [abs(t.cs[i % len(t.cs)]) + i % 2 + 1 for i in range(len(rows))]
    scaled = [{c: s * t.field.from_int(L) for c, s in r.items()}
              for r, L in zip(rows, scales)]
    ker = left_kernel_basis(t.field, scaled, t.ncols, tags=scales)
    assert len(ker) == len(rows) - t.rank(rows, t.ncols)
    for combo in ker:
        coeffs = [combo.get(i, t.field.zero) for i in range(len(rows))]
        assert t.combine(coeffs, rows) == {}
    assert t.rank(ker, len(rows)) == len(ker)


@settings(max_examples=150, deadline=None)
@given(relate_case())
def test_relate_intersection(case):
    t = RelateCase(case)
    b_basis = span(t.field, t.b).basis()
    inter = intersection(t.field, t.a, b_basis, t.ncols)
    rank_a, rank_b = t.rank(t.a, t.ncols), t.rank(t.b, t.ncols)
    assert len(inter) == rank_a + rank_b - t.rank(t.a + t.b, t.ncols)
    assert t.rank(inter, t.ncols) == len(inter)
    sa, sb = span(t.field, t.a), span(t.field, t.b)
    assert all(sa.contains(v) and sb.contains(v) for v in inter)


@settings(max_examples=150, deadline=None)
@given(relate_case())
def test_relate_coords_round_trip(case):
    t = RelateCase(case)
    rows = span(t.field, t.a).basis()
    acc = RowSpace(t.field)
    for k, r in enumerate(rows):
        aug = dict(r)
        aug[t.ncols + k] = t.field.one
        assert acc.relate(aug, t.ncols) is None
    coeffs = [t.field.from_int(c) for c in t.cs[:len(rows)]]
    vec = t.combine(coeffs, rows)
    want = {k: -c for k, c in enumerate(coeffs) if c}
    # a probe that lands in the tags leaves the space as it was
    assert acc.relate(vec, t.ncols) == want
    assert acc.relate(vec, t.ncols) == want
    assert acc.rank == len(rows)
    outside = [c for c in range(t.ncols) if not span(t.field, rows).contains({c: t.field.one})]
    if outside:
        assert acc.relate({outside[0]: t.field.one}, t.ncols) is None
        assert acc.rank == len(rows) + 1


def test_unnormalised_store_raises():
    # an F_p row must be monic, else _reduce never clears its pivot
    # column; a Q row needs a positive pivot entry
    for field, vec in ((PrimeField(7), {0: 3, 2: 1}), (QQ, {0: -1, 2: 1})):
        sp = RowSpace(field)
        with pytest.raises(InvariantViolation):
            sp._store(vec, 0, (), normal=True)
        assert sp.rank == 0
    sp = RowSpace(PrimeField(7))
    assert sp._store({0: 1, 2: 3}, 0, (), normal=True) == (0, None)


def test_prime_field_validation():
    with pytest.raises(ValidationError):
        PrimeField(10)
    f7 = PrimeField(7)
    x = f7.from_fraction(Fraction(1, 2))
    assert x * f7.from_int(2) == f7.one


# ---------------------------------------------------------------------------
# RowSpace against the dense oracle.

KERNEL_ENTRIES = [0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3),
                  Fraction(5, 10**12), 10**20 + 7, -(3**40)]


@st.composite
def kernel_case(draw):
    p = draw(st.sampled_from([None, 7, 32003]))
    ncols = draw(st.integers(1, 7))
    vector = st.lists(st.sampled_from(KERNEL_ENTRIES), min_size=ncols,
                      max_size=ncols)
    rows = draw(st.lists(vector, min_size=1, max_size=6))
    probes = draw(st.lists(vector, min_size=1, max_size=3))
    return p, ncols, rows, probes


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_rowspace_matches_dense_oracle(case):
    p, ncols, rows, probes = case
    field = QQ if p is None else PrimeField(p)

    def sparse(dense):
        out = {}
        for c, x in enumerate(dense):
            s = field.from_fraction(Fraction(x))
            if s:
                out[c] = s
        return out

    def oracle_value(x):
        x = Fraction(x)
        return x if p is None else x.numerator * pow(x.denominator, -1, p) % p

    def as_dense(vec):
        out = [oracle_value(0)] * ncols
        for c, s in vec.items():
            out[c] = s if p is None else s.v
        return out

    def plain_ints(dense, zero=True):
        """The row times the lcm of its denominators as plain ints (the
        same row over F_p, whose p divides none of them); with ``zero`` an
        explicit 0 entry too, at a zero column or else one past the last."""
        den = lcm(*[Fraction(x).denominator for x in dense])
        out = {c: int(Fraction(x) * den) for c, x in enumerate(dense) if x}
        if zero:
            out[next((c for c, x in enumerate(dense) if not x), ncols)] = 0
        return out

    sp = RowSpace(field)
    scaled = RowSpace(field)
    ints = RowSpace(field)
    oracle = DenseEchelon(ncols, p)
    for r in rows:
        expect = oracle.insert([oracle_value(x) for x in r])
        vec = sparse(r)
        kept = dict(vec)
        assert sp.insert(vec) == expect
        # insertion does not depend on the scale of its input, nor on its
        # scalars being field elements, and leaves its argument as it was
        scaled.insert({c: s * field.from_fraction(Fraction(-5, 3))
                       for c, s in vec.items()})
        vec_ints = plain_ints(r)
        kept_ints = dict(vec_ints)
        assert ints.insert(vec_ints) == expect
        assert vec == kept and vec_ints == kept_ints
    pivots = sorted(oracle.rows)
    assert sorted(sp.pivots) == pivots and sp.rank == len(pivots)
    assert scaled.rows == sp.rows and ints.rows == sp.rows
    assert [as_dense(r) for r in sp.basis()] == [oracle.rows[c] for c in pivots]
    reduced = oracle.reduced()
    assert [as_dense(r) for r in sp.reduced_basis()] == [reduced[c] for c in pivots]
    for r in rows + probes:
        dense = [oracle_value(x) for x in r]
        lead = oracle.reduce_leading(dense)
        assert as_dense(sp.reduce_full(sparse(r))) == oracle.reduce_full(dense)
        assert sp.contains(sparse(r)) == (not any(lead))
        vec_ints = plain_ints(r, zero=False)
        kept_ints = dict(vec_ints)
        assert sp.contains(vec_ints) == (not any(lead)) and vec_ints == kept_ints
    for c, row in sp.rows.items():
        assert all(type(s) is int and s for s in row.values())
        if p is None:
            assert gcd(*row.values()) == 1 and row[c] > 0
        else:
            assert row[c] == 1 and all(0 < s < p for s in row.values())
        assert sp.pivots[c][c] == field.one


def test_reduce_full_integers_cancels_the_content():
    # {0: 1, 1: -3} reduces to {1: -27} with scale 10 and content 27, so
    # the integer remainder takes the content back over the denominator 10
    sp = span(QQ, [{0: QQ.one, 1: Fraction(-3, 10)}])
    assert sp.reduce_full({0: 1, 1: -3}, integers=True) == ({1: -27}, 10)
    assert sp.reduce_full({0: 1, 1: -3}) == {1: Fraction(-27, 10)}


@pytest.mark.parametrize("p", [None, 7])
def test_reduce_full_integers_matches_exact(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(17 + (p or 0))

    def vec(ncols):
        out = {}
        for c in range(ncols):
            s = field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            if s:
                out[c] = s
        return out

    for _ in range(200):
        ncols = rng.randint(1, 6)
        sp = span(field, [vec(ncols) for _ in range(rng.randint(1, 4))])
        probe = vec(ncols)
        red, d = sp.reduce_full(probe, integers=True)
        assert d > 0 and all(type(s) is int and s for s in red.values())
        if p is not None:
            assert d == 1 and all(0 < s < p for s in red.values())
        assert {c: field.from_int(s) / field.from_int(d) for c, s in red.items()} \
            == sp.reduce_full(probe)


@pytest.mark.parametrize("p", [None, 7])
def test_store_shifted(p):
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(5)
    src = RowSpace(field)
    for _ in range(4):
        src.insert({c: field.from_int(rng.randint(-4, 4)) for c in range(5)})
    sp = RowSpace(field)
    sp.store_shifted(src, 0)
    sp.store_shifted(src, 5)
    direct = RowSpace(field)
    for off in (0, 5):
        for row in src.basis():
            direct.insert({c + off: s for c, s in row.items()})
    # the shifted rows are already echelon and normalised
    assert sp.rows == direct.rows
    assert sp.basis() == direct.basis()
    with pytest.raises(ValidationError):
        sp.store_shifted(src, 5)
    with pytest.raises(ValidationError):
        sp.store_shifted(RowSpace(PrimeField(11)), 20)
    assert sp.rows == direct.rows


@pytest.mark.parametrize("p", [None, 7])
def test_store_shifted_by_map(p):
    # an order-keeping column map given as a list: the moved rows are
    # stored as they are and equal the rows a direct insertion gives
    field = QQ if p is None else PrimeField(p)
    rng = random.Random(6)
    src = RowSpace(field)
    for _ in range(4):
        src.insert({c: field.from_int(rng.randint(-4, 4)) for c in range(6)})
    cols = [1, 2, 4, 7, 8, 11]
    sp = RowSpace(field)
    sp.store_shifted(src, cols)
    direct = RowSpace(field)
    for row in src.basis():
        direct.insert({cols[c]: s for c, s in row.items()})
    assert sp.rows == direct.rows
    with pytest.raises(ValidationError):
        sp.store_shifted(src, cols)


# ---------------------------------------------------------------------------
# Shifted spaces against eager copies and the dense oracle.

SHIFT_ENTRIES = [0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


def moved_by(cols):
    """The column map of an int offset or a list map, as a function."""
    return cols.__add__ if isinstance(cols, int) else cols.__getitem__


def layout(kind, copies, width):
    """``copies`` order-keeping maps of ``width`` columns into
    copies * width columns with disjoint images: offsets or blocks for
    "offset", interleaved lists (as the engine's letter maps) for "map"."""
    if kind == "offset":
        return [i * width for i in range(copies)]
    return [[c * copies + i for c in range(width)] for i in range(copies)]


def viewed(space):
    """``space`` stored under the identity map in a new space: a lazy view
    that can be extended without changing ``space``."""
    out = RowSpace(space.field)
    out.store_shifted(space, 0)
    return out


@st.composite
def shift_case(draw):
    p = draw(st.sampled_from([None, 7]))
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["offset", "map"]), min_size=2, max_size=2))
    copies = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))

    def vectors(ncols, most):
        return draw(st.lists(st.lists(st.sampled_from(SHIFT_ENTRIES), min_size=ncols,
                                      max_size=ncols), max_size=most))

    src = vectors(width, 4)
    mid = vectors(width * copies[0], 3)
    top_width = width * copies[0] * copies[1]
    top = vectors(top_width, 3)
    probes = vectors(top_width, 4)
    return p, width, kinds, copies, src, mid, top, probes


@settings(max_examples=150, deadline=None)
@given(shift_case())
def test_shifted_spaces_match_eager_copies(case):
    # src -> mid (shifted copies of src plus inserted rows) -> top (shifted
    # copies of mid, a view of a view, plus inserted rows); every lazy
    # space is compared with the same space built by inserting moved rows
    p, width, kinds, copies, src_rows, mid_rows, top_rows, probes = case
    field = QQ if p is None else PrimeField(p)
    top_width = width * copies[0] * copies[1]

    def sparse(dense):
        out = {}
        for c, x in enumerate(dense):
            s = field.from_fraction(Fraction(x))
            if s:
                out[c] = s
        return out

    def as_dense(vec, ncols):
        out = [0] * ncols
        for c, s in vec.items():
            out[c] = s if p is None else s.v
        return out

    def oracle_value(x):
        x = Fraction(x)
        return x if p is None else x.numerator * pow(x.denominator, -1, p) % p

    src = span(field, [sparse(r) for r in src_rows])
    lazy, eager = src, src
    for kind, k, extra, ncols in ((kinds[0], copies[0], mid_rows, width * copies[0]),
                                  (kinds[1], copies[1], top_rows, top_width)):
        maps = layout(kind, k, ncols // k)
        nxt_lazy, nxt_eager = RowSpace(field), RowSpace(field)
        for cols in maps:
            nxt_lazy.store_shifted(lazy, cols)
            move = moved_by(cols)
            for row in eager.basis():
                nxt_eager.insert({move(c): s for c, s in row.items()})
        for r in extra:
            assert nxt_lazy.insert(sparse(r)) == nxt_eager.insert(sparse(r))
        assert inserted(nxt_lazy) == [nxt_eager.rows[c] for c in
                                      sorted(set(nxt_eager.rows) - set(
                                          c for cols in maps for c in map(
                                              moved_by(cols), lazy.rows)))]
        if lazy.rank:
            with pytest.raises(ValidationError):
                nxt_lazy.store_shifted(lazy, maps[0])
        # a row the stored space gains later does not show in the view
        lazy.insert({c: field.one for c in range(ncols // k)})
        lazy, eager = nxt_lazy, nxt_eager
    oracle = DenseEchelon(top_width, p)
    for row in eager.basis():
        oracle.insert(as_dense(row, top_width))
    # lookups first, so they read rows the space has not built yet
    before = viewed(lazy)
    for r in probes:
        vec = sparse(r)
        assert lazy.reduce_full(vec) == eager.reduce_full(vec)
        assert as_dense(lazy.reduce_full(vec), top_width) == \
            oracle.reduce_full([oracle_value(x) for x in r])
        assert lazy.contains(vec) == eager.contains(vec)
        tagged = {**vec, top_width: field.one}
        assert viewed(lazy).relate(tagged, top_width) == \
            copied(eager).relate(tagged, top_width)
    grown, grown_eager = viewed(lazy), copied(eager)
    for r in probes:
        assert grown.insert(sparse(r)) == grown_eager.insert(sparse(r))
    assert grown.rows == grown_eager.rows
    # the copies grew; the spaces they were copied from did not
    assert lazy.rank == before.rank == eager.rank == len(oracle.rows)
    assert sorted(lazy.pivots) == sorted(oracle.rows)
    assert lazy.rows == eager.rows
    assert lazy.basis() == eager.basis()
    assert [as_dense(r, top_width) for r in lazy.basis()] == \
        [oracle.rows[c] for c in sorted(oracle.rows)]
    assert lazy.reduced_basis() == eager.reduced_basis()
    # no read changed a stored row: each is still the oracle's REF row
    assert lazy.raw_basis() == eager.raw_basis()
    for c, row in zip(sorted(oracle.rows), lazy.raw_basis()):
        assert as_dense({k: field.from_fraction(Fraction(s, row[c])) for k, s in row.items()},
                        top_width) == oracle.rows[c]
    assert all(lazy.pivots[c] == eager.pivots[c] for c in eager.rows)
