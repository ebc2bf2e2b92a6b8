import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pbwkit.errors import ComplementNotSubspace, ValidationError
from pbwkit.linalg import (QQ, PrimeField, RowSpace, SparseMatrix, kernel, rref,
                           subspace_complement, subspace_contains,
                           subspace_intersection, subspace_ops, subspace_sum)

from conftest import DenseEchelon, dense_rank


def dense(entries, **kw):
    return SparseMatrix.from_dense(entries, **kw)


def row_spans_equal(a, b):
    return subspace_contains(a, b) and subspace_contains(b, a)


class TestRref:
    def test_proportional_rows(self):
        r = rref(dense([[2, 4], [1, 2]]))
        assert r.nrows == 1
        assert r.to_dense() == [[QQ.one, QQ.from_int(2)]]

    def test_identity_fixed(self):
        m = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rref(m) == m

    def test_reversed_column_order(self):
        m = dense([[0, 1], [1, 0]], column_order=(1, 0))
        r = rref(m)
        # pivots land in columns (1, 0) under the reversed order
        assert [row[0][0] for row in r.rows] == [1, 0]

    def test_idempotent_and_rank(self):
        rng = random.Random(3)
        for _ in range(25):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
            m = dense(rows)
            r = rref(m)
            assert r.nrows == m.rank() == dense_rank(rows)
            assert rref(r) == r
            assert row_spans_equal(m, r) or m.rank() == 0


class TestKernel:
    def test_single_row(self):
        k = kernel(dense([[1, 1]]))
        assert k.nrows == 1
        v = k.to_dense()[0]
        assert v[0] + v[1] == 0 and any(v)

    def test_identity(self):
        assert kernel(dense([[1, 0], [0, 1]])).nrows == 0

    def test_zero_matrix(self):
        assert kernel(SparseMatrix(2, 3, [{}, {}])).nrows == 3

    def test_kernel_annihilates(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(3)]
            m = dense(rows)
            k = kernel(m)
            assert k.nrows == m.ncols - m.rank()
            for v in k.to_dense():
                for r in m.to_dense():
                    assert sum(a * b for a, b in zip(r, v)) == 0


class TestSubspaceOps:
    def test_transverse_lines(self):
        a, b = dense([[1, 0]]), dense([[0, 1]])
        ops = subspace_ops(a, b)
        assert ops["intersection"].nrows == 0
        assert ops["sum"].nrows == 2
        assert ops["contains"] is False

    def test_complement_of_equal_space_is_zero(self):
        a = dense([[1, 2], [0, 1]])
        assert subspace_complement(a, a).nrows == 0

    def test_complement_of_diagonal_in_plane(self):
        # [DERIVED] complement completes the diagonal to the plane: check
        # a (+) complement = b by rank
        a = dense([[1, 1]])
        b = dense([[1, 0], [0, 1]])
        c = subspace_complement(a, b)
        assert c.nrows == 1
        assert subspace_sum(a, c).nrows == 2
        assert subspace_intersection(a, c).nrows == 0
        # greedy from b's reduced rows in pivot order picks (0, 1)
        assert c.to_dense() == [[QQ.zero, QQ.one]]

    def test_complement_requires_containment(self):
        with pytest.raises(ComplementNotSubspace):
            subspace_complement(dense([[1, 0]]), dense([[0, 1]]))

    def test_contains(self):
        big = dense([[1, 0, 0], [0, 1, 0]])
        assert subspace_contains(big, dense([[2, 3, 0]]))
        assert not subspace_contains(big, dense([[0, 0, 1]]))


@st.composite
def small_matrix_pair(draw):
    ncols = draw(st.integers(2, 5))
    def mat():
        nrows = draw(st.integers(1, 4))
        return [[draw(st.integers(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)]
    return dense(mat()), dense(mat())


@settings(max_examples=60, deadline=None)
@given(small_matrix_pair())
def test_dimension_formula(pair):
    a, b = pair
    s = subspace_sum(a, b)
    i = subspace_intersection(a, b)
    assert s.nrows + i.nrows == a.rank() + b.rank()
    # the intersection really is contained in both
    assert subspace_contains(a, i) and subspace_contains(b, i)


@settings(max_examples=60, deadline=None)
@given(small_matrix_pair())
def test_complement_dimensions(pair):
    a, b = pair
    big = subspace_sum(a, b)
    c = subspace_complement(a, big)
    assert a.rank() + c.nrows == big.rank()
    assert subspace_intersection(a, c).nrows == 0


def test_fp_agrees_with_q_on_random_integer_matrices():
    # ranks agree whenever no Q-pivot denominator is divisible by p; with a
    # large prime that is virtually always, and we verify the precondition
    rng = random.Random(11)
    p = 1000003
    fp = PrimeField(p)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(5)]
        mq = dense(rows)
        reduced = rref(mq)
        denominators_ok = all(
            s.denominator % p for row in reduced.rows for _, s in row)
        mfp = SparseMatrix.from_dense(rows, field=fp)
        if denominators_ok:
            assert mfp.rank() == mq.rank()


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

    sp = RowSpace(field)
    scaled = RowSpace(field)
    oracle = DenseEchelon(ncols, p)
    for r in rows:
        expect = oracle.insert([oracle_value(x) for x in r])
        assert sp.insert(sparse(r)) == expect
        # insertion does not depend on the scale of its input
        scaled.insert({c: s * field.from_fraction(Fraction(-5, 3))
                       for c, s in sparse(r).items()})
    pivots = sorted(oracle.rows)
    assert sorted(sp.pivots) == pivots and sp.rank == len(pivots)
    assert scaled.rows == sp.rows
    assert [as_dense(r) for r in sp.basis()] == [oracle.rows[c] for c in pivots]
    reduced = oracle.reduced()
    assert [as_dense(r) for r in sp.reduced_basis()] == [reduced[c] for c in pivots]
    for r in rows + probes:
        dense = [oracle_value(x) for x in r]
        lead = oracle.reduce_leading(dense)
        assert as_dense(sp.reduce_leading(sparse(r))) == lead
        assert as_dense(sp.reduce_full(sparse(r))) == oracle.reduce_full(dense)
        assert sp.contains(sparse(r)) == (not any(lead))
    for c, row in sp.rows.items():
        assert all(type(s) is int and s for s in row.values())
        if p is None:
            assert gcd(*row.values()) == 1 and row[c] > 0
        else:
            assert row[c] == 1 and all(0 < s < p for s in row.values())
        assert sp.pivots[c][c] == field.one


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
