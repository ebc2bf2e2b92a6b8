import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from pbwkit.errors import InvariantViolation, ValidationError
from pbwkit.freealg import filtration_size
from pbwkit.linalg import (PRIME_TEST_BOUND, QQ, PrimeField, RowSpace, _is_prime, closure_step,
                           integer_rank, left_kernel_basis, span)

from conftest import (DenseEchelon, dense_rank, intersection, lex_columns, lex_words, zcolumns,
                      zword_at)


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


def test_unnormalised_row_built_on_lookup_raises():
    # an F_p row must be monic, else _reduce never clears its pivot
    # column: a closure component's product built from a row below that is
    # not monic raises when first read, the left product x_0·r of a graded
    # closure and, over T[z], also the central product z·r held unbuilt
    field = PrimeField(7)
    for engine, built in ((False, (0,)), (True, (0, 4))):
        comps = closure_components(field, 2, engine,
                                   {1: [{0: field.one, 1: field.from_int(2)}]}, 2)
        assert not any(c in comps[2]._rows for c in built)
        comps[1]._rows[0] = {0: 3, 1: 6}
        for c in built:
            with pytest.raises(InvariantViolation, match="not monic"):
                comps[2].rows[c]


def trial_division(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_primality_matches_trial_division():
    # Miller-Rabin on the prime bases 2..41 against trial division below
    # 10^5, on the Carmichael number 561, on 3215031751 = 151·751·28351 (a
    # strong pseudoprime to the bases 2, 3, 5 and 7), and on 2^61 ± 1
    assert [p for p in range(10 ** 5) if _is_prime(p)] == \
        [p for p in range(10 ** 5) if trial_division(p)]
    for p in (561, 3215031751, 2 ** 61 + 1):
        assert not trial_division(p) and not _is_prime(p)
    assert _is_prime(2 ** 61 - 1)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(ValidationError, match="not below"):
        PrimeField(PRIME_TEST_BOUND)
    with pytest.raises(ValidationError, match="not prime"):
        PrimeField(2 ** 61 + 1)


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


@pytest.mark.parametrize("p", [None, 7])
def test_rowspace_accepts_negative_columns(p):
    # the bar oracle puts the chain at position q on column -q, so its
    # pivots, the least columns of their rows, are negative.  Column c of
    # a dense row goes to -c; the oracle reads the dense row reversed, its
    # column k being -(ncols - 1 - k), and the rows come in a seeded order
    field = QQ if p is None else PrimeField(p)
    entries = [0, 0, 0, 1, -1, 2, 3, -5, 7, 10**20 + 7]
    for seed in range(20):
        rng = random.Random(seed)
        ncols = rng.randint(1, 8)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randint(1, 7))]
        # combinations of earlier rows, so that some rows reduce to zero
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.choice(entries), rng.choice(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        rng.shuffle(rows)
        probes = [[rng.choice(entries) for _ in range(ncols)] for _ in range(3)]

        def negated(dense):
            out = {-c: field.from_int(x) for c, x in enumerate(dense)}
            return {c: s for c, s in out.items() if s}

        def mirrored(vec):
            out = [0] * ncols
            for c, s in vec.items():
                out[ncols - 1 + c] = s if p is None else s.v
            return out

        oracle = DenseEchelon(ncols, p)
        sp = RowSpace(field)
        for r in rows:
            lead = oracle.insert(r[::-1])
            assert sp.insert(negated(r)) == (None if lead is None else lead - ncols + 1)
        ints = [{-c: x for c, x in enumerate(r) if (x if p is None else x % p)} for r in rows]
        rank = len(oracle.rows)
        assert integer_rank(field, [(min(r), r.copy) for r in ints if r]) == rank == sp.rank
        if p is None:
            assert dense_rank(rows) == rank
        for r in rows + probes:
            dense = r[::-1]
            assert sp.contains(negated(r)) == (not any(oracle.reduce_leading(dense)))
            assert mirrored(sp.reduce_full(negated(r))) == oracle.reduce_full(dense)


@pytest.mark.parametrize("p", [None, 7])
def test_integer_rank_builds_only_read_rows(p):
    # integer_rank takes (lead, builder) pairs.  A builder runs only when
    # a reduction reads its pivot or the pair's lead is a pivot when it
    # comes.  The dense oracle replays the same leading-chain reductions
    # (its rows are the stored rows up to scale), which read the same
    # pivots, and gives the rank; a zero row is not handed over
    field = QQ if p is None else PrimeField(p)
    entries = [0, 0, 0, 1, -1, 2, 3, -5, 7, 10**20 + 7]
    seen = {"negative pivot": 0, "built at hand-over": 0, "built when read": 0, "unbuilt": 0}
    for seed in range(40):
        rng = random.Random(seed)
        ncols = rng.randint(1, 8)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.choice(entries), rng.choice(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        rows.append([0] * ncols)
        rng.shuffle(rows)
        oracle = DenseEchelon(ncols, p)
        items, calls, want, pending = [], {}, set(), {}
        for i, r in enumerate(rows):
            lead = next((c for c, x in enumerate(r) if (x if p is None else x % p)), None)
            if lead is None:
                continue

            def build(i=i, row={c: x for c, x in enumerate(r) if x}):
                calls[i] = calls.get(i, 0) + 1
                return dict(row)
            items.append((lead, build))
            seen["negative pivot"] += r[lead] < 0
            if lead in oracle.rows:
                want.add(i)
                seen["built at hand-over"] += 1
                # the pivots the leading chain reads, as the kernel reads them
                v = [oracle._norm(x) for x in r]
                while any(v):
                    c = next(k for k, x in enumerate(v) if x)
                    if c not in oracle.rows:
                        break
                    if c in pending:
                        want.add(pending.pop(c))
                        seen["built when read"] += 1
                    v = oracle._axpy(v, v[c], oracle.rows[c])
            else:
                pending[lead] = i
            oracle.insert(r)
        seen["unbuilt"] += len(pending)
        assert integer_rank(field, items) == len(oracle.rows), seed
        if p is None:
            assert dense_rank(rows) == len(oracle.rows)
        assert set(calls) == want and set(calls.values()) <= {1}, seed
    assert all(seen.values()), seen
    # a builder whose row does not lead at its lead raises when the row is
    # read, where a reduction on it would not end
    for lead, wrong in ((0, {1: 1, 2: 3}), (2, {0: 1, 2: 5}), (1, {})):
        with pytest.raises(InvariantViolation, match="leads at"):
            integer_rank(field, [(lead, lambda row=wrong: dict(row)),
                                 (lead, lambda: {lead: 2, 3: 1})])


@pytest.mark.parametrize("p", [None, 7])
def test_integer_rank_keeps_the_rows_it_builds(p, monkeypatch):
    # build() returns a fresh dict, which the rank may keep or change.  A
    # row built on a free lead is kept as its builder returned it: over Q
    # that very dict, unnormalised (a negative pivot entry, content 2), and
    # never changed by the reductions that read it; over F_p its residues,
    # made monic.  So a builder that hands out a dict its caller still
    # reads must hand out a copy
    field = QQ if p is None else PrimeField(p)
    spaces, real_find = [], RowSpace._find

    def find(self, c):
        spaces.append(self)
        return real_find(self, c)
    monkeypatch.setattr(RowSpace, "_find", find)
    given = {0: {0: -2, 1: 4, 3: 6}, 1: {0: 1, 1: 1}, 2: {1: 3, 2: -9}, 3: {1: 5, 3: 1}}
    built = {}

    def builder(i):
        def build():
            built[i] = dict(given[i])
            return built[i]
        return build
    # row 1 meets row 0's pivot and reads it; rows 2 and 3 meet the pivot
    # that row 1's remainder took
    assert integer_rank(field, [(min(row), builder(i)) for i, row in given.items()]) == 4
    assert set(built) == {0, 1, 2, 3} and {id(sp) for sp in spaces} == {id(spaces[0])}
    kept = spaces[0]._rows[0]
    assert built[0] == given[0]
    if p is None:
        assert kept is built[0]
    else:
        assert kept == {0: 1, 1: 4 * pow(-2, -1, p) % p, 3: 6 * pow(-2, -1, p) % p}


def test_reduce_full_integers_cancels_the_content():
    # {0: 1, 1: -3} reduces to {1: -27} with scale 10 and content 27, so
    # the integer remainder takes the content back over the denominator 10
    sp = span(QQ, [{0: QQ.one, 1: Fraction(-3, 10)}])
    assert sp.reduce_full({0: 1, 1: -3}, integers=True) == ({1: -27}, 10)
    assert sp.reduce_full({0: 1, 1: -3}) == {1: Fraction(-27, 10)}


def test_reduce_full_integers_zero_has_denominator_one():
    # {0: 1} reduces to zero through the row with pivot entry 2, which
    # scales the chain by 2; a zero remainder keeps no such scale
    sp = span(QQ, [{0: 2, 1: 1}, {1: 1}])
    assert sp.reduce_full({0: 1}, integers=True) == ({}, 1)
    assert sp.reduce_full({0: Fraction(1, 3), 1: 5}, integers=True) == ({}, 1)
    fp = span(PrimeField(7), [{0: 2, 1: 1}, {1: 1}])
    assert fp.reduce_full({0: 1}, integers=True) == ({}, 1)


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
        assert red or d == 1
        if p is not None:
            assert d == 1 and all(0 < s < p for s in red.values())
        assert {c: field.from_int(s) / field.from_int(d) for c, s in red.items()} \
            == sp.reduce_full(probe)


# ---------------------------------------------------------------------------
# Closure components against eager copies.

COMPONENT_TOP = 4
COMPONENT_ENTRIES = [1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


def component_size(g, m, engine):
    return filtration_size(g, m) if engine else g ** m


def word_index(g, m, engine):
    """(words in column order, word -> column) of I^m from the tests' own
    index: T[z]^m through ``zword_at``/``zcolumns``, T^m through
    ``lex_words``/``lex_columns``."""
    if engine:
        return [zword_at(g, m, c) for c in range(filtration_size(g, m))], zcolumns(g, m)
    return lex_words(g, m), lex_columns(g, m)


def closure_components(field, g, engine, gens, top=COMPONENT_TOP):
    """I^0..I^top of the closure of ``gens`` (degree -> vectors) built by
    ``closure_step`` over T[z]^m (``engine``) or T^m."""
    comps = [RowSpace(field)]
    for m in range(1, top + 1):
        comps.append(closure_step(field, comps[m - 1], g, m, component_size(g, m, engine),
                                  gens.get(m, ()), comps))
    return comps


def eager_copy(lazy, below, g, m, engine):
    """I^m built by inserting every left product x_i·r of the rows r of
    ``below``, an eager I^{m-1}, moved through the tests' word index, and
    then the rows ``lazy`` inserted, in its order."""
    words, _ = word_index(g, m - 1, engine)
    _, up = word_index(g, m, engine)
    out = RowSpace(lazy.field)
    for i in range(g):
        for row in below.raw_basis():
            assert out.insert({up[(i,) + words[c]]: s for c, s in row.items()}) is not None
    for c in lazy.inserted:
        assert out.insert(dict(lazy.rows[c])) == c
    return out


def sparse_rows(field, entries):
    return [{c: field.from_fraction(Fraction(x)) for c, x in vec.items()} for vec in entries]


@st.composite
def component_case(draw):
    g = draw(st.integers(1, 3))
    engine = draw(st.booleans())

    def vectors(m, most):
        size = component_size(g, m, engine)
        return draw(st.lists(st.dictionaries(st.integers(0, size - 1),
                                             st.sampled_from(COMPONENT_ENTRIES),
                                             min_size=1, max_size=3), max_size=most))
    gens = {m: vectors(m, 2) for m in (1, 2, 3)}
    return g, engine, gens, vectors(COMPONENT_TOP, 4)


@pytest.mark.parametrize("p", [None, 7])
@settings(max_examples=200, deadline=None)
@given(component_case())
def test_closure_components_match_eager_copies(p, case):
    # every component of an engine or graded closure against an eager
    # copy that inserts every left product: the pivot bytes, rank, rows,
    # bases and reductions, and each row built on lookup; the top is read
    # first, so its reads build rows the components below have not built
    g, engine, gens, probes = case
    field = QQ if p is None else PrimeField(p)
    comps = closure_components(field, g, engine,
                               {m: sparse_rows(field, vecs) for m, vecs in gens.items()})
    eagers = [comps[0]]
    for m in range(1, COMPONENT_TOP + 1):
        eagers.append(eager_copy(comps[m], eagers[m - 1], g, m, engine))
    for vec in sparse_rows(field, probes):
        assert comps[-1].reduce_full(vec) == eagers[-1].reduce_full(vec)
        assert comps[-1].reduce_full(vec, integers=True) == \
            eagers[-1].reduce_full(vec, integers=True)
        assert comps[-1].contains(vec) == eagers[-1].contains(vec)
    for m in range(COMPONENT_TOP, 0, -1):
        lazy, eager = comps[m], eagers[m]
        assert all(row == eager.rows[c] for c, row in lazy._rows.items()), m
        assert lazy._mask == bytearray(c in eager.rows
                                       for c in range(component_size(g, m, engine))), m
        assert lazy.rank == eager.rank == g * comps[m - 1].rank + len(lazy.inserted), m
        assert list(lazy.rows) == sorted(eager.rows), m
        assert lazy.raw_basis() == eager.raw_basis(), m
        assert lazy.rows == eager.rows, m
        assert lazy.basis() == eager.basis(), m
        assert lazy.reduced_basis() == eager.reduced_basis(), m


@pytest.mark.parametrize("engine", [True, False])
@pytest.mark.parametrize("p", [None, 7])
def test_left_product_built_three_components_down(p, engine):
    # x_0 + 2 x_1 generates degree 1; the row of x_0 x_0 x_0 (x_0 + 2 x_1)
    # in I^4 is read before the components between have built theirs, so
    # one lookup builds it and the two rows it moves, down to the row I^1
    # inserted
    field = QQ if p is None else PrimeField(p)
    comps = closure_components(field, 2, engine, {1: [{0: field.one, 1: field.from_int(2)}]})
    assert 0 in comps[1].inserted
    assert all(0 not in comps[m]._rows for m in (2, 3, 4))
    _, cols = word_index(2, 4, engine)
    assert comps[4].rows[0] == {cols[(0, 0, 0, 0)]: 1, cols[(0, 0, 0, 1)]: 2}
    assert all(0 in comps[m]._rows for m in (2, 3))


@pytest.mark.parametrize("p", [None, 7])
def test_broken_left_products_raise(p):
    # a pivot byte with no row below it, and a row below that does not lead
    # at its pivot, raise InvariantViolation when a lookup or a reduction
    # reaches them: the kernel would loop forever on such an F_p row
    field = QQ if p is None else PrimeField(p)
    gens = {1: [{0: field.one, 1: field.from_int(2)}]}
    comps = closure_components(field, 2, True, gens, 3)
    top = comps[3]
    c = next(c for c in range(8) if not top.is_pivot(c))
    top._mask[c] = 1
    for read in (lambda: top.rows[c], lambda: top.reduce_full({c: field.one}),
                 lambda: top.insert({c: field.one})):
        with pytest.raises(InvariantViolation, match=f"pivot {c} has no row"):
            read()
    comps = closure_components(field, 2, True, gens, 3)
    comps[1]._rows[0] = {1: 1}
    for read in (lambda: comps[2].rows[0], lambda: comps[3].insert({0: field.one})):
        with pytest.raises(InvariantViolation, match="leads at"):
            read()
