import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest

from mzv.indices import (
    Combination,
    _accumulate,
    all_indices,
    format_index,
    idx,
    parse_combination,
)
from mzv.ohno import ohno_u
from mzv.qlinalg import RelationMatrix
from mzv.relations import (
    LinearRelation,
    duality_element,
    duality_relation,
    kawashima_basis,
    ohno_relations,
    stuffle_rows,
)


def comb(s):
    return parse_combination(s)


def test_rank_of_simple_spans():
    rows = [comb("(3)"), comb("(1,2)"), comb("(3) + (1,2)")]
    m = RelationMatrix(3, rows)
    assert m.nrows == 3
    assert m.ncols == 4
    assert m.rank() == 2
    assert m.modular_rank() == 2


def test_rank_zero_and_full():
    assert RelationMatrix(2, []).rank() == 0
    assert RelationMatrix(2, [Combination.zero()]).rank() == 0
    rows = [Combination.term(mu) for mu in all_indices(4)]
    assert RelationMatrix(4, rows).rank() == 8


def test_rank_with_fractional_entries():
    rows = [
        comb("1/2*(2) - 1/3*(1,1)"),
        comb("3*(2) - 2*(1,1)"),
        comb("(2)"),
    ]
    m = RelationMatrix(2, rows)
    assert m.rank() == 2


def test_the_all_integer_row_path_equals_the_lcm_path():
    # the same rows with every coefficient a Fraction (denominator 1, which
    # sums in Combination can leave) take the lcm path
    m = RelationMatrix(6, [])
    for row in stuffle_rows(6) + [r.element for r in ohno_relations(6)]:
        as_fractions = Combination._of({k: Fraction(c) for k, c in row._terms.items()})
        assert m._integer_row(row) == m._integer_row(as_fractions)
        vec, den = m._integer_row(row * Fraction(1, 6))
        whole, _ = m._integer_row(row)
        assert 6 % den == 0 and vec == {j: c * den // 6 for j, c in whole.items()}


def test_a_matrix_stores_its_rows_once():
    # the integer form of a row exists only while an elimination reads it:
    # building the weight-10 stuffle matrix and taking its GF(2) rank stays
    # under 10 bytes per row entry (a second stored copy costs about 47)
    rows = sorted(stuffle_rows(10), key=len)
    entries = sum(map(len, rows))
    tracemalloc.start()
    try:
        assert RelationMatrix(10, rows).modular_rank() == 413
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * entries, peak / entries


def test_rejects_mixed_weight_rows():
    with pytest.raises(ValueError):
        RelationMatrix(3, [comb("(2)")])
    with pytest.raises(ValueError):
        RelationMatrix(2, [comb("(2) + (3)")])


def test_member_finds_certificates():
    rows = [comb("(3)"), comb("(1,2) + (2,1)")]
    m = RelationMatrix(3, rows)
    cert = m.member(comb("2*(3) + (1,2) + (2,1)"))
    assert cert == [Fraction(2), Fraction(1)]
    assert m.member(comb("(1,2)")) is None
    assert m.member(comb("(2)")) is None  # wrong weight
    assert m.member(Combination.zero()) == [0, 0]


def test_member_of_a_mixed_weight_combination_is_none():
    m = RelationMatrix(3, [comb("(3)"), comb("(1,2)")])
    assert m.member(comb("(3) + (2)")) is None
    assert m.member(comb("(1,2) - (1,1,1,1)")) is None


def test_member_certificate_with_redundant_rows():
    rows = [comb("(2)"), comb("(1,1)"), comb("(2) + (1,1)")]
    m = RelationMatrix(2, rows)
    x = comb("3*(2) - (1,1)")
    cert = m.member(x)
    assert cert is not None
    total = Combination.zero()
    for c, row in zip(cert, m.rows):
        total = total + c * row
    assert total == x


def test_member_rejects_a_certificate_built_from_a_corrupted_integer_row():
    # member() re-verifies against the rows themselves, not their integer
    # forms, so a wrong integer row is caught instead of certified
    relations = kawashima_basis(6)
    x = duality_element(idx(2, 1, 1, 2))
    cert = RelationMatrix.from_relations(relations).member(x)
    assert cert is not None
    corruptions = (lambda row, den: (row, 2 * den),
                   lambda row, den: ({j: 3 * c for j, c in row.items()}, den))
    for i in (i for i, c in enumerate(cert) if c):
        for corrupt in corruptions:
            span = RelationMatrix.from_relations(relations)
            integer_row = span._integer_row

            def corrupted(row, i=i, corrupt=corrupt, span=span, integer_row=integer_row):
                vec, den = integer_row(row)
                return corrupt(vec, den) if row is span.rows[i] else (vec, den)

            span._integer_row = corrupted
            with pytest.raises(AssertionError, match="re-verification"):
                span.member(x)


def test_duality_certificates_are_exact_fractions():
    # an int pivot would turn the echelon's 1 / pivot into a float division;
    # the re-verified certificate still compares equal, so only the type shows it
    for k in range(3, 8):
        m = RelationMatrix.from_relations(kawashima_basis(k))
        for mu in all_indices(k):
            cert = m.member(duality_element(mu))
            assert cert is not None
            assert all(type(c) is Fraction for c in cert)


def test_from_relations():
    rels = [duality_relation(idx(2)), duality_relation(idx(1, 1))]
    m = RelationMatrix.from_relations(rels)
    assert m.weight == 2
    assert m.nrows == 2
    with pytest.raises(ValueError):
        RelationMatrix.from_relations([])


def test_modular_rank_matches_exact_on_generated_rows():
    for k in range(2, 7):
        m = RelationMatrix.from_relations(kawashima_basis(k))
        assert m.modular_rank() == m.rank()


def test_modular_rank_of_a_row_with_a_modular_prime_denominator():
    # 1/2 has no inverse mod 2; the row's integer form (2) + 2*(1,1) is (2) mod 2
    m = RelationMatrix(2, [comb("1/2*(2) + (1,1)")])
    assert m.modular_rank() == 1 == m.rank()


def test_modular_rank_is_only_a_lower_bound():
    # the two rows agree mod 2, so GF(2) sees one of the two dimensions
    m = RelationMatrix(2, [comb("(2) + (1,1)"), comb("(2) - (1,1)")])
    assert m.modular_rank() == 1 < m.rank() == 2
    # an even row is divided by its content before it is reduced mod 2
    assert RelationMatrix(2, [comb("2*(2)")]).modular_rank() == 1


def test_rank_survives_scaling_and_duplication():
    base = [r.element for r in kawashima_basis(5)]
    m1 = RelationMatrix(5, base)
    scaled = [Fraction(7, 3) * r for r in base] + list(base)
    m2 = RelationMatrix(5, scaled)
    assert m1.rank() == m2.rank() == 10


def _combination(columns, vector):
    return Combination((mu, c) for mu, c in zip(columns, vector) if c)


@pytest.mark.parametrize("seed", range(6))
def test_known_rank_products_and_their_certificates(seed):
    # A = B @ C with an r x r identity inside B's rows and inside C's columns
    # has rank exactly r over Q and modulo every prime, whatever elimination
    # computes it; its row space is C's, which misses e_j off C's identity.
    rng = random.Random(seed)
    weight = rng.choice((5, 6, 7))  # 16, 32 or 64 columns
    columns = all_indices(weight)
    m, r = len(columns), rng.randint(1, 12)
    n = r + rng.randint(0, 10)
    pivots = rng.sample(range(m), r)
    C = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
    for a, j in enumerate(pivots):
        for b in range(r):
            C[b][j] = int(a == b)
    B = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    for a, i in enumerate(rng.sample(range(n), r)):
        B[i] = [int(a == b) for b in range(r)]
    rows = [
        _combination(columns, [sum(B[i][t] * C[t][j] for t in range(r)) for j in range(m)])
        for i in range(n)
    ]
    rows += [Fraction(rng.randint(1, 9), rng.randint(2, 9)) * rng.choice(rows) for _ in range(3)]
    rows += [rng.choice(rows) for _ in range(3)]
    rng.shuffle(rows)
    matrix = RelationMatrix(weight, rows)
    assert matrix.rank() == r == matrix.modular_rank()

    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in rows]
    x = Combination.zero()
    for c, row in zip(coeffs, rows):
        x = x + c * row
    cert = matrix.member(x)
    assert cert is not None and all(type(c) is Fraction for c in cert)
    total = Combination.zero()
    for c, row in zip(cert, rows):
        total = total + c * row
    assert total == x

    if r < m:
        j = rng.choice([j for j in range(m) if j not in pivots])
        outside = Combination.term(columns[j]) + x
        assert matrix.member(outside) is None
        assert RelationMatrix(weight, rows + [outside]).rank() == r + 1


def test_certificates_match_the_recorded_ones():
    # golden/certificates.json holds the non-zero member() coefficients, as
    # strings, of every duality and Ohno (r <= 3) element against the
    # Kawashima rows of weight 2..6, recorded before the echelon was changed
    # and while ohno_relations still listed both elements of each sign pair
    recorded = json.loads((Path(__file__).parent / "golden" / "certificates.json").read_text())
    got = []
    for k in range(2, 7):
        m = RelationMatrix.from_relations(kawashima_basis(k))
        targets = [duality_relation(mu) for mu in all_indices(k)] + [
            LinearRelation(ohno_u(r, duality_element(mu)), "ohno(%s,%d)" % (format_index(mu), r), k)
            for r in range(min(3, k - 2) + 1) for mu in all_indices(k - r)
            if not ohno_u(r, duality_element(mu)).is_zero()]
        assert {rel.provenance for rel in ohno_relations(k, r_max=3)} < {
            rel.provenance for rel in targets}
        for rel in targets:
            cert = m.member(rel.element)
            assert all(type(c) is Fraction for c in cert), rel.provenance
            coefficients = {str(i): str(c) for i, c in enumerate(cert) if c}
            got.append({"weight": k, "target": rel.provenance, "coefficients": coefficients})
    assert got == recorded


# -- the Fraction eliminations that the integer ones replaced, as oracles ----


def _fraction_reduce(vec, echelon):
    vec = {j: Fraction(c) for j, c in vec.items()}
    multiples = {}
    for t, (pc, row, _, _, _) in enumerate(echelon):
        c = vec.get(pc)
        if c:
            _accumulate(vec, row.items(), -c)
            multiples[t] = c
    return vec, multiples


def _fraction_echelon(rows):
    """(pivot col, row with pivot 1, source row, multiples subtracted, 1 / pivot)."""
    echelon = []
    for i, row in enumerate(rows):
        vec, multiples = _fraction_reduce(row, echelon)
        if vec:
            pc = min(vec)
            inv = 1 / vec[pc]
            echelon.append((pc, {j: c * inv for j, c in vec.items()}, i, multiples, inv))
    return echelon


def _fraction_certificate(nrows, echelon, x):
    vec, multiples = _fraction_reduce(x, echelon)
    if vec:
        return None
    coeffs = [Fraction(0)] * nrows
    for t in range(len(echelon) - 1, -1, -1):
        c = multiples.pop(t, 0)
        if c:
            _, _, source, earlier, inv = echelon[t]
            coeffs[source] = c = c * inv
            _accumulate(multiples, earlier.items(), -c)
    return coeffs


def _masked_rank_mod(rows, ncols, p):
    """Full-width elimination mod p of rational rows, entry by entry."""
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, c in row.items():
            c = Fraction(c)
            m[i, j] = c.numerator * pow(c.denominator, -1, p) % p
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        hits = np.nonzero(m[rank:, col])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = m[rank + 1 :, col].copy()
        mask = below != 0
        if mask.any():
            m[rank + 1 :][mask] = (m[rank + 1 :][mask] - below[mask, None] * m[rank][None, :]) % p
        rank += 1
    return rank


# -- the numpy 31-bit elimination that GF(2) replaced, as an oracle ----------

#: three fixed 31-bit primes; all intermediate products stay below 2**62
MODULAR_PRIMES = (2147483647, 2147483629, 2147483587)


def _rank_mod(matrix, p):
    """Row-driven dense elimination of the integer rows mod p: each pivot row
    clears its column from the later rows that are non-zero there, only in
    its own non-zero columns."""
    m = np.zeros((matrix.nrows, matrix.ncols), dtype=np.int64)
    for i, (row, _) in enumerate(map(matrix._integer_row, matrix.rows)):
        m[i, list(row)] = [c % p for c in row.values()]
    rank = 0
    for i in range(matrix.nrows):
        nz = np.flatnonzero(m[i])
        if nz.size:
            col = nz[0]
            below = i + 1 + np.flatnonzero(m[i + 1 :, col])
            if below.size:
                factor = m[below, col] * pow(int(m[i, col]), -1, p) % p
                block = np.ix_(below, nz)
                m[block] = (m[block] - factor[:, None] * m[i, nz]) % p
            rank += 1
    return rank


def _primitive(row):
    """A rational row scaled to coprime integers."""
    den = lcm(*(Fraction(c).denominator for c in row.values()))
    row = {j: int(c * den) for j, c in row.items()}
    g = gcd(*row.values())
    return {j: c // g for j, c in row.items()}


def _assert_rank_mod_matches_the_oracle(weight, rows):
    """The GF(2) ``modular_rank`` against the column-driven oracle on the
    primitive integer rows, with the rows in input, sparsest-first and
    reversed order."""
    for order in (list, lambda rows: sorted(rows, key=len), lambda rows: rows[::-1]):
        matrix = RelationMatrix(weight, order(rows))
        colpos = {mu: j for j, mu in enumerate(matrix.columns)}
        primitive = [_primitive({colpos[mu]: c for mu, c in row.terms()})
                     for row in matrix.rows]
        assert matrix.modular_rank() == _masked_rank_mod(primitive, matrix.ncols, 2)


def _assert_matches_the_oracles(weight, rows, targets):
    matrix = RelationMatrix(weight, rows)
    colpos = {mu: j for j, mu in enumerate(matrix.columns)}

    def sparse(x):
        return {colpos[mu]: c for mu, c in x.terms()}

    fraction_rows = [sparse(row) for row in matrix.rows]
    echelon = _fraction_echelon(fraction_rows)
    assert matrix.rank() == len(echelon)
    for x in targets:
        cert = matrix.member(x)
        assert cert == _fraction_certificate(matrix.nrows, echelon, sparse(x))
        assert cert is None or all(type(c) is Fraction for c in cert)
    _assert_rank_mod_matches_the_oracle(weight, rows)


def _span_targets(rng, columns, rows, count=4):
    """Seeded combinations of the rows, each also shifted by one column."""
    targets = []
    for _ in range(count):
        x = Combination.zero()
        for row in rows:
            if rng.random() < 0.3:
                x = x + Fraction(rng.randint(-7, 7), rng.randint(1, 6)) * row
        targets += [x, x + Combination.term(rng.choice(columns))]
    return targets


@pytest.mark.parametrize("k", range(2, 9))
def test_stuffle_and_ohno_rows_match_the_fraction_elimination(k):
    rng = random.Random(k)
    columns = all_indices(k)
    for rows in (stuffle_rows(k), [rel.element for rel in ohno_relations(k)]):
        _assert_matches_the_oracles(k, rows, _span_targets(rng, columns, rows))


@pytest.mark.parametrize("k", range(2, 8))
def test_kawashima_rows_and_duality_certificates_match_the_fraction_elimination(k):
    rows = [rel.element for rel in kawashima_basis(k)]
    _assert_matches_the_oracles(k, rows, [duality_element(mu) for mu in all_indices(k)])


def test_rank_mod_of_the_weight_8_kawashima_rows_matches_the_oracle():
    _assert_rank_mod_matches_the_oracle(8, [rel.element for rel in kawashima_basis(8)])


@pytest.mark.parametrize("seed", range(8))
def test_random_rational_rows_match_the_fraction_elimination(seed):
    # sparse rows with negative and non-unit entries, some denominators up to
    # 2**64, and dependent rows built from earlier ones
    rng = random.Random(1000 + seed)
    weight = rng.choice((4, 5, 6))
    columns = all_indices(weight)
    rows = []
    for _ in range(rng.randint(3, 2 * len(columns))):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * a - b)
            continue
        row = Combination.zero()
        for mu in rng.sample(columns, rng.randint(1, 5)):
            den = rng.choice((1, 1, 2, 3, rng.randint(2, 2**64)))
            num = rng.choice((-1, 1)) * rng.randint(1, 9)
            row = row + Fraction(num, den) * Combination.term(mu)
        rows.append(row)
    _assert_matches_the_oracles(weight, rows, _span_targets(rng, columns, rows))


@pytest.mark.parametrize("p", MODULAR_PRIMES)
@pytest.mark.parametrize("seed", range(6))
def test_rank_mod_matches_the_oracle_on_rows_with_zeros_duplicates_and_multiples_of_p(seed, p):
    # p only seeds the multiples; the GF(2) rank is checked on its own
    rng = random.Random(2000 + seed)
    weight = rng.choice((4, 5, 6))
    columns = all_indices(weight)
    rows = [Combination.zero()]
    for _ in range(rng.randint(3, 2 * len(columns))):
        roll = rng.random()
        if roll < 0.15:
            rows.append(rng.choice(rows))
        elif roll < 0.25:
            rows.append(Combination.zero())
        else:
            row = Combination.zero()
            for mu in rng.sample(columns, rng.randint(1, 5)):
                num = rng.choice((-1, 1)) * rng.randint(1, 9) * rng.choice((1, 1, p))
                row = row + Fraction(num, rng.choice((1, 2, 3, 7))) * Combination.term(mu)
            rows.append(row)
    rng.shuffle(rows)
    _assert_rank_mod_matches_the_oracle(weight, rows)
    matrix = RelationMatrix(weight, rows)
    assert matrix.modular_rank() <= matrix.rank()


@pytest.mark.parametrize("k", range(2, 10))
def test_rank_does_not_depend_on_the_row_order(k):
    rows = stuffle_rows(k)
    assert RelationMatrix(k, sorted(rows, key=len)).rank() == RelationMatrix(k, rows).rank()


def _cli_row_families(k):
    yield "stuffle", stuffle_rows(k)
    yield "ohno", [rel.element for rel in ohno_relations(k)]
    if k <= 10:
        yield "kawashima", [rel.element for rel in kawashima_basis(k)]


@pytest.mark.parametrize("k", range(2, 12))
def test_gf2_rank_equals_the_best_31_bit_rank_on_the_cli_rows(k):
    # mod 2 is only a lower bound in general; on these families it loses nothing
    for name, rows in _cli_row_families(k):
        matrix = RelationMatrix(k, sorted(rows, key=len))
        best = max(_rank_mod(matrix, p) for p in MODULAR_PRIMES)
        assert matrix.modular_rank() == best, name
