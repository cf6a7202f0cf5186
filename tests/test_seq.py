import random

import pytest

from monadica import core, seq
from monadica.core import make
from monadica.errors import DomainError, NotInvertible, UnknownGenerator


class TestGenerators:
    def test_impulse_terms(self):
        assert seq.term(make(2, {"e:1": 1}), 1) == 3.0
        assert seq.term(make(2, {"e:1": 1}), 2) == 2.0

    def test_harmonic_terms(self):
        h = make(0, {"h": 1})
        assert seq.term(h, 7) == 1 / 7

    def test_geometric_terms(self):
        assert seq.term(make(0, {"g:0.5": 0.5}), 3) == 0.0625

    def test_geometric_ratio_validation(self):
        with pytest.raises(DomainError):
            seq.geometric(1.0)
        with pytest.raises(DomainError):
            seq.geometric(0.0)

    def test_geometric_id_uses_round_trip_decimal(self):
        assert seq.geometric(0.5).id == "g:0.5"
        assert seq.geometric(0.1).id == "g:0.1"

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            seq.term(make(0, {"nope": 1}), 1)

    def test_index_must_be_positive(self):
        with pytest.raises(DomainError):
            seq.term(make(1), 0)

    def test_a_prefix_holds_at_most_100000_terms(self):
        x = make(0.5, {"h": 1.0})
        assert len(seq.prefix(x, 100_000)) == 100_000
        for call in (seq.prefix, seq.oracle_inv, lambda x, n: seq.oracle_binary("mul", x, x, n)):
            with pytest.raises(DomainError, match=r"to 100000, not 100001$"):
                call(x, 100_001)

    def test_catalog_rejects_duplicates_and_dependence(self):
        with pytest.raises(DomainError):
            seq.Catalog([seq.impulse(1), seq.impulse(1)])
        twin = seq.SequenceGenerator("twin", lambda n: 2.0 if n == 1 else 0.0)
        with pytest.raises(DomainError):
            seq.Catalog([seq.impulse(1), twin])

    def test_default_catalog_is_independent(self):
        gens = list(seq.DEFAULT_CATALOG.generators())
        assert seq.independence_rank(gens) == len(gens)


# the default catalog and more, still independent on 64 terms (with
# impulses up to 16, say, g:0.1 would not be: its later terms are below
# the tolerance)
POOL = (
    list(seq.DEFAULT_CATALOG.generators())
    + [seq.impulse(k) for k in range(9, 13)]
    + [seq.geometric(r) for r in (0.3, 0.9, 0.99)]
)


def combination(gens, coeffs, bump=0.0, at=1):
    """sum(c * g) plus `bump` at index `at`: dependent when bump is 0."""

    def t(n):
        return sum(c * g.term(n) for c, g in zip(coeffs, gens)) + (bump if n == at else 0.0)

    return seq.SequenceGenerator("combo", t)


class TestIndependenceRank:
    def test_random_subsets_have_full_rank(self):
        rng = random.Random(5)
        for _ in range(300):
            gens = rng.sample(POOL, rng.randint(1, len(POOL)))
            assert seq.independence_rank(gens) == len(gens)

    def test_exact_twin_is_rejected(self):
        twin = seq.SequenceGenerator("twin", lambda n: 2.0 if n == 1 else 0.0)
        assert seq.independence_rank([seq.impulse(1), twin]) == 1

    def test_rounding_twin_is_rejected(self):
        # differs from the harmonic sequence by one ulp at n = 1 only; an
        # exact rank would call it independent
        twin = seq.SequenceGenerator("twin", lambda n: 1.0 + 2**-52 if n == 1 else 1.0 / n)
        assert seq.independence_rank([seq.harmonic(), twin]) == 1
        with pytest.raises(DomainError):
            seq.Catalog([seq.harmonic(), twin])

    def test_rank_does_not_depend_on_scale(self):
        for scale in (1e-300, 1e300):
            gens = [
                seq.SequenceGenerator(g.id, lambda n, g=g: scale * g.term(n))
                for g in seq.DEFAULT_CATALOG.generators()
            ]
            assert seq.independence_rank(gens) == len(gens)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_term_is_a_domain_error(self, bad):
        gen = seq.SequenceGenerator("bad", lambda n: bad if n == 7 else 0.0)
        with pytest.raises(DomainError):
            seq.independence_rank([seq.harmonic(), gen])
        with pytest.raises(DomainError):
            seq.Catalog([gen])

    def test_verdicts_match_numpy_matrix_rank(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(9)
        for bump in (0.0, 1e-16, 1e-10):
            for _ in range(60):
                gens = rng.sample(POOL, rng.randint(1, 10))
                coeffs = [rng.uniform(-2.0, 2.0) for _ in gens]
                # no impulse in POOL reaches index 13, so a bump there leaves the span
                gens.append(combination(gens, coeffs, bump, rng.randint(13, 64)))
                matrix = np.array([[g.term(n) for n in range(1, 65)] for g in gens])
                want = int(np.linalg.matrix_rank(matrix))
                # 1e-16 is far below the tolerance, 1e-10 far above it
                assert want == len(gens) - (bump < 1e-12)
                assert seq.independence_rank(gens) == want


class TestConvergenceWitness:
    def test_impulse_witness(self):
        assert seq.convergence_witness(make(2, {"e:1": 1}), 1e-9, 1024) == 2

    def test_harmonic_witness(self):
        assert seq.convergence_witness(make(0, {"h": 1}), 0.01, 1024) == 101

    def test_constant_sequence_witness(self):
        assert seq.convergence_witness(make(5), 1e-15, 100) == 1

    def test_failure_is_a_value(self):
        assert seq.convergence_witness(make(0, {"h": 1}), 1e-9, 16) is None

    def test_sampled_indices_cover_powers_of_two(self):
        idx = seq.sampled_indices(10**7)
        assert idx[0] == 1 and 1024 in idx and 2**23 in idx
        assert all(i <= 10**7 for i in idx)

    def test_catalog_members_converge(self):
        for gid in seq.DEFAULT_CATALOG.ids:
            assert seq.convergence_witness(make(0, {gid: 1}), 1e-6, 10**7) is not None


class TestTermwiseOracle:
    def test_product_prefix_by_hand(self):
        x = make(2, {"e:1": 1})
        y = make(3, {"e:2": 1})
        assert seq.oracle_binary("mul", x, y, 4) == [9.0, 8.0, 6.0, 6.0]
        assert seq.prefix(core.mul(x, y), 4) == [9.0, 8.0, 6.0, 6.0]

    def test_addition_with_zero_is_the_same_prefix(self):
        x = make(1.5, {"h": 2, "e:3": -1})
        assert seq.oracle_binary("add", x, core.ZERO, 16) == seq.prefix(x, 16)

    def test_product_of_infinitesimals_is_the_zero_prefix(self):
        e1 = make(0, {"e:1": 1})
        assert seq.oracle_binary("mul", e1, e1, 8) == [0.0] * 8

    def test_inverse_formula_requires_non_infinitesimal(self):
        with pytest.raises(NotInvertible):
            seq.oracle_inv(make(0, {"e:1": 1}), 4)

    def test_core_results_match_the_sequence_formulas(self):
        x = make(1.25, {"e:1": 0.5, "h": -2})
        y = make(-0.75, {"e:2": 3, "g:0.5": 1})
        for op, result in (("add", core.add(x, y)), ("mul", core.mul(x, y))):
            oracle = seq.oracle_binary(op, x, y, 64)
            got = seq.prefix(result, 64)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, oracle))
        inv_oracle = seq.oracle_inv(x, 64)
        inv_got = seq.prefix(core.inv(x), 64)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(inv_got, inv_oracle))
        for m in (2, 3, 4):
            pow_oracle = seq.oracle_pow_nat(x, m, 64)
            pow_got = seq.prefix(core.pow_nat(x, m), 64)
            assert all(
                abs(a - b) <= 1e-12 * max(1, abs(a)) for a, b in zip(pow_got, pow_oracle)
            )
