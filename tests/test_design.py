import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorbal.design import (
    Effect,
    SUMMARY,
    build_incomplete_design,
    character_rows,
    contrast_vector,
    design_matrix,
    effect_index_set,
    enumerate_combinations,
    full_design,
    interaction_value,
)
from factorbal.errors import ConfigurationError, FactorbalError, IdentificationError
from oracles import incomplete_design_oracle

# the 8x8 contrast matrix for three factors, column order:
# summary, z1, z2, z3, z1z2, z1z3, z2z3, z1z2z3
G3 = np.array(
    [
        [+1, -1, -1, -1, +1, +1, +1, -1],
        [+1, -1, -1, +1, +1, -1, -1, +1],
        [+1, -1, +1, -1, -1, +1, -1, +1],
        [+1, -1, +1, +1, -1, -1, +1, -1],
        [+1, +1, -1, -1, -1, -1, +1, +1],
        [+1, +1, -1, +1, -1, +1, -1, -1],
        [+1, +1, +1, -1, +1, -1, -1, -1],
        [+1, +1, +1, +1, +1, +1, +1, +1],
    ]
)

# identification matrix for K=3, order-2 retention, cell (+1,+1,+1) unobserved
# (unscaled; the estimator applies 1/2^(K-1))
INCOMPLETE3 = np.array(
    [
        [+2, 0, 0, +2, 0, +2, +2],
        [0, -2, -2, 0, 0, +2, +2],
        [0, -2, 0, +2, -2, 0, +2],
        [0, 0, -2, +2, -2, +2, 0],
        [+2, 0, -2, 0, -2, 0, +2],
        [+2, -2, 0, 0, -2, +2, 0],
        [+2, -2, -2, +2, 0, 0, 0],
    ],
    dtype=float,
)


class TestEnumeration:
    def test_k2_order(self):
        expected = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert [tuple(r) for r in enumerate_combinations(2)] == expected

    def test_k3_endpoints_and_second(self):
        combos = enumerate_combinations(3)
        assert tuple(combos[0]) == (-1, -1, -1)
        assert tuple(combos[1]) == (-1, -1, 1)
        assert tuple(combos[-1]) == (1, 1, 1)

    def test_deterministic(self):
        assert np.array_equal(enumerate_combinations(4), enumerate_combinations(4))

    @pytest.mark.parametrize("k", [0, 1, 21])
    def test_out_of_range(self, k):
        with pytest.raises(ConfigurationError):
            enumerate_combinations(k)


class TestContrastVector:
    def test_main_effects_k3(self):
        assert np.array_equal(
            contrast_vector(Effect((1,)), 3), [-1, -1, -1, -1, 1, 1, 1, 1]
        )
        assert np.array_equal(
            contrast_vector(Effect((2,)), 3), [-1, -1, 1, 1, -1, -1, 1, 1]
        )
        assert np.array_equal(
            contrast_vector(Effect((3,)), 3), [-1, 1, -1, 1, -1, 1, -1, 1]
        )

    def test_pairwise_k3(self):
        assert np.array_equal(
            contrast_vector(Effect((1, 2)), 3), [1, 1, -1, -1, -1, -1, 1, 1]
        )

    def test_summary_all_ones(self):
        assert np.array_equal(contrast_vector(SUMMARY, 2), [1, 1, 1, 1])

    def test_member_beyond_k(self):
        with pytest.raises(ConfigurationError):
            contrast_vector(Effect((4,)), 3)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_half_positive(self, k, data):
        effects = effect_index_set(k, k)
        e = data.draw(st.sampled_from(effects))
        g = contrast_vector(e, k)
        assert int((g == 1).sum()) == 2 ** (k - 1)

    def test_componentwise_product_rule(self):
        g12 = contrast_vector(Effect((1, 2)), 4)
        g1 = contrast_vector(Effect((1,)), 4)
        g2 = contrast_vector(Effect((2,)), 4)
        assert np.array_equal(g12, g1 * g2)


class TestEffectIndexSet:
    def test_singletons(self):
        assert effect_index_set(3, 1) == [Effect((1,)), Effect((2,)), Effect((3,))]

    def test_counts(self):
        assert len(effect_index_set(3, 2)) == 6
        assert len(effect_index_set(5, 2)) == 15

    def test_sorted_by_order_then_lex(self):
        effects = effect_index_set(3, 3)
        orders = [e.order for e in effects]
        assert orders == sorted(orders)
        pairs = [e.members for e in effects if e.order == 2]
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("kp", [0, 4])
    def test_invalid_order(self, kp):
        with pytest.raises(ConfigurationError):
            effect_index_set(3, kp)


class TestDesignMatrix:
    def test_k3_matches_reference(self):
        assert np.array_equal(design_matrix(3), G3)

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_orthogonality(self, k):
        g = design_matrix(k).astype(float)
        gram = g.T @ g
        assert np.allclose(gram, 2**k * np.eye(2**k))

    def test_first_column_ones(self):
        assert np.all(design_matrix(4)[:, 0] == 1)

    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_roundtrip(self, k, seed):
        # means from effects and back is the identity
        rng = np.random.default_rng(seed)
        tau = rng.normal(size=2**k)
        g = design_matrix(k).astype(float)
        means = g @ tau / 2
        back = g.T @ means / 2 ** (k - 1)
        assert np.max(np.abs(back - tau)) < 1e-10


class TestIncompleteDesign:
    def test_implied_unobserved_mean_coefficients(self):
        # eliminate E[Y(+1,+1,+1)] through the negligible triple interaction
        g = design_matrix(3).astype(float)
        obs = slice(0, 7)
        g_uo_t = g[obs, 7:].T  # negligible contrast at observed cells
        g_uu_t = g[7:, 7:].T
        coeffs = -np.linalg.pinv(g_uu_t) @ g_uo_t
        assert np.array_equal(coeffs.ravel(), [1, -1, -1, 1, -1, 1, 1])

    def test_matches_printed_identification_matrix(self):
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        assert np.array_equal(des.effective, INCOMPLETE3)
        assert des.uu_min_singular_value == pytest.approx(1.0)

    def test_two_unobserved_cells_not_identified(self):
        with pytest.raises(IdentificationError):
            build_incomplete_design(3, 2, [(1, 1, -1), (1, 1, 1)])

    def test_rank_deficient_block_detected(self):
        # two antipodal pairs leave a rank-3 block for four unknown cells
        unobserved = [(-1, -1, -1), (1, 1, 1), (-1, -1, 1), (1, 1, -1)]
        with pytest.raises(IdentificationError, match="rank"):
            build_incomplete_design(3, 1, unobserved)

    def test_empty_unobserved_equals_full_contrasts(self):
        des = build_incomplete_design(3, 2, [])
        full = full_design(3, 2)
        assert np.array_equal(des.effective, full.effective)
        assert des.complete

    def test_square_block_pseudoinverse_equals_inverse(self):
        g = design_matrix(3).astype(float)
        g_uu_t = g[7:, 7:].T  # 1x1 block of the worked example
        assert np.linalg.pinv(g_uu_t) == pytest.approx(np.linalg.inv(g_uu_t))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_incomplete_recovers_true_effects(self, seed):
        # any mean vector with negligible high-order effects is recovered
        rng = np.random.default_rng(seed)
        k, k_prime = 3, 2
        tau = rng.normal(size=2**k)
        tau[7:] = 0.0  # triple interaction negligible
        g = design_matrix(k).astype(float)
        means = g @ tau / 2
        des = build_incomplete_design(k, k_prime, [(1, 1, 1)])
        recovered = des.effective @ means[:7] / 2 ** (k - 1)
        assert np.max(np.abs(recovered - tau[:7])) < 1e-8

    def test_incomplete_recovers_true_effects_at_k12(self):
        # two cells unobserved out of 4096; no 2^K x 2^K matrix is built
        rng = np.random.default_rng(12)
        k, k_prime = 12, 2
        retained = [SUMMARY] + effect_index_set(k, k_prime)
        tau = rng.normal(size=len(retained))
        combos = enumerate_combinations(k)
        means = sum(t * interaction_value(combos, e.members) for t, e in zip(tau, retained)) / 2
        cells = rng.choice(2**k, size=2, replace=False)
        des = build_incomplete_design(k, k_prime, combos[cells])
        observed = np.setdiff1d(np.arange(2**k), cells)
        recovered = des.effective @ means[observed] / 2 ** (k - 1)
        assert np.max(np.abs(recovered - tau)) < 1e-8

    def test_unit_in_unobserved_cell_rejected(self):
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        with pytest.raises(IdentificationError):
            des.observed_positions(np.array([[1, 1, 1]]))

    def test_effect_outside_retained_set(self):
        des = build_incomplete_design(3, 1, [])
        with pytest.raises(ConfigurationError):
            des.effect_row(Effect((1, 2)))

    def test_contrasts_gather_effective_rows(self):
        des = build_incomplete_design(3, 2, [(1, 1, 1)])
        rng = np.random.default_rng(4)
        cells = rng.integers(0, 7, 40)
        C = des.contrasts(enumerate_combinations(3)[cells], des.effects)
        assert C.shape == (7, 40)
        assert np.array_equal(C[0], np.ones(40))  # summary row
        assert np.array_equal(C[1:], INCOMPLETE3[1:, cells])
        with pytest.raises(ConfigurationError):
            des.contrasts(enumerate_combinations(3)[:2], [Effect((1, 2, 3))])

    def test_positions_reject_wrong_factor_count(self):
        des = full_design(3, 2)
        with pytest.raises(ConfigurationError):
            des.observed_positions(np.array([[1, 1]]))

    def test_unobserved_rows_must_match_factor_count(self):
        for bad in ([(1, 1)], [(1, 1, 1), (1, 1)], [(1, "a", 1)]):
            with pytest.raises(ConfigurationError):
                build_incomplete_design(3, 2, bad)

    def test_fractional_unobserved_levels_rejected(self):
        for bad in ([(1.7, 1, 1)], [(-1.2, 1, 1)], [(1, 1, 1), (1, 0.5, 1)], [(1, 300, 1)]):
            with pytest.raises(ConfigurationError, match="-1/\\+1"):
                build_incomplete_design(3, 2, bad)
        exact = build_incomplete_design(3, 2, [(1.0, 1.0, 1.0)])
        assert np.array_equal(exact.unobserved, [[1, 1, 1]])


# five cells whose unobserved-by-negligible block is singular; its Gram
# matrix's smallest eigenvalue reads as a singular value of about 5e-8
SQUARE_K4 = [(-1, -1, -1, -1), (-1, 1, -1, -1), (-1, -1, -1, 1), (-1, 1, -1, 1), (1, 1, -1, 1)]


def _parity_cases():
    rng = np.random.default_rng(7)
    for k in range(2, 7):
        for k_prime in range(1, k + 1):
            q_minus = 2**k - 1 - len(effect_index_set(k, k_prime))
            for size in sorted(set(rng.integers(1, q_minus + 2, size=6))):
                cells = rng.choice(2**k, size=size, replace=False)
                yield k, k_prime, enumerate_combinations(k)[cells]
    yield 4, 2, np.array(SQUARE_K4)


class TestIncompleteDesignParity:
    """The q_u x q_u elimination against the pinv of the full contrast matrix."""

    @pytest.mark.parametrize("k, k_prime, unobserved", list(_parity_cases()))
    def test_matches_pinv_oracle(self, k, k_prime, unobserved):
        try:
            ref = incomplete_design_oracle(k, k_prime, unobserved)
        except FactorbalError as exc:
            with pytest.raises(type(exc)):
                build_incomplete_design(k, k_prime, unobserved)
            return
        des = build_incomplete_design(k, k_prime, unobserved)
        assert np.max(np.abs(des.effective - ref[0])) <= 1e-12
        assert abs(des.uu_min_singular_value - ref[1]) <= 1e-12

    def test_singular_square_block_rejected(self):
        with pytest.raises(IdentificationError, match="rank"):
            build_incomplete_design(4, 2, SQUARE_K4)

    @pytest.mark.parametrize("k, k_prime", [(3, 1), (6, 2), (9, 4), (17, 14)])
    def test_negligible_block_matches_contrasts(self, k, k_prime):
        # the bitmask parities against the per-effect products; at K=17
        # the masks reach bit 16, past the first fold of the parity
        rng = np.random.default_rng(k)
        cells = enumerate_combinations(k)[rng.choice(2**k, 5, replace=False)]
        negligible = [e for e in effect_index_set(k, k) if e.order > k_prime]
        want = np.array([interaction_value(cells, e.members) for e in negligible]).T
        assert np.array_equal(character_rows(cells, range(k_prime + 1, k + 1)).T, want)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_complete_design_is_the_contrast_matrix(self, k):
        for k_prime in range(1, k + 1):
            des = full_design(k, k_prime)
            assert des.uu_min_singular_value is None
            assert np.array_equal(des.effective, design_matrix(k)[:, : len(des.effects)].T)


class TestInteractionValue:
    def test_empty_set_is_one(self):
        z = enumerate_combinations(2)
        assert np.array_equal(interaction_value(z, ()), np.ones(4))

    def test_product(self):
        z = np.array([[1, -1, 1], [-1, -1, 1]])
        assert np.array_equal(interaction_value(z, (1, 3)), [1, -1])


class TestEffect:
    def test_members_sorted_and_unique(self):
        assert Effect((3, 1)).members == (1, 3)
        with pytest.raises(ConfigurationError):
            Effect((1, 1))

    def test_order(self):
        assert Effect(()).order == 0
        assert Effect((2, 5)).order == 2

    def test_labels(self):
        assert SUMMARY.label() == "summary"
        assert Effect((1, 3)).label() == "z1*z3"
