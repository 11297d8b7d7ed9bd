import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visarch.fp16 import (
    F16_MAX,
    _rne16,
    compare_modes,
    exact_logits,
    f16_round,
    scores_f16,
)
from visarch.attention import SCORE_MODES


def oracle_bits(x):
    with np.errstate(over="ignore"):
        return int(np.float16(x).view(np.uint16))


class TestRound:
    def test_exact_values(self):
        for x in (1.0, -1.0, 0.5, 2.0, 1024.0, 0.0):
            s = f16_round(x)
            assert s.value == x
            assert not s.overflowed and not s.underflowed

    def test_format_constants(self):
        s = f16_round(65504.0)
        assert s.value == F16_MAX and not s.overflowed
        assert s.bits == 0x7BFF

    def test_overflow_to_inf(self):
        s = f16_round(65536.0)
        assert np.isinf(s.value) and s.value > 0 and s.overflowed
        assert s.bits == 0x7C00

    def test_overflow_threshold_is_midpoint(self):
        # 65520 is equidistant from 65504 and the (absent) next step; RNE
        # rounds to the even candidate, which is out of range
        assert not f16_round(65519.999).overflowed
        assert f16_round(65519.999).value == 65504.0
        assert f16_round(65520.0).overflowed
        assert f16_round(-65520.0).value == -np.inf

    def test_matches_numpy_on_grids(self):
        rng = np.random.default_rng(3)
        xs = np.concatenate([
            rng.uniform(-70000, 70000, 400),
            rng.uniform(-2, 2, 400),
            np.exp(rng.uniform(-18, 12, 400)) * rng.choice([-1, 1], 400),
            np.arange(-8, 8) * 2.0 ** -11 + 1.0,     # ties around 1.0
            np.arange(1, 40) * 2.0 ** -25,            # subnormal ties
            [65519.0, 65520.0, 65521.0, 2.0 ** -24, 2.0 ** -25, 6e-8],
        ])
        for x in xs:
            s = f16_round(float(x))
            assert s.bits == oracle_bits(x), x

    def test_subnormals(self):
        tiny = 2.0 ** -24
        assert f16_round(tiny).value == tiny
        under = f16_round(2.0 ** -26)
        assert under.value == 0.0 and under.underflowed
        # tie at half the smallest quantum goes to even (zero)
        assert f16_round(0.5 * tiny).value == 0.0
        assert f16_round(0.75 * tiny).value == tiny

    def test_signed_zero_and_nan(self):
        assert f16_round(-0.0).bits == 0x8000
        assert np.isnan(f16_round(float("nan")).value)
        inf = f16_round(float("inf"))
        assert np.isinf(inf.value) and not inf.overflowed

    def test_decode_round_trip(self):
        rng = np.random.default_rng(4)
        for x in rng.uniform(-65000, 65000, 200):
            s = f16_round(float(x))
            assert float(np.uint16(s.bits).view(np.float16)) == s.value

    def test_idempotent(self):
        for x in (1.2345, -678.9, 3.1e-6, 50000.0):
            once = f16_round(x).value
            assert f16_round(once).value == once

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_everywhere(self, x):
        assert f16_round(float(x)).bits == oracle_bits(x)


def boundary_inputs():
    """Rounding boundaries of every binade, both signs: binary16 values, the
    midpoints between neighbours, one double ulp either side of each midpoint,
    and the named edges (top finite value, overflow midpoint, subnormal ties)."""
    mant = np.array([0, 1, 2, 3, 255, 256, 511, 512, 513, 767, 768, 1020, 1021, 1022, 1023],
                    dtype=np.uint16)
    bits = ((np.arange(31, dtype=np.uint16)[:, None] << 10) | mant).ravel()
    lo = bits.view(np.float16).astype(np.float64)
    hi = (bits + 1).view(np.float16).astype(np.float64)  # the next binary16 up
    hi[np.isinf(hi)] = 65536.0  # the step above 65504, were the exponent unbounded
    mids = (lo + hi) / 2  # exact in float64; the top one is the overflow midpoint 65520
    near = np.concatenate([np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
    edges = [65504.0, 65519.999, 65520.0, 2.0 ** -25, 0.75 * 2.0 ** -24, -0.0]
    xs = np.concatenate([lo, mids, near, edges])
    return np.concatenate([xs, -xs])


class TestArrayPath:
    def test_array_cast_matches_scalar_round_at_boundaries(self):
        xs = boundary_inputs()
        assert xs.size > 2000
        rounded = _rne16(xs)
        want = np.array([f16_round(x).bits for x in xs.tolist()], dtype=np.uint16)
        np.testing.assert_array_equal(rounded.astype(np.float16).view(np.uint16), want)
        assert np.isinf(rounded).any() and (rounded == 0).any()  # both ends are reached


class TestScores:
    def test_standard_overflows_at_mag_32(self):
        # raw dot is 32*32*64 = 65536, past the largest finite half
        q = np.full((4, 64), 32.0)
        logits, probs, rep = scores_f16(q, q, "standard")
        assert rep.overflow_count == 16 and not rep.softmax_valid
        assert probs is None
        assert np.isinf(logits).all()

    def test_prenorm_survives_mag_32(self):
        q = np.full((4, 64), 32.0)
        _, probs, rep = scores_f16(q, q, "prenorm")
        assert rep.overflow_count == 0 and rep.softmax_valid
        np.testing.assert_allclose(probs, 0.25)

    def test_prenorm_overflows_at_mag_128(self):
        # entries scale to 128/64**0.25, dot ~ 131072
        q = np.full((4, 64), 128.0)
        _, probs, rep = scores_f16(q, q, "prenorm")
        assert rep.overflow_count == 16 and probs is None

    def test_fullnorm_survives_both(self):
        for mag in (32.0, 128.0):
            q = np.full((4, 64), mag)
            _, probs, rep = scores_f16(q, q, "fullnorm")
            assert rep.softmax_valid, mag
        assert rep.max_abs_logit == 16384.0  # 128^2 * 64 / 64

    def test_pb_relax_survives_both(self):
        for mag in (32.0, 128.0):
            q = np.full((4, 64), mag)
            _, probs, rep = scores_f16(q, q, "pb_relax")
            assert rep.softmax_valid, mag
            np.testing.assert_allclose(probs, 0.25)

    def test_intermediate_overflow_counts_even_when_true_dot_is_small(self):
        # first product overflows the running sum before the second cancels it
        q = np.array([[256.0, -256.0]])
        k = np.array([[256.0, 256.0]])
        _, _, rep = scores_f16(q, k, "standard")
        assert rep.overflow_count == 1
        assert exact_logits(q, k, "standard")[0, 0] == 0.0

    def test_small_inputs_track_exact_softmax(self, rng):
        q = rng.normal(0, 1, (8, 16))
        k = rng.normal(0, 1, (8, 16))
        out = compare_modes(q, k)
        assert set(out) == set(SCORE_MODES)
        for mode, entry in out.items():
            assert entry["report"].softmax_valid, mode
            assert entry["softmax_divergence"] < 2e-2, mode

    def test_compare_modes_overflow_gives_none(self):
        q = np.full((4, 64), 32.0)
        out = compare_modes(q, q)
        assert out["standard"]["softmax_divergence"] is None
        assert out["standard"]["report"].overflow_count == 16
        for mode in ("prenorm", "fullnorm", "pb_relax"):
            assert out[mode]["softmax_divergence"] is not None

    def test_fullnorm_exact_logits_are_standard_over_sqrt_d(self, rng):
        q = rng.normal(0, 1, (5, 9))
        k = rng.normal(0, 1, (5, 9))
        np.testing.assert_allclose(
            exact_logits(q, k, "fullnorm"),
            exact_logits(q, k, "standard") / 3.0,
        )

    def test_report_dict(self):
        q = np.full((2, 4), 1.0)
        _, _, rep = scores_f16(q, q, "standard")
        d = rep.to_dict()
        assert d["mode"] == "standard" and d["d"] == 4 and d["tokens"] == 2
        assert d["softmax_valid"] is True and d["overflow_count"] == 0

    def test_bad_inputs(self):
        q = np.ones((2, 4))
        with pytest.raises(ValueError):
            scores_f16(q, q, "sigmoid")
        with pytest.raises(ValueError):
            scores_f16(q, np.ones((3, 4)))

    @pytest.mark.parametrize("q,k,alpha,match", [
        (np.ones((0, 4)), np.ones((0, 4)), 32.0, "one token"),
        (np.ones((2, 0)), np.ones((2, 0)), 32.0, "one channel"),
        (np.full((2, 4), np.nan), np.ones((2, 4)), 32.0, "q has a non-finite"),
        (np.ones((2, 4)), np.array([[1.0, 2.0, -np.inf, 0.0]] * 2), 32.0, "k has a non-finite"),
        (np.ones((2, 4)), np.ones((2, 4)), 0.0, "alpha"),
        (np.ones((2, 4)), np.ones((2, 4)), -2.0, "alpha"),
        (np.ones((2, 4)), np.ones((2, 4)), float("nan"), "alpha"),
        (np.ones((2, 4)), np.ones((2, 4)), float("inf"), "alpha"),
        # a string or None gave a bare TypeError, and True ran as alpha 1
        (np.ones((2, 4)), np.ones((2, 4)), "x", "^alpha must be a real number, got 'x' \\(str\\)$"),
        (np.ones((2, 4)), np.ones((2, 4)), None, "^alpha must be a real number, got None"),
        (np.ones((2, 4)), np.ones((2, 4)), True, "^alpha must be a real number, got True"),
        # Tensor's dtype rule: a complex input ran without its imaginary part,
        # a bool or object one ran as numbers, a string one gave numpy's ValueError
        (np.ones((2, 4)) + 1j, np.ones((2, 4)), 32.0, "type, got complex128$"),
        (np.ones((2, 4)), np.ones((2, 4), bool), 32.0, "type, got bool$"),
        (np.ones((2, 4)).astype(object), np.ones((2, 4)), 32.0, "type, got object$"),
        (np.ones((2, 4)), np.full((2, 4), "1"), 32.0, "type, got <U1$"),
    ], ids=["no-tokens", "no-width", "nan-q", "inf-k", "alpha0", "alpha-neg",
            "alpha-nan", "alpha-inf", "alpha-str", "alpha-None", "alpha-bool",
            "complex-q", "bool-k", "object-q", "str-k"])
    def test_rejects_inputs_with_no_meaningful_scores(self, q, k, alpha, match):
        for mode in SCORE_MODES:
            with pytest.raises(ValueError, match=match):
                scores_f16(q, k, mode, alpha)
        with pytest.raises(ValueError, match=match):
            compare_modes(q, k, alpha)

    def test_softmax_valid_iff_no_overflow(self, rng):
        for mag in (1.0, 30.0, 33.0, 100.0):
            q = rng.uniform(-mag, mag, (3, 64))
            for mode in SCORE_MODES:
                _, probs, rep = scores_f16(q, q, mode)
                assert rep.softmax_valid == (rep.overflow_count == 0)
                assert (probs is None) == (not rep.softmax_valid)


class TestProperties:
    @given(st.integers(0, 10 ** 6), st.integers(1, 1024), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_fullnorm_box_never_overflows(self, seed, d, t):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-255, 255, (t, d))
        k = rng.uniform(-255, 255, (t, d))
        _, _, rep = scores_f16(q, k, "fullnorm")
        assert rep.overflow_count == 0 and rep.softmax_valid

    def test_fullnorm_box_bulk(self):
        # pairwise logits make each (row_i, row_j) an independent trial
        rng = np.random.default_rng(11)
        trials = 0
        for d in (8, 64, 300, 1024):
            q = rng.uniform(-255, 255, (50, d))
            k = rng.uniform(-255, 255, (50, d))
            _, _, rep = scores_f16(q, k, "fullnorm")
            assert rep.overflow_count == 0
            trials += 50 * 50
        assert trials >= 10 ** 4

    @given(st.integers(0, 10 ** 6), st.floats(1.0, 8.0),
           st.sampled_from(SCORE_MODES))
    @settings(max_examples=80, deadline=None)
    def test_scaling_up_never_clears_overflow(self, seed, lam, mode):
        rng = np.random.default_rng(seed)
        q = rng.uniform(-40, 40, (3, 64))
        k = rng.uniform(-40, 40, (3, 64))
        _, _, base = scores_f16(q, k, mode)
        _, _, scaled = scores_f16(lam * q, lam * k, mode)
        if base.overflow_count > 0:
            assert scaled.overflow_count > 0
