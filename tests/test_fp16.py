import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visarch.fp16 import _rne16, compare_modes, exact_logits, scores_f16
from visarch.attention import SCORE_MODES

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bits16(x) -> np.ndarray:
    """The binary16 bits of x, whose values must all be binary16 values."""
    return np.asarray(x, dtype=np.float64).astype(np.float16).view(np.uint16)


TINY = 2.0 ** -24  # the smallest subnormal binary16


class TestRound:
    """_rne16, the one cast the score pipeline runs, at the edges of binary16."""

    @pytest.mark.parametrize("x,want", [
        (1.0, 1.0), (-1.0, -1.0), (0.5, 0.5), (1024.0, 1024.0), (0.0, 0.0),
        (65504.0, 65504.0),
        # 65520 is equidistant from 65504 and the (absent) next step; round to
        # nearest even picks the out-of-range candidate
        (65519.999, 65504.0), (65520.0, np.inf), (-65520.0, -np.inf), (65536.0, np.inf),
        (np.inf, np.inf), (-0.0, -0.0),
        (TINY, TINY), (2.0 ** -26, 0.0),
        # subnormal ties go to the even neighbour
        (0.5 * TINY, 0.0), (1.5 * TINY, 2 * TINY), (2.5 * TINY, 2 * TINY), (0.75 * TINY, TINY),
        # ties around 1.0, where the step is 2**-10
        (1.0 + 2.0 ** -11, 1.0), (1.0 + 3 * 2.0 ** -11, 1.0 + 2.0 ** -9),
    ])
    def test_boundary(self, x, want):
        got = _rne16(np.array([x]))
        assert got.dtype == np.float64
        assert bits16(got)[0] == bits16(want)

    def test_format_constants(self):
        assert bits16(65504.0) == 0x7BFF and bits16(np.inf) == 0x7C00 and bits16(-0.0) == 0x8000

    def test_nan_stays_nan(self):
        assert np.isnan(_rne16(np.array([np.nan]))).all()

    def test_idempotent(self):
        once = _rne16(np.array([1.2345, -678.9, 3.1e-6, 50000.0]))
        np.testing.assert_array_equal(_rne16(once), once)


def boundary_cases():
    """Rounding boundaries of every binade, both signs, with the binary16 bits
    round-to-nearest-even gives each: the binary16 values themselves, the
    midpoints between neighbours (to the even one) and one double ulp either
    side of each midpoint (to the nearer one)."""
    mant = np.array([0, 1, 2, 3, 255, 256, 511, 512, 513, 767, 768, 1020, 1021, 1022, 1023],
                    dtype=np.uint16)
    bits = ((np.arange(31, dtype=np.uint16)[:, None] << 10) | mant).ravel()
    lo = bits.view(np.float16).astype(np.float64)
    hi = (bits + 1).view(np.float16).astype(np.float64)  # the next binary16 up
    hi[np.isinf(hi)] = 65536.0  # the step above 65504, were the exponent unbounded
    mids = (lo + hi) / 2  # exact in float64; the top one is the overflow midpoint 65520
    even = np.where(bits % 2 == 0, bits, bits + 1)
    xs = np.concatenate([lo, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
    want = np.concatenate([bits, even, bits + 1, bits])
    return np.concatenate([xs, -xs]), np.concatenate([want, want | 0x8000])


class TestArrayPath:
    def test_rounds_every_boundary_to_nearest_even(self):
        xs, want = boundary_cases()
        assert xs.size > 1800
        rounded = _rne16(xs)
        np.testing.assert_array_equal(bits16(rounded), want)
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

    def test_compare_modes_reproduces_the_benchmarks_record(self):
        # draw 0 of each (tokens, mag) cell of the audit workload against
        # perfbench/expected.json: a change to the emulator, to exact_logits or
        # to tensor.softmax (the exact reference) shows here, not only in the benchmark
        wl = load_workloads()
        recorded = wl.load_expected()["fp16"]
        for t in wl.FP16_TOKENS:
            for mag in wl.FP16_MAGS:
                key = wl.fp16_key(t, mag, 0)
                got = wl.fp16_outcome(compare_modes(*wl.fp16_instance(t, mag, 0)))
                assert got == recorded[key], key

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

    @pytest.mark.parametrize("q,k,match", [
        (np.ones((0, 4)), np.ones((0, 4)), "one token"),
        (np.ones((2, 0)), np.ones((2, 0)), "one channel"),
        (np.full((2, 4), np.nan), np.ones((2, 4)), "q has a non-finite"),
        (np.ones((2, 4)), np.array([[1.0, 2.0, -np.inf, 0.0]] * 2), "k has a non-finite"),
        # Tensor's dtype rule: a complex input ran without its imaginary part,
        # a bool or object one ran as numbers, a string one gave numpy's ValueError
        (np.ones((2, 4)) + 1j, np.ones((2, 4)), "type, got complex128$"),
        (np.ones((2, 4)), np.ones((2, 4), bool), "type, got bool$"),
        (np.ones((2, 4)).astype(object), np.ones((2, 4)), "type, got object$"),
        (np.ones((2, 4)), np.full((2, 4), "1"), "type, got <U1$"),
    ], ids=["no-tokens", "no-width", "nan-q", "inf-k", "complex-q", "bool-k", "object-q", "str-k"])
    def test_rejects_inputs_with_no_meaningful_scores(self, q, k, match):
        for mode in SCORE_MODES:
            with pytest.raises(ValueError, match=match):
                scores_f16(q, k, mode)
        with pytest.raises(ValueError, match=match):
            compare_modes(q, k)

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
