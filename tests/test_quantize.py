"""Kernel quantizer against hand-worked examples and brute-force oracles."""

import dataclasses
import math

import numpy as np
import pytest

from qnip.quantize import (
    BIAS_MAX,
    BIAS_MIN,
    BLOCK_KERNELS,
    POLICIES,
    SCALAR_MAX,
    SHIFT_MAX,
    SHIFT_MIN,
    QuantStats,
    compute_layer_shift,
    dequantize_bias,
    dequantize_layer,
    dequantize_scalar,
    finish_layer,
    fit_layer,
    global_shift,
    layer_alphas_masks,
    mask_levels,
    quantize_bias,
    quantize_kernel_1bit,
    quantize_kernel_multibit,
    quantize_layer,
    quantize_scalar,
    round_half_away,
)


def test_round_half_away_from_zero():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3      # not banker's rounding
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.4) == 0
    assert np.array_equal(round_half_away(np.array([0.5, 1.5, -0.5])), [1, 2, -1])


def test_mask_levels():
    assert mask_levels(1) == 1
    assert mask_levels(2) == 1
    assert mask_levels(3) == 3
    assert mask_levels(4) == 7
    assert mask_levels(5) == 15


def test_1bit_xnor_hand_example():
    w = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.0])
    alpha, mask = quantize_kernel_1bit(w, policy="xnor-abs-mean")
    assert abs(alpha - 8.0 / 9.0) <= 1e-12
    assert np.array_equal(mask, [1, 1, 1, 1, -1, -1, -1, -1, -1])


def test_1bit_literal_mean_hand_example():
    w = np.array([3.0] * 5 + [-3.0] * 4)
    # threshold = mean = 1/3; alpha = mean |w - t| = 80/27
    alpha, mask = quantize_kernel_1bit(w, policy="literal-mean")
    assert abs(alpha - 80.0 / 27.0) <= 1e-12
    assert np.array_equal(mask, [1] * 5 + [-1] * 4)


def test_1bit_literal_mean_constant_kernel():
    w = np.full(9, 0.5)
    alpha, mask = quantize_kernel_1bit(w, policy="literal-mean")
    assert alpha == 0.0
    assert np.array_equal(mask, [-1] * 9)


def test_1bit_xnor_is_least_squares_optimal():
    # brute force over all 512 sign patterns with the optimal alpha for each
    rng = np.random.default_rng(10)
    for _ in range(50):
        w = rng.normal(size=9)
        alpha, mask = quantize_kernel_1bit(w, policy="xnor-abs-mean")
        achieved = float(np.sum((w - alpha * mask) ** 2))
        best = math.inf
        for code in range(512):
            m = np.array([1 if (code >> b) & 1 else -1 for b in range(9)])
            a = float(np.dot(w, m)) / 9.0
            best = min(best, float(np.sum((w - a * m) ** 2)))
        assert achieved <= best + 1e-9


def test_multibit_hand_example():
    w = np.zeros(9)
    w[0], w[1], w[2] = 0.9, -0.3, 0.1
    alpha, mask = quantize_kernel_multibit(w, mask_bits=3)
    assert abs(alpha - 0.3) <= 1e-12
    assert mask[0] == 3 and mask[1] == -1 and mask[2] == 0
    assert np.all(mask[3:] == 0)


def test_multibit_mask_range():
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 5):
        level = mask_levels(m)
        for _ in range(50):
            w = rng.normal(size=9)
            alpha, mask = quantize_kernel_multibit(w, mask_bits=m)
            assert alpha >= 0.0
            assert mask.min() >= -level and mask.max() <= level
            # max-magnitude element always hits the top level
            assert np.max(np.abs(mask)) == level or alpha == 0.0


def test_compute_layer_shift_hand_examples():
    assert compute_layer_shift(np.array([0.9])) == (0, False, False)
    assert compute_layer_shift(np.array([1.0])) == (1, False, False)
    assert compute_layer_shift(np.array([0.4, 1.7])) == (1, False, False)
    assert compute_layer_shift(np.array([2.0])) == (2, False, False)
    assert compute_layer_shift(np.array([0.005])) == (-7, False, False)


def test_compute_layer_shift_saturation_and_degenerate():
    e, saturated, degenerate = compute_layer_shift(np.array([300.0]))
    assert (e, saturated, degenerate) == (SHIFT_MAX, True, False)
    e, saturated, degenerate = compute_layer_shift(np.array([0.0, 0.0]))
    assert (e, saturated, degenerate) == (SHIFT_MIN, False, True)
    tiny = np.array([2.0 ** -30])
    assert compute_layer_shift(tiny).e == SHIFT_MIN


def test_shift_property_alphas_below_capacity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        alphas = np.abs(rng.normal(size=4)) * 10.0 ** rng.integers(-3, 3)
        e, saturated, _ = compute_layer_shift(alphas)
        assert SHIFT_MIN <= e <= SHIFT_MAX
        if not saturated:
            assert alphas.max() < 2.0 ** e
            if e > SHIFT_MIN:
                assert alphas.max() >= 2.0 ** (e - 1)


def test_scalar_quantization_hand_example():
    a = quantize_scalar(0.9, 0)
    assert a == 230
    assert abs(dequantize_scalar(a, 0) - 0.8984375) <= 1e-12


def test_scalar_quantization_clamps():
    assert quantize_scalar(5.0, 0) == SCALAR_MAX
    assert quantize_scalar(0.0, 3) == 0
    with pytest.raises(ValueError):
        quantize_scalar(-1.0, 0)


def test_scalar_and_bias_helpers_refuse_a_shift_off_the_format():
    # a shift is a whole number in [SHIFT_MIN, SHIFT_MAX]; off that, no code
    # exists on its grid, so the helpers refuse it as finish_layer does
    for e in (2.5, SHIFT_MIN - 1, SHIFT_MAX + 2, -0.5):
        for helper, value in ((quantize_scalar, 0.9), (quantize_bias, 0.1),
                              (dequantize_scalar, 3), (dequantize_bias, 3)):
            with pytest.raises(ValueError, match="shift"):
                helper(value, e)
    assert quantize_scalar(0.9, 2.0) == quantize_scalar(0.9, 2) == 58
    assert quantize_bias(0.1, SHIFT_MAX) == 0 and quantize_bias(0.1, SHIFT_MIN) == BIAS_MAX


def test_scalar_round_trip_error():
    rng = np.random.default_rng(13)
    for _ in range(500):
        e = int(rng.integers(SHIFT_MIN, SHIFT_MAX + 1))
        # stay below the top grid step; alphas at the very top of the
        # capacity clamp to 255 with up to a full step of error
        alpha = rng.uniform(0.0, 2.0 ** e * (SCALAR_MAX / 256.0))
        a = quantize_scalar(alpha, e)
        assert 0 <= a <= SCALAR_MAX
        # within half a step of the 2^(e-8) grid
        assert abs(dequantize_scalar(a, e) - alpha) <= 2.0 ** (e - 9) + 1e-15


def test_bias_quantization():
    assert quantize_bias(0.0, 0) == 0
    # grid step at e=0 is 2^-8; 12-bit signed range saturates at +-2047/2048
    assert quantize_bias(100.0, 0) == BIAS_MAX
    assert quantize_bias(-100.0, 0) == BIAS_MIN
    q = quantize_bias(0.5, 0)
    assert q == 128
    assert dequantize_bias(q, 0) == 0.5
    rng = np.random.default_rng(14)
    for _ in range(300):
        e = int(rng.integers(SHIFT_MIN, SHIFT_MAX + 1))
        b = rng.uniform(-(2.0 ** e), 2.0 ** e)
        q = quantize_bias(b, e)
        assert BIAS_MIN <= q <= BIAS_MAX
        if abs(b) < 2.0 ** e * 0.99:
            assert abs(dequantize_bias(q, e) - b) <= 2.0 ** (e - 9) + 1e-15


def _random_layer(rng, out_ch=4, in_ch=3, scale=1.0):
    weights = rng.normal(size=(out_ch, in_ch, 3, 3)) * scale
    biases = rng.normal(size=out_ch) * scale
    return weights, biases


def test_quantize_layer_reconstruction_bound():
    # elementwise |w - alpha_hat * M| <= alpha/2 + |alpha - alpha_hat| * L
    rng = np.random.default_rng(15)
    kernels = 0
    for _ in range(40):
        weights, biases = _random_layer(rng, scale=float(10.0 ** rng.integers(-2, 2)))
        for m in (2, 3, 4, 5):
            layer = quantize_layer(weights, biases, mask_bits=m)
            deq_w, _ = dequantize_layer(layer)
            alphas = layer_alphas_masks(weights, m)[0].reshape(weights.shape[:2])
            alpha_hat = np.array([[dequantize_scalar(int(a), layer.shift)
                                   for a in row] for row in layer.scalars])
            level = mask_levels(m)
            bound = alphas / 2.0 + np.abs(alphas - alpha_hat) * level
            err = np.max(np.abs(weights - deq_w), axis=(2, 3))
            assert np.all(err <= bound + 1e-12)
            kernels += weights.shape[0] * weights.shape[1]
    assert kernels >= 1000


def test_quantize_dequantize_is_fixed_point():
    # xnor and multibit: alpha of the dequantized layer equals alpha_hat, so
    # masks, scalars and shift all survive a second quantization pass
    rng = np.random.default_rng(16)
    for m in (1, 2, 3, 4, 5):
        weights, biases = _random_layer(rng)
        first = quantize_layer(weights, biases, mask_bits=m)
        deq_w, deq_b = dequantize_layer(first)
        second = quantize_layer(deq_w, deq_b, mask_bits=m)
        assert np.array_equal(first.masks, second.masks)
        assert np.array_equal(first.scalars, second.scalars)
        assert first.shift == second.shift


def test_literal_mean_masks_stable_but_scalars_drift():
    # literal-mean re-centres on the kernel mean, which is nonzero after
    # dequantization whenever the mask is unbalanced: only masks are stable
    rng = np.random.default_rng(19)
    weights, biases = _random_layer(rng)
    first = quantize_layer(weights, biases, mask_bits=1, policy="literal-mean")
    deq_w, deq_b = dequantize_layer(first)
    second = quantize_layer(deq_w, deq_b, mask_bits=1, policy="literal-mean")
    assert np.array_equal(first.masks, second.masks)


def test_quantize_layer_dead_kernels_zeroed():
    # one kernel far smaller than the layer's dynamic range: its 8-bit scalar
    # rounds to zero and the stored mask must be canonical zeros
    weights = np.zeros((2, 1, 3, 3))
    weights[0] += 1.9
    weights[1] += 1e-6
    layer = quantize_layer(weights, np.zeros(2), mask_bits=3)
    assert layer.scalars[1, 0] == 0
    assert np.all(layer.masks[1, 0] == 0)
    deq_w, _ = dequantize_layer(layer)
    assert np.all(deq_w[1] == 0.0)


def test_quantize_layer_scalar_saturation_stat():
    weights = np.zeros((1, 1, 3, 3))
    weights[0, 0, 0, 0] = 1.0
    layer = finish_layer(fit_layer(weights, np.zeros(1), mask_bits=2), -2)
    assert layer.stats.scalar_saturations == 1
    assert layer.scalars[0, 0] == SCALAR_MAX


def test_quantize_layer_shapes_and_dtypes():
    rng = np.random.default_rng(17)
    weights, biases = _random_layer(rng, out_ch=5, in_ch=2)
    layer = quantize_layer(weights, biases, mask_bits=4)
    # stride and padding are the network's: the layer keeps only its arrays
    assert [f.name for f in dataclasses.fields(layer)] == [
        "mask_bits", "shift", "scalars", "masks", "biases", "stats"]
    assert layer.scalars.shape == (5, 2) and layer.scalars.dtype == np.uint8
    assert layer.masks.shape == (5, 2, 9) and layer.masks.dtype == np.int8
    assert layer.biases.shape == (5,) and layer.biases.dtype == np.int16
    deq_w, deq_b = dequantize_layer(layer)
    assert deq_w.shape == weights.shape
    assert deq_b.shape == biases.shape


def test_quantize_layer_rejects_bad_input():
    with pytest.raises(ValueError):
        quantize_layer(np.zeros((1, 1, 3, 3)), np.zeros(1), mask_bits=6)
    with pytest.raises(ValueError):
        quantize_layer(np.zeros((1, 1, 3, 3)), np.zeros(1), mask_bits=0)
    with pytest.raises(ValueError):
        quantize_layer(np.zeros((1, 1, 3, 3)), np.zeros(1), mask_bits=1, policy="nope")
    with pytest.raises(ValueError):
        quantize_layer(np.full((1, 1, 3, 3), np.nan), np.zeros(1), mask_bits=1)
    with pytest.raises(ValueError):
        quantize_layer(np.zeros((1, 1, 2, 2)), np.zeros(1), mask_bits=1)


def test_layer_alphas_masks_vectorized_agrees_with_single():
    rng = np.random.default_rng(18)
    weights = rng.normal(size=(3, 2, 3, 3))
    for m in (1, 3, 5):
        alphas, masks = layer_alphas_masks(weights, m)
        assert alphas.shape == (6,) and masks.shape == (6, 9)
        for o in range(3):
            for i in range(2):
                if m == 1:
                    a, mk = quantize_kernel_1bit(weights[o, i])
                else:
                    a, mk = quantize_kernel_multibit(weights[o, i], m)
                k = o * 2 + i
                assert abs(alphas[k] - a) <= 1e-12
                assert np.array_equal(masks[k], np.asarray(mk).reshape(-1))


def test_global_shift_is_the_largest_layer_shift():
    rng = np.random.default_rng(31)
    small, big = rng.normal(size=(2, 3, 3, 3)) * 0.05, rng.normal(size=(2, 3, 3, 3)) * 6.0
    shifts = [quantize_layer(w, np.zeros(2), 3).shift for w in (small, big)]
    assert shifts[0] < shifts[1]
    alphas = [fit_layer(w, np.zeros(2), 3).alphas for w in (small, big)]
    assert global_shift(alphas) == shifts[1]
    # only the layers given count (codec leaves out float layers)
    assert global_shift(alphas[:1]) == shifts[0]
    # no positive alpha anywhere: the per-layer rule's degenerate shift
    assert global_shift([fit_layer(np.zeros((2, 3, 3, 3)), np.zeros(2), 1).alphas]) == SHIFT_MIN
    assert global_shift([]) == SHIFT_MIN


# -- the blocked quantizer against the per-row formulas it replaces ----------

def _row_alphas_masks(flat, mask_bits, policy):
    """layer_alphas_masks as whole-matrix row reductions (the pre-block code)."""
    if mask_bits == 1:
        if policy == "xnor-abs-mean":
            t, alphas = 0.0, np.abs(flat).mean(axis=1)
        else:
            t = flat.mean(axis=1, keepdims=True)
            alphas = np.abs(flat - t).mean(axis=1)
        return alphas, (flat > t).astype(np.int8) * 2 - 1
    lmax = mask_levels(mask_bits)
    alphas = np.abs(flat).max(axis=1) / lmax
    masks = np.zeros(flat.shape, np.int8)
    live = alphas > 0.0
    masks[live] = np.clip(round_half_away(flat[live] / alphas[live, None]), -lmax, lmax)
    return alphas, masks


def _row_layer(weights, biases, mask_bits, policy, shift):
    """(shift, scalars, masks, biases, stats) by the per-row formulas."""
    flat = weights.reshape(-1, 9)
    alphas, masks = _row_alphas_masks(flat, mask_bits, policy)
    auto = compute_layer_shift(alphas)
    e = auto.e if shift is None else shift
    saturated = auto.saturated if shift is None else bool(
        alphas.max() >= 2.0 ** e and alphas.max() > 0)
    raw = round_half_away(alphas * 2.0 ** (8 - e))
    scalars = np.clip(raw, 0, SCALAR_MAX).astype(np.uint8)
    if mask_bits > 1:
        masks[scalars == 0] = 0
    braw = round_half_away(biases * 2.0 ** (8 - e))
    stats = QuantStats(int(np.count_nonzero(raw > SCALAR_MAX)),
                       int(np.count_nonzero((braw < BIAS_MIN) | (braw > BIAS_MAX))),
                       saturated, auto.degenerate)
    return e, scalars, masks, np.clip(braw, BIAS_MIN, BIAS_MAX).astype(np.int16), stats


def _awkward_kernels(rng, count, mask_bits):
    """Kernels with dead rows, -0.0 weights and exact .5 ties of w / alpha."""
    scale = 2.0 ** rng.integers(-6, 3, (count, 1))
    w = rng.normal(size=(count, 9)) * scale
    lmax = mask_levels(mask_bits)
    ties = rng.random(count) < 0.3      # half-integer multiples of a power-of-two alpha
    halves = rng.integers(-2 * lmax, 2 * lmax + 1, (count, 9)) / 2.0
    halves[:, 0] = lmax
    w[ties] = (halves * scale)[ties]
    w[rng.random(count) < 0.1] = 0.0    # dead kernels
    w[rng.random(count) < 0.05] = 1.5   # constant kernels: every weight ties the mean
    w[rng.random((count, 9)) < 0.05] = -0.0
    return w


@pytest.mark.parametrize("count", [1, 37, BLOCK_KERNELS, BLOCK_KERNELS + 1])
def test_blocked_alphas_masks_have_the_bits_of_the_row_formulas(count):
    rng = np.random.default_rng(count)
    for m in (1, 2, 3, 4, 5):
        flat = _awkward_kernels(rng, count, m)
        for policy in (POLICIES if m == 1 else POLICIES[:1]):
            alphas, masks = layer_alphas_masks(flat, m, policy)
            want_alphas, want_masks = _row_alphas_masks(flat, m, policy)
            assert alphas.dtype == np.float64 and masks.dtype == np.int8
            assert np.array_equal(alphas.view(np.uint64), want_alphas.view(np.uint64)), (m, policy)
            assert np.array_equal(masks, want_masks), (m, policy)


@pytest.mark.parametrize("shift", [None, -3])
def test_quantize_layer_matches_the_row_formulas_with_equal_stats(shift):
    rng = np.random.default_rng(40)
    out, cin = 3, BLOCK_KERNELS // 3 + 2   # K = BLOCK_KERNELS + 6: two blocks
    saturations = 0
    for m in (1, 2, 3, 4, 5):
        weights = _awkward_kernels(rng, out * cin, m).reshape(out, cin, 3, 3)
        biases = np.array([0.0, 3.0, -900.0])
        for policy in (POLICIES if m == 1 else POLICIES[:1]):
            layer = (quantize_layer(weights, biases, m, policy) if shift is None
                     else finish_layer(fit_layer(weights, biases, m, policy), shift))
            e, scalars, masks, bq, stats = _row_layer(weights, biases, m, policy, shift)
            assert layer.shift == e
            assert np.array_equal(layer.scalars, scalars.reshape(out, cin))
            assert np.array_equal(layer.masks, masks.reshape(out, cin, 9))
            assert np.array_equal(layer.biases, bq)
            assert layer.stats == stats, (m, policy)
            saturations += stats.scalar_saturations
            # the scalar helpers round onto the same grid, saturating codes included
            alphas = layer_alphas_masks(weights, m, policy)[0]
            codes = layer.scalars.ravel()
            picks = np.r_[np.arange(0, codes.size, 97), np.flatnonzero(codes == SCALAR_MAX)[:50]]
            assert [quantize_scalar(a, e) for a in alphas[picks]] == codes[picks].tolist()
            assert [quantize_bias(b, e) for b in biases] == layer.biases.tolist()
    assert (saturations > 0) == (shift is not None)  # -3 clamps scalars


def test_finish_layer_leaves_its_fit_as_it_was():
    # at shift 5 (step 1/8) the small kernels' mantissas round to zero, so
    # their masks are zeroed in the layer; the fit keeps its own, and a
    # second finish of it equals a finish of a fresh fit
    rng = np.random.default_rng(41)
    weights = rng.normal(size=(4, 3, 3, 3)) * 0.02
    weights[0] *= 100.0
    biases = rng.normal(size=4)
    fit = fit_layer(weights, biases, 2)
    before = [array.tobytes() for array in fit[1:]]
    first = finish_layer(fit, 5)
    dead = first.scalars == 0
    assert dead.any() and not dead.all()
    assert not first.masks[dead].any() and fit.masks[dead].any()
    assert [array.tobytes() for array in fit[1:]] == before
    second = finish_layer(fit, 5)
    fresh = finish_layer(fit_layer(weights, biases, 2), 5)
    assert second == first == fresh and second.stats == fresh.stats
    assert second.masks.tobytes() == fresh.masks.tobytes()
    assert finish_layer(fit) == quantize_layer(weights, biases, 2)
    assert [array.tobytes() for array in fit[1:]] == before


def test_one_saturation_rule_serves_both_shift_sources():
    # a shift saturates when the peak alpha is not below 2**shift (so is
    # positive); under the layer's own shift that is compute_layer_shift's flag
    for value in [0.0, 2.0 ** -9, 2.0 ** -8, 0.3, 1.0, 127.9, 2.0 ** 7, 2.0 ** 7 + 1, 1e6]:
        weights = np.zeros((1, 2, 3, 3))
        weights[0, 0] = value  # one kernel of constant weights, one dead
        alphas = fit_layer(weights, np.zeros(1), 1).alphas
        peak, auto = float(alphas.max()), compute_layer_shift(alphas)
        own = quantize_layer(weights, np.zeros(1), 1).stats
        assert (own.shift_saturated, own.degenerate) == (auto.saturated, auto.degenerate), value
        assert auto.saturated == (peak >= 2.0 ** SHIFT_MAX), value
        for e in (SHIFT_MIN, -3, 0, SHIFT_MAX):
            given = finish_layer(fit_layer(weights, np.zeros(1), 1), e).stats
            assert given.shift_saturated == (peak >= 2.0 ** e), (value, e)
            assert given.degenerate == (peak == 0), (value, e)
    # a given shift is checked before any arithmetic: -2000 overflowed
    # 2.0 ** (8 - e), and 2.5 was truncated to 2
    for shift in (SHIFT_MAX + 1, -2000, 2.5):
        with pytest.raises(ValueError, match=rf"^shift {shift} outside \[-8, 7\]"):
            finish_layer(fit_layer(np.ones((1, 1, 3, 3)), np.zeros(1), 1), shift)


@pytest.mark.parametrize("errors", [{}, {"all": "raise", "under": "ignore"}])
def test_non_finite_weights_and_overflowing_alphas_keep_their_errors(errors):
    # a non-finite weight in the second block is found from its alpha, with
    # no floating-point warning first, under default and raising error states
    for bad in (np.nan, np.inf, -np.inf):
        w = np.random.default_rng(41).normal(size=(BLOCK_KERNELS + 1, 9))
        w[-1, 4] = bad
        for m in (1, 2, 3, 4, 5):
            for policy in (POLICIES if m == 1 else POLICIES[:1]):
                with np.errstate(**errors), pytest.raises(
                        ValueError, match="weights contains non-finite values"):
                    quantize_layer(w.reshape(-1, 1, 3, 3), np.zeros(len(w)), m, policy)
    # finite weights whose 1-bit alpha overflows reach the shift rule
    huge = np.full((2, 1, 3, 3), 1e308)
    for policy in POLICIES:
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="alphas must be finite and non-negative"):
            quantize_layer(huge, np.zeros(2), 1, policy)
