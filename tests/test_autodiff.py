"""Engine-level tests: op semantics, tape backward rules, gradient checking."""

import contextlib
import gc
import math
import sys
import weakref

import numpy as np
import pytest

from callab import autodiff as ad
from callab.autodiff import Tensor

from conftest import (
    attention_chain,
    linear_chain,
    reference_backward,
    reference_layer_norm,
    reference_softmax,
    residual_norm_chain,
)


@pytest.fixture(autouse=True)
def _finite_checks():
    ad.DEBUG_CHECK_FINITE = True
    yield
    ad.DEBUG_CHECK_FINITE = False


class TestTensorBasics:
    def test_storage_is_float32_row_major(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.size == 6

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()

    def test_grad_matches_data_length(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.sum_all(x))
        assert x.grad.shape == x.data.shape


class TestScalarRule:
    """0-d tensors (loss values) are stored in float64; their gradients stay float32."""

    def test_scalar_values_are_0d_float64(self, rng):
        x = Tensor(rng.standard_normal((3, 5)))
        s, m = ad.sum_all(x), ad.mean_all(x)
        for t in (s, m, ad.add(s, m), ad.sub(s, m), ad.mul(s, m), ad.scale(s, 0.3),
                  Tensor(np.float32(1.5))):
            assert t.data.shape == () and t.data.dtype == np.float64
        with ad._float64_forward():
            assert ad.sum_all(x).data.dtype == np.float64

    def test_item_is_the_float64_arithmetic(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        total = float(x.sum(dtype=np.float64))
        mean = float(x.sum(dtype=np.float64) / x.size)
        s, m = ad.sum_all(Tensor(x)), ad.mean_all(Tensor(x))
        assert ad.scale(s, -1.0 / 7).item() == total * (-1.0 / 7)
        assert ad.add(s, m).item() == total + mean
        assert ad.sub(s, m).item() == total - mean
        assert ad.mul(s, m).item() == total * mean

    def test_scale_of_an_array_rounds_c_to_float32(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        got = ad.scale(Tensor(x), 1.0 / 3).data
        assert got.dtype == np.float32
        assert got.tobytes() == (x * np.float32(1.0 / 3)).tobytes()

    def test_gradient_through_the_scalar_chain_is_float32(self, rng):
        """x's gradient has float32 bytes: c rounded to float32, each step rounded in float32.

        0.3 / 15 is one case where that differs from rounding the float64 quotient.
        """
        x_d = rng.standard_normal((3, 5)).astype(np.float32)
        x = Tensor(x_d, requires_grad=True)
        with ad.Tape():
            loss = ad.add(ad.scale(ad.mean_all(ad.mul(x, x)), 0.3), ad.scale(ad.sum_all(x), -0.01))
            ad.backward(loss)
        g_mean = np.full(x_d.shape, np.float32(0.3) / np.float32(15), dtype=np.float32)
        # the walk reaches x through sum_all first, then twice through mul
        want = (np.float32(-0.01) + g_mean * x_d) + g_mean * x_d
        assert x.grad.dtype == np.float32
        assert x.grad.tobytes() == want.tobytes()


class TestElementwiseAndLinear:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)).astype(np.float32)
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(out.data, a, rtol=1e-6)

    def test_scale_zero(self):
        v = Tensor(np.arange(5, dtype=np.float32))
        assert np.array_equal(ad.scale(v, 0.0).data, np.zeros(5, dtype=np.float32))

    def test_matmul_against_triple_loop(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        want = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    want[i, j] += float(np.float32(a[i, k])) * float(np.float32(b[k, j]))
        got = ad.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_add_shape_error(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_batched_matmul_matches_loop(self, rng):
        a = rng.standard_normal((4, 2, 3)).astype(np.float32)
        b = rng.standard_normal((4, 3, 5)).astype(np.float32)
        got = ad.matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_allclose(got[i], a[i] @ b[i], atol=1e-5)

    def test_first_position(self, rng):
        a = rng.standard_normal((3, 4, 2)).astype(np.float32)
        np.testing.assert_array_equal(ad.first_position(Tensor(a)).data, a[:, :1])

    def test_transpose_roundtrip(self, rng):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        back = ad.transpose(ad.transpose(Tensor(a), (1, 0, 2)), (1, 0, 2))
        np.testing.assert_array_equal(back.data, a)

    def test_add_bias_suffix_check(self):
        with pytest.raises(ValueError, match="suffix"):
            ad.add_bias(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax_rows(Tensor(np.array([[0.0, 0.0]]))).data
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-7)

    def test_ln2_case(self):
        out = ad.softmax_rows(Tensor(np.array([[math.log(2.0), 0.0]]))).data
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-6)

    def test_rows_sum_to_one_and_match_oracle(self, rng):
        x = rng.standard_normal((4, 7))
        got = ad.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-6)
        x32 = x.astype(np.float32).astype(np.float64)
        want = np.exp(x32) / np.exp(x32).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        a = ad.softmax_rows(Tensor(x)).data
        b = ad.softmax_rows(Tensor(x + 7.25)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    @staticmethod
    def _inputs(rng):
        """Random rows in 2-D and 4-D, float32 and float64, of length 1 and longer,
        each plain, with masked key columns, with ±0.0 ties and with NaN rows."""
        neg_nan = np.copysign(np.nan, -1.0)
        for shape in ((6, 1), (2, 3, 4, 1), (7, 5), (4, 9), (32, 4, 15, 15), (3, 2, 1, 9)):
            for dtype in (np.float32, np.float64):
                x = (rng.standard_normal(shape) * 3.0).astype(dtype)
                yield x
                # attention's -1e9 at the key columns a batch row masks; row 0 masks all
                keys = rng.random((shape[0],) + (1,) * (len(shape) - 2) + shape[-1:]) < 0.4
                keys[0] = True
                yield x + np.where(keys, -1e9, 0.0).astype(dtype)
                ties = -np.abs(x)
                ties[rng.random(shape) < 0.4] = 0.0
                ties[rng.random(shape) < 0.4] = -0.0
                yield ties
                yield np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(dtype)
                for fill in ((np.nan,), (neg_nan,), (np.nan, neg_nan), (np.inf, -np.inf)):
                    odd = x.copy()
                    for value in fill:
                        odd[rng.random(shape) < 0.15] = value
                    yield odd

    def test_bytes_equal_the_row_max_reference(self, rng):
        """``_softmax`` takes its row max column by column; a max is exact, so no byte moves."""
        with np.errstate(invalid="ignore"):
            for storage in (contextlib.nullcontext, ad._float64_forward):
                for x in self._inputs(rng):
                    with storage():
                        got, want = ad._softmax(x), reference_softmax(x)
                    assert got.dtype == want.dtype and got.shape == x.shape
                    assert got.tobytes() == want.tobytes(), (x.shape, x.dtype)


class TestLayerNorm:
    def test_constant_row_zeroes(self):
        x = Tensor(np.full((2, 4), 3.0))
        out = ad.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_case(self):
        out = ad.layer_norm(
            Tensor(np.array([[1.0, 3.0]])), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_gradient_vs_finite_differences(self, rng):
        gamma = Tensor(np.abs(rng.standard_normal(6)).astype(np.float32) + 0.5)
        beta = Tensor(rng.standard_normal(6).astype(np.float32))
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        err = ad.grad_check(lambda t: ad.mean_all(ad.tanh(ad.layer_norm(t, gamma, beta))), x)
        assert err < 1e-4

    def test_gamma_beta_gradients(self, rng):
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        gamma = Tensor(np.ones(6), requires_grad=True)
        beta = Tensor(np.zeros(6), requires_grad=True)
        err_g = ad.grad_check(lambda g: ad.mean_all(ad.mul(ad.layer_norm(x, g, beta),
                                                           ad.layer_norm(x, g, beta))), gamma)
        err_b = ad.grad_check(lambda b: ad.mean_all(ad.mul(ad.layer_norm(x, gamma, b),
                                                           ad.layer_norm(x, gamma, b))), beta)
        assert err_g < 1e-4 and err_b < 1e-4

    @pytest.mark.parametrize("storage", ["float32", "float64"])
    @pytest.mark.parametrize("shape", [(32, 15, 64), (32, 15, 32), (32, 1, 64), (3, 6), (2, 5, 1)])
    def test_bytes_equal_the_reference(self, rng, shape, storage):
        """Output and all three gradients, on rows with a large mean and on constant rows."""
        h = shape[-1]
        x = rng.standard_normal(shape) * 3.0 + 50.0
        x.reshape(-1, h)[0] = 7.0
        g = rng.standard_normal(shape).astype(np.float32)
        gamma_d = rng.standard_normal(h) + 1.0
        beta_d = rng.standard_normal(h)
        context = ad._float64_forward() if storage == "float64" else contextlib.nullcontext()
        got = []
        for op in (ad.layer_norm, reference_layer_norm):
            with context, ad.Tape() as tape:
                t = Tensor(x, requires_grad=True)
                gamma, beta = Tensor(gamma_d, requires_grad=True), Tensor(beta_d, requires_grad=True)
                out = op(t, gamma, beta)
                assert out.data.dtype == np.dtype(storage)
                got.append([out.data.tobytes()]
                           + [d.tobytes() for d in tape.nodes[-1].backward(g)])
        assert got[0] == got[1]


def _dropped(a, rate, seed, train_mode=True, full_shape=None):
    """``dropout_apply`` of ``a`` with a new ``dropout_mask`` of its shape."""
    return ad.dropout_apply(a, ad.dropout_mask(seed, a.shape, rate, train_mode, full_shape))


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        out = _dropped(x, 0.0, seed=3)
        np.testing.assert_array_equal(out.data, x.data)

    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        out = _dropped(x, 0.9, seed=3, train_mode=False)
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("rate, train_mode", [(0.9, False), (0.0, True)])
    def test_identity_returns_input_and_passes_gradients(self, rng, rate, train_mode):
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32), requires_grad=True)
        c = rng.standard_normal((5, 5)).astype(np.float32)
        assert ad.dropout_mask(3, x.shape, rate, train_mode) is None
        with ad.Tape() as tape:
            out = _dropped(x, rate, seed=3, train_mode=train_mode)
            assert out is x and not tape.nodes
            ad.backward(ad.sum_all(ad.mul(out, Tensor(c))))
        np.testing.assert_array_equal(x.grad, c)

    def test_rate_validated_before_identity(self):
        with pytest.raises(ValueError, match="rate"):
            ad.dropout_mask(0, (3,), 1.5, train_mode=False)

    def test_statistics_and_determinism(self):
        x = Tensor(np.ones((400, 250), dtype=np.float32))  # 1e5 elements
        a = _dropped(x, 0.1, seed=77)
        b = _dropped(x, 0.1, seed=77)
        np.testing.assert_array_equal(a.data, b.data)
        zero_frac = float((a.data == 0).mean())
        assert abs(zero_frac - 0.1) < 0.01
        survivors = a.data[a.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.9, rtol=1e-6)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ad.dropout_mask(0, (3,), 1.0, train_mode=True)

    def test_full_shape_mask_is_cropped_corner(self, rng):
        full = Tensor(rng.standard_normal((3, 8, 5)).astype(np.float32), requires_grad=True)
        part = Tensor(full.data[:, :6, :].copy(), requires_grad=True)
        with ad.Tape():
            a = _dropped(full, 0.3, seed=11)
            b = _dropped(part, 0.3, seed=11, full_shape=(3, 8, 5))
            ad.backward(ad.add(ad.sum_all(a), ad.sum_all(b)))
        np.testing.assert_array_equal(b.data, a.data[:, :6, :])
        np.testing.assert_array_equal(part.grad, full.grad[:, :6, :])
        with pytest.raises(ValueError, match="crop"):
            ad.dropout_mask(11, (3, 8, 5), 0.3, True, full_shape=(3, 7, 5))

    def test_a_mask_of_another_shape_is_refused(self):
        mask = ad.dropout_mask(4, (3, 5), 0.2, True)
        match = r"dropout_apply: mask of shape \(3, 5\) does not fit \(3, 4\)"
        with pytest.raises(ValueError, match=match):
            ad.dropout_apply(Tensor(np.ones((3, 4))), mask)

    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.5, 1e-9, 0.9999])
    def test_raw_word_keep_is_the_uniform_draw_test(self, rate):
        """Comparing raw Philox words with the integer threshold keeps what random() >= rate keeps."""
        full, shape = (4, 160, 160), (4, 97, 131)
        for cropped in (full, shape):
            job, scale = ad.dropout_mask(123, cropped, rate, True, full)
            keep = job.result()
            want = ad.rng_from_seed(123).random(full)[:, :cropped[1], :cropped[2]] >= rate
            assert keep.dtype == np.bool_ and keep.shape == cropped
            assert np.array_equal(keep, want)
            assert scale.dtype == np.float32 and scale == np.float32(1.0 / (1.0 - rate))

    def test_bool_mask_gives_the_float_mask_bytes(self):
        """(g * keep) * scale has the bytes of g * (keep * scale), special values included."""
        nan_payload = np.array([0x7FC01234, 0xFFC00042], dtype=np.uint32).view(np.float32)
        specials = np.concatenate([
            np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45, 1e-40,
                      -3e-39, 1.5, -2.25, 3.4e38, -3.4e38], dtype=np.float32),
            nan_payload,
        ])
        g = np.repeat(specials, 2)
        keep = np.tile([True, False], specials.size)
        with np.errstate(all="ignore"):
            for rate in (0.1, 0.5, 0.9):
                scale = np.float32(1.0 / (1.0 - rate))
                want = g * (keep.astype(np.float32) * scale)
                assert ((g * keep) * scale).tobytes() == want.tobytes()

    def test_dropout_apply_equals_the_float_mask_definition(self, monkeypatch):
        """Forward and backward bytes equal x * mask for the float32 mask of random() >= rate."""
        monkeypatch.setattr(ad, "DEBUG_CHECK_FINITE", False)  # NaN and inf are inputs under test
        specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-40, 2.5],
                            dtype=np.float32)
        a = np.resize(specials, (6, 9, 8))
        g = np.resize(specials[::-1], (6, 9, 8))
        full, rate = (6, 12, 8), 0.4
        mask = (ad.rng_from_seed(5).random(full)[:, :9] >= rate).astype(np.float32)
        mask = mask * np.float32(1.0 / (1.0 - rate))
        with np.errstate(all="ignore"), ad.Tape() as tape:
            out = _dropped(Tensor(a, requires_grad=True), rate, 5, full_shape=full)
            (got,) = tape.nodes[-1].backward(g)
            assert out.data.tobytes() == (a * mask).tobytes()
            assert got.tobytes() == (g * mask).tobytes()


class TestMaskWorker:
    """Masks drawn on the worker have the bytes of an inline draw."""

    CASES = {  # name: (shape, full_shape)
        "crop": ((3, 5, 7), (3, 9, 8)),
        "batch_of_one": ((1, 12, 16), (1, 32, 16)),
        "width_one": ((4, 1, 16), (4, 32, 16)),
        "cls_row": ((4, 2, 1, 12), (4, 2, 32, 32)),
        "slab_over_chunk": ((2, 130, 131), (3, 140, 140)),
        "scalar": ((), ()),
    }

    @staticmethod
    def truth(seed, shape, full, rate):
        """The keep bits by definition: a whole-shape ``random()`` draw, cropped, at least ``rate``."""
        return ad.rng_from_seed(seed).random(full)[tuple(slice(0, s) for s in shape)] >= rate

    @staticmethod
    def inline_and_worker(monkeypatch, seed, shape, full, rate):
        """The keep arrays of ``dropout_mask`` drawn inline (no floor reached), then on the worker."""
        keeps = []
        for floor in (math.inf, 0):
            monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", floor)
            job, _ = ad.dropout_mask(seed, shape, rate, True, full)
            keeps.append(job.result())
        return keeps

    @staticmethod
    def submitted(monkeypatch):
        """The list of the jobs handed to ``_submit`` from now on."""
        jobs, submit = [], ad._submit
        monkeypatch.setattr(ad, "_submit", lambda job: jobs.append(job) or submit(job))
        return jobs

    @pytest.mark.parametrize("case", CASES)
    def test_worker_and_inline_keep_bytes_equal(self, monkeypatch, case):
        shape, full = self.CASES[case]
        inline, worker = self.inline_and_worker(monkeypatch, 21, shape, full, 0.3)
        assert inline.tobytes() == worker.tobytes() == self.truth(21, shape, full, 0.3).tobytes()
        assert worker.shape == shape and worker.dtype == np.bool_

    def test_rate_zero_and_eval_draw_nothing(self, monkeypatch):
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", 0)
        jobs = self.submitted(monkeypatch)
        assert ad.dropout_mask(5, (2, 3), 0.0, True, (2, 4)) is None
        assert ad.dropout_mask(5, (2, 3), 0.5, False, (2, 4)) is None
        assert not jobs

    def test_only_masks_at_the_floor_reach_the_worker(self, monkeypatch):
        jobs = self.submitted(monkeypatch)
        shape, under, at = (2, 7), (2, ad.MASK_WORKER_FLOOR // 2 - 1), (2, ad.MASK_WORKER_FLOOR // 2)
        small, _ = ad.dropout_mask(5, shape, 0.1, True, under)
        assert not jobs and not small.ready.locked()  # drawn before dropout_mask returned
        large, _ = ad.dropout_mask(5, shape, 0.1, True, at)
        assert jobs == [large]
        for job, full in ((small, under), (large, at)):
            assert job.result().tobytes() == self.truth(5, shape, full, 0.1).tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_one_random_raw_call_of_the_full_shape(self, monkeypatch, case):
        calls = []

        class Recording(np.random.Philox):
            def random_raw(self, size=None, output=True):
                calls.append(math.prod(size) if isinstance(size, tuple) else size)
                return super().random_raw(size, output)

        monkeypatch.setattr(np.random, "Philox", Recording)
        shape, full = self.CASES[case]
        keep = ad._draw_keep(4, full, 0.5, np.empty(shape, dtype=bool))
        assert keep.tobytes() == self.truth(4, shape, full, 0.5).tobytes()
        assert calls == [math.prod(full)]

    # (shape, full_shape) of selfcheck's worker mask, a 0-d mask, the [CLS]
    # probability row, both workloads' hidden and probability masks at width
    # 15, a mask cropped on every axis and an uncropped mask
    REFERENCE_PAIRS = [
        ((3, 256, 60), (4, 257, 64)), ((), ()), ((32, 4, 1, 15), (32, 4, 32, 32)),
        ((32, 15, 32), (32, 16, 32)), ((32, 2, 15, 15), (32, 2, 16, 16)),
        ((32, 2, 1, 15), (32, 2, 16, 16)), ((32, 15, 64), (32, 32, 64)),
        ((32, 4, 15, 15), (32, 4, 32, 32)), ((32, 1, 64), (32, 32, 64)),
        ((2, 130, 131), (3, 140, 140)), ((100, 100), (100, 100)),
    ]

    @pytest.mark.parametrize("shape, full", REFERENCE_PAIRS, ids=str)
    def test_keep_bytes_equal_the_reference_walk(self, monkeypatch, shape, full):
        """The reference is the ground truth, ``truth``: inline and worker draws equal it."""
        for seed, rate in ((42, 0.1), (7, 0.5)):
            want = self.truth(seed, shape, full, rate).tobytes()
            inline, worker = self.inline_and_worker(monkeypatch, seed, shape, full, rate)
            assert inline.tobytes() == worker.tobytes() == want

    @pytest.mark.parametrize("floor", [0, math.inf], ids=["worker", "inline"])
    def test_draw_error_is_raised_in_the_reader(self, monkeypatch, floor):
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", floor)

        def broken(*args):
            raise MemoryError("no room for the mask")

        monkeypatch.setattr(ad, "_draw_keep", broken)
        mask = ad.dropout_mask(8, (2, 3), 0.2, True)
        with pytest.raises(MemoryError, match="no room"):
            ad.dropout_apply(Tensor(np.ones((2, 3))), mask)
        monkeypatch.undo()
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", floor)
        job, _ = ad.dropout_mask(8, (2, 3), 0.2, True)  # the worker lives on
        assert job.result().tobytes() == self.truth(8, (2, 3), (2, 3), 0.2).tobytes()

    def test_stress_with_a_short_switch_interval(self, monkeypatch):
        """Forwards make masks, read some and drop the rest while the worker draws."""
        monkeypatch.setattr(ad, "MASK_WORKER_FLOOR", 0)
        rng = np.random.default_rng(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for forward in range(40):
                sites = [(forward * 100 + i, (int(rng.integers(1, 5)), 7, 9), (5, 12, 9))
                         for i in range(int(rng.integers(1, 7)))]
                masks = [ad.dropout_mask(seed, shape, 0.25, True, full)
                         for seed, shape, full in sites]
                for (seed, shape, full), (job, _) in list(zip(sites, masks))[
                        : int(rng.integers(0, len(sites) + 1))]:
                    assert job.result().tobytes() == self.truth(seed, shape, full, 0.25).tobytes()
        finally:
            sys.setswitchinterval(interval)


class TestActivations:
    def test_tanh_zero(self):
        assert ad.tanh(Tensor(np.zeros(1))).data[0] == 0.0

    def test_relu_values(self):
        out = ad.relu(Tensor(np.array([-5.0, 5.0])))
        np.testing.assert_array_equal(out.data, [0.0, 5.0])

    def test_tanh_range(self, rng):
        # float32 saturates past |x| ~ 9; check the open interval inside it
        out = ad.tanh(Tensor(rng.uniform(-6, 6, size=100)))
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)

    def test_relu_backward_bytes_at_negative_zero_and_nan(self, monkeypatch):
        monkeypatch.setattr(ad, "DEBUG_CHECK_FINITE", False)  # NaN is the input under test
        a = np.array([-0.0, 0.0, np.nan, -np.nan, 2.0, -3.0, np.inf, -np.inf], dtype=np.float32)
        g = np.array([1.5, -2.0, 3.0, np.nan, -4.0, np.nan, 5.0, -6.0], dtype=np.float32)
        x = Tensor(a, requires_grad=True)
        with ad.Tape() as tape:
            ad.relu(x)
            (got,) = tape.nodes[-1].backward(g)
        want = g * (a > 0).astype(np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        assert ad.grad_check(lambda t: ad.mean_all(ad.tanh(t)), x) < 1e-4
        x2 = rng.standard_normal((4, 4))
        x2 += np.sign(x2) * 0.05  # keep probes off the kink
        xr = Tensor(x2, requires_grad=True)
        assert ad.grad_check(lambda t: ad.mean_all(ad.mul(ad.relu(t), ad.relu(t))), xr) < 1e-4


class TestL2Normalize:
    def test_three_four_five(self):
        out = ad.l2_normalize_rows(Tensor(np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_zero_row_guarded(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        out = ad.l2_normalize_rows(Tensor(x)).data
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [1.0, 0.0], atol=1e-7)

    def test_norms_are_one(self, rng):
        x = rng.standard_normal((10, 8))
        out = ad.l2_normalize_rows(Tensor(x)).data
        np.testing.assert_allclose(
            np.linalg.norm(out.astype(np.float64), axis=1), 1.0, atol=1e-6
        )


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.sum_all(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)

    def test_constant_path_gets_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        c = Tensor(np.array([5.0]), requires_grad=True)
        with ad.Tape():
            y = ad.mul(x, x)
            ad.mul(c, c)  # recorded but not on the path to the root
            ad.backward(ad.sum_all(y))
        np.testing.assert_array_equal(c.grad, [0.0])

    def test_fanout_sums_exactly(self):
        x = Tensor(np.array([7.0]), requires_grad=True)
        with ad.Tape():
            ad.backward(ad.sum_all(ad.add(x, x)))
        assert x.grad[0] == 2.0

    def test_backward_rejects_nonscalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.Tape():
            y = ad.mul(x, x)
            with pytest.raises(ValueError, match="scalar"):
                ad.backward(y)

    def test_backward_needs_tape(self):
        x = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(RuntimeError):
            ad.backward(ad.sum_all(x))

    def test_shared_gradient_buffers_do_not_alias(self):
        """add() hands one array to both inputs; summing into one must not reach the other."""
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with ad.Tape():
            a, b = ad.scale(x, 1.0), ad.scale(y, 1.0)
            c = ad.scale(a, 5.0)
            ad.backward(ad.sum_all(ad.add(ad.add(a, b), c)))
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        np.testing.assert_array_equal(a.grad, [6.0, 6.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(c.grad, [1.0, 1.0])

    def test_pass_through_gradient_is_not_summed_into(self):
        """add() hands o's fan-in sum to x and y; x's later term must not reach y or o."""
        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        with ad.Tape():
            z = ad.scale(x, 7.0)
            o = ad.add(x, y)
            root = ad.add(ad.add(ad.sum_all(ad.scale(o, 2.0)), ad.sum_all(ad.scale(o, 3.0))),
                          ad.sum_all(z))
            want = ad.grad_of(root, y)
            ad.backward(root)
        np.testing.assert_array_equal(want, [5.0, 5.0])
        np.testing.assert_array_equal(y.grad, [5.0, 5.0])
        np.testing.assert_array_equal(o.grad, [5.0, 5.0])
        np.testing.assert_array_equal(x.grad, [12.0, 12.0])
        np.testing.assert_array_equal(z.grad, [1.0, 1.0])


class TestConsumingBackward:
    """``backward`` frees the tape as it walks and leaves the oracle's gradients."""

    def test_unheld_intermediates_are_freed_during_the_walk(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        gc.disable()
        try:
            with ad.Tape():
                hid = ad.relu(ad.matmul(x, w))
                alive = weakref.ref(hid.data)
                root = ad.sum_all(_dropped(ad.tanh(hid), 0.5, seed=1))
                del hid
                ad.backward(root)
                assert alive() is None
                assert x.grad is not None and w.grad is not None
        finally:
            gc.enable()

    @pytest.mark.parametrize("second", ["backward", "grad_of"])
    def test_consumed_tape_refuses_a_second_walk(self, rng, second):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with ad.Tape():
            root = ad.sum_all(ad.tanh(x))
            ad.backward(root)
            again = ad.backward if second == "backward" else (lambda r: ad.grad_of(r, x))
            with pytest.raises(RuntimeError, match="consumed"):
                again(root)

    def test_every_held_grad_matches_the_reference_walk(self, rng):
        def graph(t):
            w = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4) / 7, requires_grad=True)
            unused = Tensor(np.ones(3), requires_grad=True)
            a = ad.matmul(t, w)
            b = ad.relu(a)
            c = ad.add(a, ad.scale(b, 2.0))
            ad.mul(unused, unused)  # recorded, not on the path to the root
            root = ad.sum_all(ad.mul(ad.tanh(c), b))
            return [w, unused, a, b, c, root], root

        data = rng.standard_normal((2, 3))
        held = []
        for reference in (False, True):
            x = Tensor(data, requires_grad=True)
            with ad.Tape() as tape:
                tensors, root = graph(x)
                if reference:
                    reference_backward(root, tape)
                else:
                    ad.backward(root)
            held.append([x, *tensors])
        for got, want in zip(*held):
            assert got.grad.tobytes() == want.grad.tobytes()


class TestWeaklyHeldOutputs:
    """A node holds only what its backward reads; outputs no one holds die in the forward."""

    def test_unread_linear_output_dies_before_backward(self, rng):
        x_data = rng.standard_normal((4, 3)).astype(np.float32)
        w_data = rng.standard_normal((3, 5)).astype(np.float32)
        v_data = rng.standard_normal((5, 2)).astype(np.float32)
        held = []
        for reference in (False, True):
            x = Tensor(x_data, requires_grad=True)
            w, b = Tensor(w_data, requires_grad=True), Tensor(np.zeros(5), requires_grad=True)
            v, c = Tensor(v_data, requires_grad=True), Tensor(np.ones(2), requires_grad=True)
            gc.disable()
            try:
                with ad.Tape() as tape:
                    hid = ad.linear(x, w, b)  # relu saves its own output, not this one
                    alive = weakref.ref(hid.data)
                    act = ad.relu(hid)
                    del hid
                    assert alive() is None
                    root = ad.sum_all(ad.tanh(ad.linear(act, v, c)))
                    if reference:
                        reference_backward(root, tape)
                    else:
                        ad.backward(root)
            finally:
                gc.enable()
            held.append([x, w, b, v, c, act, root])
        for got, want in zip(*held):
            assert got.grad.dtype == want.grad.dtype and got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_reused_ids_do_not_mix_gradients(self, rng):
        """Intermediates die mid-forward and new leaves take their ids: grads as if all were held."""
        data = rng.standard_normal((3, 4)).astype(np.float32)

        def run(hold):
            x = Tensor(data, requires_grad=True)
            leaves, keep_alive, dead, fresh = [x], [], set(), set()
            with ad.Tape():
                t = x
                for i in range(8):
                    u = ad.scale(t, 0.5)  # tanh saves its own output, so u dies with its name
                    dead.add(id(u))
                    t = ad.tanh(u)
                    if hold:
                        keep_alive.append(u)
                    del u
                    c = Tensor(np.full((3, 4), 1.0 + i / 8, dtype=np.float32), requires_grad=True)
                    fresh.add(id(c))
                    leaves.append(c)
                    t = ad.mul(t, c)
                ad.backward(ad.sum_all(t))
            return leaves, dead & fresh

        held, reused_held = run(hold=True)
        dropped, reused = run(hold=False)
        assert reused and not reused_held
        for got, want in zip(dropped, held):
            assert got.grad.tobytes() == want.grad.tobytes()


class TestTapeLifetime:
    def test_tape_is_freed_without_the_cycle_collector(self, rng):
        """No node may reach itself, so a tape's arrays go when its last reference does."""
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        gamma, beta = Tensor(np.ones(5), requires_grad=True), Tensor(np.zeros(5), requires_grad=True)
        gc.disable()
        try:
            with ad.Tape():
                hid = ad.layer_norm(ad.add_bias(ad.matmul(x, w), beta), gamma, beta)
                alive = [weakref.ref(hid.data)]
                root = ad.sum_all(_dropped(hid, 0.5, seed=1))
                alive.append(weakref.ref(root.data))
                ad.grad_of(root, hid)
                ad.backward(root)
            del hid, root
            assert all(ref() is None for ref in alive)
        finally:
            gc.enable()


class TestGradOf:
    def _graph(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        seam = ad.tanh(ad.matmul(x, w))
        root = ad.sum_all(ad.mul(ad.add(seam, ad.scale(seam, 2.0)), ad.relu(seam)))
        return w, x, seam, root

    def test_matches_backward_bit_for_bit(self, rng):
        with ad.Tape():
            w, x, seam, root = self._graph(rng)
            got = ad.grad_of(root, seam)
            ad.backward(root)
        np.testing.assert_array_equal(got, seam.grad)
        assert got.dtype == np.float32 and got.shape == seam.shape

    def test_leaves_grad_fields_untouched(self, rng):
        with ad.Tape():
            w, x, seam, root = self._graph(rng)
            sentinels = {id(t): np.full(t.shape, 7.0, dtype=np.float32) for t in (w, x, seam, root)}
            for t in (w, x, seam, root):
                t.grad = sentinels[id(t)]
            ad.grad_of(root, seam)
        for t in (w, x, seam, root):
            assert t.grad is sentinels[id(t)]
            np.testing.assert_array_equal(t.grad, 7.0)

    def test_unreachable_wrt_gets_zeros(self, rng):
        with ad.Tape():
            w, x, seam, root = self._graph(rng)
            other = ad.scale(Tensor(np.ones((2, 2)), requires_grad=True), 3.0)
            np.testing.assert_array_equal(ad.grad_of(root, other), np.zeros((2, 2)))
            np.testing.assert_array_equal(ad.grad_of(ad.sum_all(other), seam), np.zeros((2, 4)))

    def test_needs_tape_and_scalar_root(self, rng):
        w, x, seam, root = self._graph(rng)
        with pytest.raises(RuntimeError, match="grad_of"):
            ad.grad_of(root, seam)
        with ad.Tape():
            w, x, seam, root = self._graph(rng)
            with pytest.raises(ValueError, match="scalar"):
                ad.grad_of(seam, x)


class TestMatmulPrecision:
    """Products that sum no padded axis run in float32 BLAS; the rest accumulate in float64."""

    @staticmethod
    def _f64(a, b):
        return np.matmul(a.astype(np.float64), b.astype(np.float64)).astype(np.float32)

    def _run(self, a, b, g):
        """Forward data and both grads of ``matmul``, with ``g`` as the output gradient."""
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with ad.Tape():
            out = ad.matmul(ta, tb)
            # sum_all hands mul a gradient of ones, so out receives exactly g
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        return out.data, ta.grad, tb.grad

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_unbatched_forward_and_input_grad_are_float32_blas(self, rng, lead):
        k = 64  # long enough that float32 and float64 accumulation disagree somewhere
        a = rng.standard_normal(lead + (40, k)).astype(np.float32)
        b = rng.standard_normal((k, 48)).astype(np.float32)
        g = rng.standard_normal(lead + (40, 48)).astype(np.float32)
        out, ga, gb = self._run(a, b, g)
        a2, g2 = a.reshape(-1, k), g.reshape(-1, 48)
        assert not np.array_equal(np.matmul(a2, b), self._f64(a2, b))
        assert out.tobytes() == np.matmul(a2, b).reshape(out.shape).tobytes()
        assert ga.tobytes() == np.matmul(g2, b.T).reshape(a.shape).tobytes()
        # the parameter gradient sums over every row: float64, rounded once
        assert gb.tobytes() == self._f64(a2.T, g2).tobytes()

    def test_batched_products_accumulate_in_float64(self, rng):
        a = rng.standard_normal((2, 3, 40, 64)).astype(np.float32)
        b = rng.standard_normal((2, 3, 64, 40)).astype(np.float32)
        g = rng.standard_normal((2, 3, 40, 40)).astype(np.float32)
        out, ga, gb = self._run(a, b, g)
        assert not np.array_equal(np.matmul(a, b), self._f64(a, b))
        assert out.tobytes() == self._f64(a, b).tobytes()
        assert ga.tobytes() == self._f64(g, np.swapaxes(b, -1, -2)).tobytes()
        assert gb.tobytes() == self._f64(np.swapaxes(a, -1, -2), g).tobytes()

    def test_float64_forward_keeps_every_product_float64(self, rng):
        a = rng.standard_normal((5, 64)).astype(np.float32)
        b = rng.standard_normal((64, 6)).astype(np.float32)
        g = rng.standard_normal((5, 6)).astype(np.float32)
        want = np.matmul(a.astype(np.float64), b.astype(np.float64))
        with ad._float64_forward():
            out = ad.matmul(Tensor(a), Tensor(b)).data
            ga = ad._matmul_grad_a(g, b)
            gb = ad._matmul_grad_b(a, g)
        assert out.dtype == ga.dtype == gb.dtype == np.float64
        assert out.tobytes() == want.tobytes()
        assert ga.tobytes() == np.matmul(g.astype(np.float64), b.T.astype(np.float64)).tobytes()
        assert gb.tobytes() == np.matmul(a.T.astype(np.float64), g.astype(np.float64)).tobytes()


class TestSeamWalkSkipsParameters:
    def test_grad_of_computes_no_matmul_parameter_product(self, rng, monkeypatch):
        x = Tensor(rng.standard_normal((4, 3, 8)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        b1 = Tensor(rng.standard_normal(8), requires_grad=True)
        gamma = Tensor(rng.standard_normal(8), requires_grad=True)
        beta = Tensor(rng.standard_normal(8), requires_grad=True)
        w2 = Tensor(rng.standard_normal((8, 2)), requires_grad=True)
        with ad.Tape():
            seam = ad.scale(x, 1.0)
            hid = ad.layer_norm(ad.add_bias(ad.matmul(seam, w1), b1), gamma, beta)
            root = ad.sum_all(ad.tanh(ad.matmul(hid, w2)))
            product = ad._matmul_grad_b

            def forbidden(a_d, g):
                raise AssertionError("grad_of computed a parameter gradient")

            monkeypatch.setattr(ad, "_matmul_grad_b", forbidden)
            got = ad.grad_of(root, seam)
            monkeypatch.setattr(ad, "_matmul_grad_b", product)
            ad.backward(root)
        assert got.tobytes() == seam.grad.tobytes()
        for p in (w1, b1, gamma, beta, w2):
            assert p.grad is not None and np.any(p.grad != 0)


class TestFusedOps:
    """``linear``, ``attention`` and ``residual_norm`` give the op-by-op chain's bytes,
    forward and backward."""

    @staticmethod
    def _run(op, arrays, g, **kwargs):
        """Output bytes of ``op`` and every input's gradient, with ``g`` as the output gradient."""
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        with ad.Tape():
            out = op(*ts, **kwargs)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]

    @pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
    @pytest.mark.parametrize("lead", [(7,), (3, 5)], ids=["2d", "3d"])
    def test_linear_matches_chain(self, rng, lead, f64):
        arrays = [rng.standard_normal(lead + (48,)), rng.standard_normal((48, 40)),
                  rng.standard_normal(40)]
        g = rng.standard_normal(lead + (40,))
        with ad._float64_forward() if f64 else contextlib.nullcontext():
            assert self._run(ad.linear, arrays, g) == self._run(linear_chain, arrays, g)

    @pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
    @pytest.mark.parametrize("train_mode", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("n", [1, 9])
    def test_attention_matches_chain(self, rng, n, train_mode, f64):
        b, l, h = 3, 9, 32
        arrays = [rng.standard_normal((b, n, h))] + [rng.standard_normal((b, l, h)) for _ in "kv"]
        key_mask = (np.arange(l)[None, :] < np.array([[9], [5], [2]])).astype(np.float32)
        g = rng.standard_normal((b, n, h))
        kwargs = dict(key_mask=key_mask, heads=4,
                      drop=ad.dropout_mask(17, (b, 4, n, l), 0.3, train_mode, (b, 4, 12, 12)))
        with ad._float64_forward() if f64 else contextlib.nullcontext():
            fused = self._run(ad.attention, arrays, g, **kwargs)
            assert fused == self._run(attention_chain, arrays, g, **kwargs)
        # padded keys get no gradient
        for grad in fused[2:]:
            grad = np.frombuffer(grad, dtype=np.float32).reshape(b, l, h)
            assert not np.any(grad[key_mask == 0]) and np.any(grad[key_mask == 1])

    @pytest.mark.parametrize("w_shape, b_shape", [((5, 3), (3,)), ((4, 3), (2,)), ((4,), (4,))])
    def test_linear_rejects_misfit_weight_or_bias(self, w_shape, b_shape):
        x = Tensor(np.zeros((2, 6, 4)))
        with pytest.raises(ValueError, match=r"linear: .*\(2, 6, 4\)"):
            ad.linear(x, Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("case, match", [
        ("heads", r"\(2, 5, 6\) is not divisible by heads=4"),
        ("kv", r"keys \(2, 5, 6\) and values \(2, 4, 6\)"),
        ("q_batch", r"queries \(3, 1, 6\) do not fit keys \(2, 5, 6\)"),
        ("q_width", r"queries \(2, 1, 4\) do not fit keys \(2, 5, 6\)"),
        ("mask", r"key mask \(2, 4\) is not \(B, L\) = \(2, 5\)"),
        ("drop", r"attention: mask of shape \(2, 2, 5, 5\) does not fit \(2, 2, 1, 5\)"),
    ])
    def test_attention_names_the_shapes(self, case, match):
        q, k, v = np.zeros((2, 1, 6)), np.zeros((2, 5, 6)), np.zeros((2, 5, 6))
        mask, heads, drop_shape = np.ones((2, 5)), 2, (2, 2, 1, 5)
        if case == "heads":
            heads = 4
        elif case == "kv":
            v = np.zeros((2, 4, 6))
        elif case == "q_batch":
            q = np.zeros((3, 1, 6))
        elif case == "q_width":
            q = np.zeros((2, 1, 4))
        elif case == "mask":
            mask = np.ones((2, 4))
        else:
            drop_shape = (2, 2, 5, 5)
        drop = ad.dropout_mask(0, drop_shape, 0.1, True)
        with pytest.raises(ValueError, match=match):
            ad.attention(Tensor(q), Tensor(k), Tensor(v), mask, heads, drop)


    @pytest.mark.parametrize("f64", [False, True], ids=["f32", "f64"])
    @pytest.mark.parametrize("train_mode", [True, False], ids=["mask", "none"])
    @pytest.mark.parametrize("n", [15, 1], ids=["full", "cls"])
    def test_residual_norm_matches_chain(self, rng, n, train_mode, f64):
        """At a full-width and a [CLS] shape, on rows with a large mean and on a constant row."""
        shape = (32, n, 64)
        x, y = rng.standard_normal(shape) * 3.0 + 50.0, rng.standard_normal(shape)
        x.reshape(-1, 64)[0], y.reshape(-1, 64)[0] = 7.0, 0.0
        arrays = [x, y, rng.standard_normal(64) + 1.0, rng.standard_normal(64)]
        g = rng.standard_normal(shape)
        mask = ad.dropout_mask(11, shape, 0.1, train_mode, (32, 32, 64))
        with ad._float64_forward() if f64 else contextlib.nullcontext():
            fused, chain = (
                self._run(lambda x, y, gamma, beta: op(x, y, mask, gamma, beta), arrays, g)
                for op in (ad.residual_norm, residual_norm_chain)
            )
            assert fused == chain

    @pytest.mark.parametrize("wrt", ["x", "y"])
    def test_residual_norm_with_one_input_kept(self, rng, wrt):
        """``grad_of`` and ``backward`` when only ``x`` or only ``y`` requires grad, and
        ``grad_of`` of one input when the other and the parameters require grad too."""
        shape = (4, 5, 16)
        arrays = {"x": rng.standard_normal(shape), "y": rng.standard_normal(shape)}
        params = [rng.standard_normal(16) + 1.0, rng.standard_normal(16)]
        mask = ad.dropout_mask(9, shape, 0.3, True)
        g = Tensor(rng.standard_normal(shape))
        got = []
        for op in (ad.residual_norm, residual_norm_chain):
            for alone in (True, False):
                ts = {name: Tensor(a, requires_grad=not alone or name == wrt)
                      for name, a in arrays.items()}
                gamma, beta = (Tensor(p, requires_grad=not alone) for p in params)
                with ad.Tape():
                    root = ad.sum_all(ad.mul(op(ts["x"], ts["y"], mask, gamma, beta), g))
                    seen = ad.grad_of(root, ts[wrt])
                    ad.backward(root)
                assert seen.tobytes() == ts[wrt].grad.tobytes()
                assert (gamma.grad is None) == alone
                got.append(seen.tobytes())
        assert len(set(got)) == 1

    @pytest.mark.parametrize("case, match", [
        ("y", r"residual_norm: shape mismatch \(2, 3, 4\) vs \(2, 3, 5\)"),
        ("gamma", r"residual_norm: gamma/beta must have shape \(4,\), got \(5,\) and \(4,\)"),
        ("mask", r"residual_norm: mask of shape \(2, 1, 4\) does not fit \(2, 3, 4\)"),
    ])
    def test_residual_norm_names_the_shapes(self, case, match):
        x, y, gamma, mask = np.zeros((2, 3, 4)), np.zeros((2, 3, 4)), np.ones(4), None
        if case == "y":
            y = np.zeros((2, 3, 5))
        elif case == "gamma":
            gamma = np.ones(5)
        else:
            mask = ad.dropout_mask(0, (2, 1, 4), 0.1, True)
        with pytest.raises(ValueError, match=match):
            ad.residual_norm(Tensor(x), Tensor(y), mask, Tensor(gamma), Tensor(np.zeros(4)))


class TestGradCheck:
    def test_quadratic_form_tight(self, rng):
        q = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        x = Tensor(rng.standard_normal((5, 1)), requires_grad=True)
        err = ad.grad_check(lambda t: ad.mean_all(ad.matmul(ad.transpose(t), ad.matmul(q, t))), x)
        assert err < 1e-6

    def test_softmax_cross_entropy(self):
        from callab.selfcheck import check_softmax_ce_gradient

        assert check_softmax_ce_gradient() is None

    def test_rejects_nondeterministic_function(self, rng):
        x = Tensor(np.ones(4), requires_grad=True)
        state = {"n": 0}

        def f(t):
            state["n"] += 1
            return ad.scale(ad.sum_all(t), float(state["n"]))

        with pytest.raises(ValueError, match="deterministic"):
            ad.grad_check(f, x)

    def test_every_op_gradient(self):
        from callab.selfcheck import gradient_fidelity

        ops, _, _ = gradient_fidelity()
        assert max(ops.values()) < 1e-4, ops


class TestSeedDerivation:
    def test_derive_seed_stable_and_distinct(self):
        a = ad.derive_seed(42, "branch", 1)
        b = ad.derive_seed(42, "branch", 1)
        c = ad.derive_seed(42, "branch", 2)
        d = ad.derive_seed(43, "branch", 1)
        assert a == b
        assert len({a, c, d}) == 3

    def test_no_nan_on_documented_domains(self, rng):
        x = Tensor(rng.standard_normal((6, 6)) * 50)
        for op in (ad.softmax_rows, ad.log_softmax_rows, ad.logsumexp_rows,
                   ad.tanh, ad.relu, ad.l2_normalize_rows):
            out = op(x)
            assert np.all(np.isfinite(out.data)), op.__name__
