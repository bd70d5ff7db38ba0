"""Gradient checks for every differentiable module.

Every backward pass is validated against central finite differences on
both inputs and parameters (including the real and imaginary parts of the
complex spectral weights).
"""

import numpy as np
import pytest

from repro.baselines.pytorch_fno import (
    pytorch_like_spectral_conv_1d,
    pytorch_like_spectral_conv_2d,
)
from repro.nn.modules import GELU, Dense, Parameter, SpectralConv1d, SpectralConv2d

EPS = 1e-6
TOL = 1e-5


def _input_gradcheck(module, x, rng, n_probes=6):
    """Compare module.backward against finite differences of <out, g>."""
    y = module.forward(x)
    g = rng.standard_normal(y.shape)
    gx = module.backward(g.copy())
    assert gx.shape == x.shape
    worst = 0.0
    for _ in range(n_probes):
        idx = tuple(int(rng.integers(0, s)) for s in x.shape)
        xp = x.copy(); xp[idx] += EPS
        xm = x.copy(); xm[idx] -= EPS
        fd = (np.sum(module.forward(xp) * g) - np.sum(module.forward(xm) * g)) / (
            2 * EPS
        )
        worst = max(worst, abs(fd - gx[idx]) / max(abs(fd), 1.0))
    assert worst < TOL, f"input gradient mismatch {worst:.2e}"


def _param_gradcheck(module, x, param: Parameter, rng, n_probes=4):
    """Finite-difference the (possibly complex) parameter gradient."""
    y = module.forward(x)
    g = rng.standard_normal(y.shape)
    module.zero_grad()
    module.forward(x)
    module.backward(g.copy())
    an = param.grad.copy()
    is_complex = np.iscomplexobj(param.value)
    for _ in range(n_probes):
        idx = tuple(int(rng.integers(0, s)) for s in param.value.shape)
        deltas = [(EPS, "re")] + ([(1j * EPS, "im")] if is_complex else [])
        for delta, part in deltas:
            orig = param.value[idx]
            param.value[idx] = orig + delta
            fp = np.sum(module.forward(x) * g)
            param.value[idx] = orig - delta
            fm = np.sum(module.forward(x) * g)
            param.value[idx] = orig
            fd = (fp - fm) / (2 * EPS)
            got = an[idx].real if part == "re" else an[idx].imag
            assert abs(fd - got) / max(abs(fd), 1.0) < TOL, (
                f"{param.name}[{idx}].{part}: fd={fd:.6g} analytic={got:.6g}"
            )


class TestDense:
    def test_forward_values(self, rng):
        d = Dense(2, 3, rng)
        x = rng.standard_normal((4, 2, 5))
        y = d(x)
        expected = np.einsum("bis,io->bos", x, d.weight.value) + d.bias.value[
            None, :, None
        ]
        assert np.allclose(y, expected)

    def test_input_gradient(self, rng):
        d = Dense(3, 4, rng)
        _input_gradcheck(d, rng.standard_normal((2, 3, 6)), rng)

    def test_weight_and_bias_gradients(self, rng):
        d = Dense(3, 4, rng)
        x = rng.standard_normal((2, 3, 6))
        _param_gradcheck(d, x, d.weight, rng)
        _param_gradcheck(d, x, d.bias, rng)

    def test_2d_spatial_axes(self, rng):
        d = Dense(2, 2, rng)
        _input_gradcheck(d, rng.standard_normal((2, 2, 4, 3)), rng)

    def test_channel_mismatch_rejected(self, rng):
        d = Dense(3, 4, rng)
        with pytest.raises(ValueError):
            d(rng.standard_normal((2, 5, 6)))

    def test_backward_before_forward(self, rng):
        d = Dense(3, 4, rng)
        with pytest.raises(RuntimeError):
            d.backward(np.zeros((1, 4, 2)))


class TestGELU:
    def test_known_values(self):
        g = GELU()
        assert g(np.array([0.0]))[0] == pytest.approx(0.0)
        assert g(np.array([100.0]))[0] == pytest.approx(100.0, rel=1e-6)
        assert g(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self, rng):
        _input_gradcheck(GELU(), rng.standard_normal((3, 4, 5)), rng)


class TestSpectralConv1d:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_input_gradient(self, rng, per_mode):
        m = SpectralConv1d(3, 4, 8, rng, per_mode=per_mode)
        _input_gradcheck(m, rng.standard_normal((2, 3, 32)), rng)

    @pytest.mark.parametrize("per_mode", [True, False])
    def test_weight_gradient(self, rng, per_mode):
        m = SpectralConv1d(2, 3, 4, rng, per_mode=per_mode)
        _param_gradcheck(m, rng.standard_normal((2, 2, 16)), m.weight, rng)

    def test_per_mode_and_shared_agree_when_weights_shared(self, rng):
        """A per-mode layer whose matrices are all equal == shared layer."""
        shared = SpectralConv1d(3, 4, 8, rng, per_mode=False)
        tied = SpectralConv1d(3, 4, 8, rng, per_mode=True)
        tied.weight.value = np.repeat(
            shared.weight.value[:, :, None], 8, axis=2
        )
        x = rng.standard_normal((2, 3, 32))
        assert np.allclose(shared(x), tied(x), atol=1e-10)

    def test_output_is_real(self, rng):
        m = SpectralConv1d(2, 2, 4, rng)
        y = m(rng.standard_normal((1, 2, 16)))
        assert not np.iscomplexobj(y)

    def test_modes_exceed_grid_rejected(self, rng):
        m = SpectralConv1d(2, 2, 64, rng)
        with pytest.raises(ValueError):
            m(rng.standard_normal((1, 2, 32)))

    def test_invalid_construction(self, rng):
        with pytest.raises(ValueError):
            SpectralConv1d(0, 2, 4, rng)

    @pytest.mark.parametrize("modes", [3, 5])
    def test_shared_weight_non_power_of_two_modes(self, rng, modes):
        """The C2C executor cannot prune a non-power-of-two mode count;
        the layer falls back to the einsum path, same operator."""
        m = SpectralConv1d(3, 4, modes, rng, per_mode=False)
        x = rng.standard_normal((2, 3, 16))
        ref = pytorch_like_spectral_conv_1d(x, m.weight.value, modes).real
        assert np.allclose(m(x), ref, atol=1e-10)


class TestSpectralConv2d:
    @pytest.mark.parametrize("per_mode", [True, False])
    def test_input_gradient(self, rng, per_mode):
        m = SpectralConv2d(2, 3, 4, 4, rng, per_mode=per_mode)
        _input_gradcheck(m, rng.standard_normal((2, 2, 16, 8)), rng)

    @pytest.mark.parametrize("per_mode", [True, False])
    def test_weight_gradient(self, rng, per_mode):
        m = SpectralConv2d(2, 2, 2, 4, rng, per_mode=per_mode)
        _param_gradcheck(m, rng.standard_normal((2, 2, 8, 16)), m.weight, rng)

    @pytest.mark.parametrize("modes", [(3, 4), (4, 3), (6, 5)])
    def test_shared_weight_non_power_of_two_modes(self, rng, modes):
        """Shared-weight C2C layers take the executor only when every
        axis prunes; otherwise the einsum path (these used to raise
        ``n_keep must be a power of two``)."""
        m = SpectralConv2d(3, 4, *modes, rng, per_mode=False)
        x = rng.standard_normal((2, 3, 16, 16))
        ref = pytorch_like_spectral_conv_2d(x, m.weight.value, *modes).real
        assert np.allclose(m(x), ref, atol=1e-10)
        _input_gradcheck(m, x, rng)

    def test_rectangular_modes(self, rng):
        m = SpectralConv2d(2, 5, 2, 8, rng)
        y = m(rng.standard_normal((3, 2, 8, 32)))
        assert y.shape == (3, 5, 8, 32)

    def test_parameters_enumerated(self, rng):
        m = SpectralConv2d(2, 2, 2, 2, rng)
        names = [p.name for p in m.parameters()]
        assert any("weight" in n for n in names)

    def test_zero_grad(self, rng):
        m = SpectralConv2d(2, 2, 2, 2, rng)
        x = rng.standard_normal((1, 2, 8, 8))
        m.forward(x)
        m.backward(np.ones((1, 2, 8, 8)))
        assert np.any(m.weight.grad != 0)
        m.zero_grad()
        assert np.all(m.weight.grad == 0)
