"""Unit tests for repro.nn.initializers."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.registry import APPLICATIONS, build_net
from repro.nn import initializers, weight_digest
from repro.nn.initializers import constant, gaussian, get_filler, uniform, xavier

#: SHA-256 of every zoo model's seed-0 weights, recorded when the fillers
#: still drew each blob whole in float64 and cast it: the chunked fillers
#: must reproduce them byte for byte.
ZOO_DIGESTS = {
    "imc": "d6f9ca4b835ca8c1e22a803d191f4e1da57cf79ca2e1e83819724b09faa82212",
    "dig": "6f93c3ca313a747909a201ffce6e1e08f811c5b8de39489866a0083540764688",
    "face": "1f35593aa4b8493db65b19bb6cf68c9b22525e0d003afa76edb39182fdfa801d",
    "asr": "4d620ffa01989f98c4cfbda76033fb8acea8b889d5f2fb886e7f9664551cb98c",
    "pos": "52337463b8580c06508c0217ab70b9ff1557fc16b36f69974bc2297b5b1e1d50",
    "chk": "d157c569d396e6e888024802316003ce82fb38afc28b2637d53e862b12a46c20",
    "ner": "d8901c5a22e319a06f09692ec113112b6064b89c238c885e792d40480523cf8d",
}

FILLERS = {
    "constant": constant(0.25),
    "gaussian": gaussian(std=0.02, mean=0.1),
    "uniform": uniform(-0.3, 0.2),
    "xavier": xavier(),
}


def whole_draw(name, shape, rng):
    """What each filler returned before chunking: one float64 draw, cast."""
    if name == "constant":
        return np.full(shape, 0.25, dtype=np.float32)
    if name == "gaussian":
        return rng.normal(0.1, 0.02, size=shape).astype(np.float32)
    if name == "uniform":
        return rng.uniform(-0.3, 0.2, size=shape).astype(np.float32)
    scale = math.sqrt(3.0 / max(1, math.prod(shape[1:])))
    return rng.uniform(-scale, scale, size=shape).astype(np.float32)


class TestFillers:
    def test_constant(self, rng):
        out = constant(3.5)((4, 4), rng)
        assert out.dtype == np.float32
        assert np.all(out == 3.5)

    def test_gaussian_statistics(self, rng):
        out = gaussian(std=0.1)((200, 200), rng)
        assert abs(float(out.mean())) < 0.01
        assert abs(float(out.std()) - 0.1) < 0.01

    def test_uniform_bounds(self, rng):
        out = uniform(-0.2, 0.2)((1000,), rng)
        assert out.min() >= -0.2 and out.max() <= 0.2

    def test_xavier_scale_tracks_fan_in(self, rng):
        out = xavier()((64, 100), rng)
        bound = math.sqrt(3.0 / 100)
        assert out.min() >= -bound and out.max() <= bound
        # a wider fan-in gives a tighter bound
        out2 = xavier()((64, 10000), rng)
        assert float(np.abs(out2).max()) < float(np.abs(out).max())

    def test_xavier_fan_in_for_conv_blobs(self, rng):
        # fan_in = C*k*k for (O, C, k, k) blobs, matching Caffe
        out = xavier()((8, 3, 5, 5), rng)
        bound = math.sqrt(3.0 / 75)
        assert float(np.abs(out).max()) <= bound

    def test_deterministic_under_same_seed(self):
        a = gaussian()((5, 5), np.random.default_rng(9))
        b = gaussian()((5, 5), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestGetFiller:
    def test_resolves_names(self, rng):
        assert np.all(get_filler("constant")((2,), rng) == 0.0)

    def test_resolves_name_kwargs_tuple(self, rng):
        filler = get_filler(("gaussian", {"std": 2.0}))
        out = filler((500, 50), rng)
        assert 1.8 < float(out.std()) < 2.2

    def test_passes_through_callables(self, rng):
        marker = lambda shape, r: np.ones(shape)  # noqa: E731
        assert get_filler(marker) is marker

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(ValueError, match="known"):
            get_filler("he_normal")

    def test_bad_spec_type(self):
        with pytest.raises(TypeError):
            get_filler(42)


class TestChunkedDraw:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FILLERS)),
           shape=st.lists(st.integers(0, 7), max_size=3).map(tuple),
           chunk=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @example(name="gaussian", shape=(0, 3), chunk=4, seed=1)   # empty
    @example(name="gaussian", shape=(1,), chunk=4, seed=1)     # one element
    @example(name="uniform", shape=(2, 2), chunk=4, seed=1)    # one chunk
    @example(name="xavier", shape=(3, 5), chunk=4, seed=1)     # chunks + rest
    def test_matches_whole_draw_and_leaves_same_stream(self, name, shape, chunk, seed):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(initializers, "_CHUNK", chunk):
            out = FILLERS[name](shape, ours)
        expected = whole_draw(name, shape, ref)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert out.shape == shape
        np.testing.assert_array_equal(out, expected)
        # the next blob drawn from the same generator is unchanged too
        assert ours.random() == ref.random()

    @pytest.mark.parametrize("app", APPLICATIONS)
    def test_zoo_weights_pinned(self, app):
        assert sorted(ZOO_DIGESTS) == sorted(APPLICATIONS)
        net = build_net(app, materialize=True, seed=0)
        assert weight_digest(net) == ZOO_DIGESTS[app]


class TestSetupTransient:
    def test_filler_peak_is_about_its_output(self, rng):
        """AlexNet fc6: the filler's traced peak stays within 10 % of the
        151 MB it returns (a whole float64 draw plus its cast reads 3x)."""
        tracemalloc.start()
        try:
            out = gaussian(0.005)((4096, 9216), rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes

    def test_registering_imc_grows_rss_by_its_weights(self):
        """VmHWM growth across registering AlexNet is its parameter bytes
        plus a 32 MiB allowance, measured in a fresh interpreter."""
        if not os.path.exists("/proc/self/status"):
            pytest.skip("VmHWM needs /proc")
        script = textwrap.dedent("""
            from repro.core.registry import ModelRegistry
            from repro.models.registry import build_spec

            def hwm():
                with open("/proc/self/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) * 1024

            spec = build_spec("imc")
            before = hwm()
            net = ModelRegistry().register_spec("imc", spec, seed=0)
            print(hwm() - before, net.param_bytes())
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                             capture_output=True, check=True).stdout
        growth, param_bytes = map(int, out.split())
        assert growth <= param_bytes + 32 * 2**20
