"""Planned execution engine: arena plans must be byte-identical to the
legacy allocating path, reuse their arenas cleanly, and serve the batching
executor copy-free.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import BatchingExecutor, BatchPolicy, ModelRegistry
from repro.models import build_net
from repro.nn import (
    ExecutionPlan,
    GraphLayerSpec,
    GraphSpec,
    Net,
    PlanError,
    plan_footprint,
)
from repro.models import lenet5
from repro.nn.layers.softmax import softmax


def batch_for(net, n, rng, seed_offset=0):
    gen = np.random.default_rng(rng if isinstance(rng, int) else 0)
    return gen.standard_normal((n,) + tuple(net.input_shape)).astype(np.float32)


# --------------------------------------------------------------- equivalence
class TestPlanEquivalence:
    """Planned output must be *byte-identical* to the legacy path: both run
    the same ``forward_into`` kernels, only the buffers differ."""

    #: every zoo model, with a plan width small enough to keep FACE (120M
    #: params) affordable in CI
    CASES = [("imc", 4), ("dig", 8), ("face", 2), ("asr", 8), ("pos", 8)]

    @pytest.mark.parametrize("app,max_batch", CASES)
    def test_zoo_model_byte_identical(self, app, max_batch):
        net = build_net(app, materialize=True)
        plan = ExecutionPlan(net, max_batch)
        gen = np.random.default_rng(7)
        # full, partial, and single-sample batches through one arena
        for n in {max_batch, max(1, max_batch // 2), 1}:
            x = gen.standard_normal((n,) + tuple(net.input_shape)).astype(np.float32)
            np.testing.assert_array_equal(net.forward(x), plan.run(x))

    def test_back_to_back_reuse_no_stale_bleed(self):
        # a large batch followed by a small one: the small batch's output
        # must not contain any residue of the large batch's arena contents
        net = build_net("dig", materialize=True)
        plan = ExecutionPlan(net, 8)
        gen = np.random.default_rng(11)
        big = gen.standard_normal((8,) + tuple(net.input_shape)).astype(np.float32)
        small = gen.standard_normal((2,) + tuple(net.input_shape)).astype(np.float32)
        plan.run(big)
        np.testing.assert_array_equal(net.forward(small), plan.run(small))
        # and shrinking further still matches, repeatedly
        one = small[:1]
        for _ in range(3):
            np.testing.assert_array_equal(net.forward(one), plan.run(one))

    def test_run_returns_owned_array(self):
        net = build_net("pos", materialize=True)
        plan = ExecutionPlan(net, 4)
        x = batch_for(net, 2, 3)
        first = plan.run(x)
        second = plan.run(x * 2.0)
        # first must not have been clobbered by the second execute
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(first, plan.run(x))


# ------------------------------------------------------------------ graphs
class TestGraphPlans:
    @staticmethod
    def fanout_graph():
        # input -> ip1 -> relu consumed by BOTH branches: relu must not be
        # executed in-place over ip1's buffer while sum still needs it
        spec = GraphSpec(
            name="fanout",
            input_shape=(6,),
            layers=(
                GraphLayerSpec("InnerProduct", "ip1", ("input",),
                               {"num_output": 6}),
                GraphLayerSpec("ReLU", "act", ("ip1",)),
                GraphLayerSpec("EltwiseSum", "sum", ("ip1", "act")),
                GraphLayerSpec("InnerProduct", "head", ("sum",),
                               {"num_output": 3}),
                GraphLayerSpec("Softmax", "prob", ("head",)),
            ),
            output="prob",
        )
        return Net(spec).materialize(3)

    def test_dag_with_fanout_byte_identical(self):
        net = self.fanout_graph()
        plan = ExecutionPlan(net, 4)
        gen = np.random.default_rng(17)
        for n in (4, 1):
            x = gen.standard_normal((n, 6)).astype(np.float32)
            np.testing.assert_array_equal(net.forward(x), plan.run(x))

    def test_fanout_disables_inplace_merge(self):
        plan = ExecutionPlan(self.fanout_graph(), 2)
        modes = {s["layer"]: s["mode"] for s in plan.describe()["steps"]}
        assert modes["act"] == "compute"  # ip1 is read again by sum
        assert modes["prob"] == "inplace"  # head has no other readers


# ----------------------------------------------------------------- layout
class TestPlanLayout:
    def test_alias_layers_share_slot_and_skip_compute(self):
        net = Net(lenet5()).materialize(0)  # no alias layers; use a graph
        spec = GraphSpec(
            name="aliasy",
            input_shape=(4,),
            layers=(
                GraphLayerSpec("InnerProduct", "ip", ("input",),
                               {"num_output": 4}),
                GraphLayerSpec("Dropout", "drop", ("ip",)),
                GraphLayerSpec("Softmax", "prob", ("drop",)),
            ),
            output="prob",
        )
        gnet = Net(spec).materialize(1)
        plan = ExecutionPlan(gnet, 2)
        steps = {s["layer"]: s for s in plan.describe()["steps"]}
        assert steps["drop"]["mode"] == "alias"
        assert steps["drop"]["slot"] == steps["ip"]["slot"]

    def test_inplace_never_merges_into_input_slot(self):
        # a net that is nothing but an activation: its output must land in
        # a fresh slot, never over the input slab the executor gathers into
        spec = GraphSpec(
            name="actonly",
            input_shape=(5,),
            layers=(GraphLayerSpec("ReLU", "act", ("input",)),),
            output="act",
        )
        gnet = Net(spec).materialize(0)
        plan = ExecutionPlan(gnet, 2)
        step = plan.describe()["steps"][0]
        assert step["mode"] == "compute"
        x = np.random.default_rng(23).standard_normal((2, 5)).astype(np.float32)
        np.testing.assert_array_equal(gnet.forward(x), plan.run(x))

    def test_plan_envelope_enforced(self):
        net = build_net("pos", materialize=True)
        plan = ExecutionPlan(net, 2)
        with pytest.raises(PlanError):
            plan.input_view(3)
        with pytest.raises(PlanError):
            plan.input_view(0)

    def test_footprint_without_allocation(self):
        # FACE-scale costing must not commit the arena
        net = build_net("face", materialize=False)
        fp = plan_footprint(net, batch=4)
        assert fp["arena_bytes"] > 0 and fp["scratch_bytes"] > 0
        assert fp["total_bytes"] == fp["arena_bytes"] + fp["scratch_bytes"]
        plan = ExecutionPlan(net, 4, allocate=False)
        with pytest.raises(PlanError):
            plan.input_view(1)

    def test_unmaterialized_net_cannot_execute(self):
        net = build_net("pos", materialize=False)
        plan = ExecutionPlan(net, 2)
        with pytest.raises(PlanError):
            plan.execute(1)


# ------------------------------------------------------------- allocation
def measure_steady_state_alloc(plan, batches, iters=3):
    """Peak bytes of new Python/numpy allocation per steady-state execute.

    Warms the plan (first call per batch size builds cached views), then
    watches ``iters`` full sweeps under :mod:`tracemalloc`.  Snapshot diffs
    would net alloc/free churn out to zero; the *peak* is what catches a
    kernel that still allocates per call.
    """
    batches = sorted(set(batches))
    with plan.lock:
        for n in batches:
            plan.input_view(n)
            plan.execute(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(iters):
                for n in batches:
                    plan.execute(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return max(0, peak - base)


class TestSteadyStateAllocation:
    def test_dig_plan_is_allocation_free(self):
        net = build_net("dig", materialize=True)
        plan = ExecutionPlan(net, 8)
        peak = measure_steady_state_alloc(plan, batches=[1, 8])
        # interpreter noise is tens of KB; the legacy path's per-call buffer
        # churn is hundreds of KB to MBs.  64 KB cleanly separates the two.
        assert peak < 64 * 1024, f"steady-state allocation {peak} bytes"

    #: batch 1 (X·Wᵀ), the batched W·Xᵀ panel and its transposed copy, and
    #: widths that are not powers of two
    SWEEPS = [("dig", [1, 2, 8]), ("pos", [1, 4, 17, 30]), ("asr", [1, 4])]

    @pytest.mark.parametrize("app,batches", SWEEPS)
    def test_bound_kernels_allocation_free(self, app, batches):
        plan = ExecutionPlan(build_net(app, materialize=True), max(batches))
        peak = measure_steady_state_alloc(plan, batches=batches)
        assert peak < 64 * 1024, f"steady-state allocation {peak} bytes"

    @pytest.mark.parametrize("app,batches", SWEEPS)
    def test_every_surface_runs_the_same_kernels(self, app, batches):
        from repro.obs import LayerTimer

        net = build_net(app, materialize=True)
        plan = ExecutionPlan(net, max(batches))
        gen = np.random.default_rng(47)
        last = len(net.layers) - 1
        for n in batches:
            x = gen.standard_normal((n,) + tuple(net.input_shape)).astype(np.float32)
            whole = plan.run(x)
            np.testing.assert_array_equal(plan.run(x, timer=LayerTimer()), whole)
            into = np.empty_like(whole)
            assert plan.run_into(x, into) is into
            np.testing.assert_array_equal(into, whole)
            for k in (0, last // 2, last - 1):
                with plan.lock:
                    np.copyto(plan.input_view(n), x)
                    plan.execute_range(n, 0, k + 1)
                    split = plan.execute_range(n, k + 1).copy()
                np.testing.assert_array_equal(split, whole)


# ------------------------------------------------------------ bound kernels
ALL_APPS = ("imc", "dig", "face", "asr", "pos", "chk", "ner")


def _zoo_layers(type_name, apps=ALL_APPS):
    """Every zoo layer of ``type_name`` (set up, weights not materialized),
    one per distinct geometry."""
    seen, layers = set(), []
    for app in apps:
        for layer in build_net(app, materialize=False).layers:
            key = tuple(getattr(layer, attr, None) for attr in (
                "type_name", "in_shape", "out_shape", "kernel_size", "stride",
                "pad", "group", "mode"))
            if layer.type_name == type_name and key not in seen:
                seen.add(key)
                layers.append(pytest.param(layer, id=f"{app}.{layer.name}"))
    return layers


@pytest.fixture
def weights():
    """Materialize a layer's weights for one test, then drop them (zoo
    layers are shared across parametrized cases; fc6 alone is 151 MB)."""
    held = []

    def materialize(layer, seed):
        layer.materialize(np.random.default_rng(seed))
        held.append(layer)
        return layer

    yield materialize
    for layer in held:
        for blob in layer.params:
            blob.data = blob.grad = None


def _check_bound(layer, n, reference, seed=0):
    """The bound kernel equals ``reference(x)`` byte for byte, and re-reads
    its input buffer on every call (two different inputs, one binding)."""
    gen = np.random.default_rng(seed)
    x = np.empty((n,) + tuple(layer.in_shape), np.float32)
    out = np.empty((n,) + tuple(layer.out_shape), np.float32)
    kernel = layer.bind(x, out, layer.alloc_scratch(n))
    for _ in range(2):
        x[...] = gen.standard_normal(x.shape, dtype=np.float32)
        kernel()
        np.testing.assert_array_equal(out, reference(x))


class TestBoundKernelArithmetic:
    """Each bound kernel against the formula the allocating kernels used
    before binding existed: array_equal, never allclose."""

    FC_BATCHES = (1, 2, 3, 4, 8, 17, 30, 64)

    @pytest.mark.parametrize("layer", _zoo_layers("InnerProduct"))
    def test_inner_product_equals_x_wt(self, layer, weights):
        weights(layer, 1)
        w, b = layer.weight.data, layer.bias_blob.data
        for n in self.FC_BATCHES:
            _check_bound(layer, n, lambda x: np.matmul(
                x.reshape(x.shape[0], -1), w.T) + b, seed=n)

    def test_inner_product_without_bias(self, weights):
        from repro.nn.layers import InnerProductLayer

        layer = InnerProductLayer("ip", num_output=7, bias=False)
        layer.setup((3, 5))
        w = weights(layer, 2).weight.data
        for n in (1, 2, 5):
            _check_bound(layer, n, lambda x: np.matmul(
                x.reshape(x.shape[0], -1), w.T), seed=n)

    @staticmethod
    def conv_reference(layer, x):
        from repro.nn.layers._im2col import im2col

        n, g, k = x.shape[0], layer.group, layer.kernel_size
        cols = im2col(x, k, k, layer.stride, layer.pad)
        fan_in_g = layer.in_channels // g * k * k
        cout_g = layer.num_output // g
        cols_g = cols.reshape(n, g, fan_in_g, -1)
        w = layer.weight.data.reshape(g, cout_g, fan_in_g)
        out = np.empty((n, g, cout_g, cols.shape[-1]), np.float32)
        for gi in range(g):
            out[:, gi] = np.matmul(w[gi], cols_g[:, gi])
        out = out.reshape((n,) + tuple(layer.out_shape))
        return out + layer.bias_blob.data[None, :, None, None]

    # FACE's convolutions unfold into 100+ MB column buffers at n = 4; the
    # AlexNet ones already cover grouped, padded and strided geometry
    @pytest.mark.parametrize("layer", _zoo_layers("Convolution", ("imc", "dig")) + [
        pytest.param("grouped-padded-strided", id="grouped-padded-strided")])
    def test_convolution_equals_im2col_stacked_matmul(self, layer, weights):
        if isinstance(layer, str):
            from repro.nn.layers import ConvolutionLayer

            layer = ConvolutionLayer("conv", num_output=6, kernel_size=3,
                                     stride=2, pad=1, group=3)
            layer.setup((6, 9, 9))
        weights(layer, 3)
        for n in (1, 2, 4):
            _check_bound(layer, n, lambda x: self.conv_reference(layer, x),
                         seed=n)

    @staticmethod
    def pool_reference(layer, x):
        k, s, p = layer.kernel_size, layer.stride, layer.pad
        oh, ow = layer.out_h, layer.out_w
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)),
                       constant_values=layer._pad_fill)
        slices = [x[:, :, i:i + s * oh:s, j:j + s * ow:s]
                  for i in range(k) for j in range(k)]
        acc = slices[0].copy()
        for window in slices[1:]:
            acc = np.maximum(acc, window) if layer.mode == "max" else acc + window
        return acc if layer.mode == "max" else acc / (k * k)

    @pytest.mark.parametrize("layer", _zoo_layers("Pooling") + [
        pytest.param(mode, id=f"{mode}-padded") for mode in ("max", "ave")])
    def test_pooling_equals_window_reduction(self, layer):
        if isinstance(layer, str):
            from repro.nn.layers import PoolingLayer

            layer = PoolingLayer("pool", kernel_size=3, stride=2, pad=1,
                                 mode=layer)
            layer.setup((4, 9, 9))
        for n in (1, 3):
            _check_bound(layer, n, lambda x: self.pool_reference(layer, x),
                         seed=n)

    ELEMENTWISE = {
        "Softmax": softmax,
        "ReLU": lambda x: np.maximum(x, 0.0),
        "Sigmoid": lambda x: np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                                      np.exp(x) / (1.0 + np.exp(x))),
        "Tanh": np.tanh,
        "HardTanh": lambda x: np.clip(x, -1.0, 1.0),
    }

    @pytest.mark.parametrize("type_name", sorted(ELEMENTWISE))
    def test_elementwise_equals_formula(self, type_name):
        from repro.nn.layers import create_layer

        layer = create_layer(type_name, "act")
        layer.setup((3, 17))
        reference = self.ELEMENTWISE[type_name]
        for n in (1, 4):
            _check_bound(layer, n, reference, seed=n)
            # in place, as a plan runs it over its input's slot
            gen = np.random.default_rng(n)
            x = gen.standard_normal((n, 3, 17), dtype=np.float32) * 4
            expect = reference(x)
            layer.bind(x, x, layer.alloc_scratch(n))()
            np.testing.assert_array_equal(x, expect)


# ---------------------------------------------------------- weight rebinds
class TestWeightRebind:
    """Kernels are bound over weight arrays, so a ``Blob.data`` rebind must
    re-bind them: stale kernels would answer with, and pin, the old
    arrays."""

    def test_new_weights_served_after_plan_ran(self):
        import gc
        import weakref

        net = build_net("dig", materialize=True)
        plan = ExecutionPlan(net, 4)
        x = batch_for(net, 3, 53)
        before = plan.run(x)
        old = [weakref.ref(blob.data) for blob in net.params()]
        other = build_net("dig", materialize=True, seed=1)
        net.copy_weights_from(other)
        after = plan.run(x)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, other.forward(x))
        gc.collect()
        assert all(ref() is None for ref in old)


# ---------------------------------------------------------------- profiling
class RecordingTimer:
    def __init__(self):
        self.events = []

    def begin(self, layer):
        self.events.append(("begin", layer.name))

    def end(self, layer):
        self.events.append(("end", layer.name))


class TestTimerParity:
    def test_planned_and_legacy_emit_identical_sequences(self):
        net = build_net("dig", materialize=True)
        x = batch_for(net, 2, 29)
        legacy_timer = RecordingTimer()
        net.forward(x, timer=legacy_timer)
        plan = ExecutionPlan(net, 4)
        planned_timer = RecordingTimer()
        plan.run(x, timer=planned_timer)
        assert planned_timer.events == legacy_timer.events


# ----------------------------------------------------------------- registry
class TestRegistryPlanCache:
    @pytest.fixture
    def registry(self):
        reg = ModelRegistry()
        reg.register("dig", build_net("dig", materialize=True))
        return reg

    def test_bucketing_shares_plans(self, registry):
        assert registry.plan("dig", 9) is registry.plan("dig", 16)
        assert registry.plan("dig", 1) is registry.plan("dig", 1)
        assert registry.plan("dig", 1) is not registry.plan("dig", 2)
        assert registry.plan("dig", 9).max_batch == 16

    def test_rejects_bad_batch(self, registry):
        with pytest.raises(ValueError):
            registry.plan("dig", 0)

    def test_unknown_model(self, registry):
        with pytest.raises(KeyError):
            registry.plan("nope", 4)


# ----------------------------------------------------------------- executor
class TestExecutorPlannedPath:
    @pytest.fixture
    def registry(self):
        reg = ModelRegistry()
        reg.register("dig", build_net("dig", materialize=True))
        return reg

    def test_results_match_direct_forward(self, registry):
        net = registry.get("dig")
        x = batch_for(net, 3, 31)
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                          timeout_ms=1.0))
        try:
            out = executor.submit("dig", x)
            np.testing.assert_array_equal(out, net.forward(x))
            # submit() hands back an owned read-only copy: the next batch
            # rewrites the arena, not this result
            with pytest.raises(ValueError):
                out[0, 0] = 123.0
            executor.submit("dig", x * 2.0)
            np.testing.assert_array_equal(out, net.forward(x))
        finally:
            executor.close()

    def test_concurrent_submits_coalesce_and_match(self, registry):
        net = registry.get("dig")
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=8,
                                                          timeout_ms=50.0))
        # force the queue path: this test pins coalescing, which the
        # batch-1 fast path legitimately skips on an idle model
        executor._fast_off.add("dig")
        gen = np.random.default_rng(37)
        xs = [gen.standard_normal((2,) + tuple(net.input_shape)).astype(np.float32)
              for _ in range(4)]
        results = [None] * 4
        try:
            def work(i):
                results[i] = executor.submit("dig", xs[i])

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for x, out in zip(xs, results):
                # coalesced batches run BLAS at a different M than a lone
                # request would, so (as with the legacy executor) this is
                # allclose, not byte-equality — that guarantee holds per
                # batch composition, pinned by the submit()-only tests
                np.testing.assert_allclose(out, net.forward(x), rtol=1e-5)
            assert max(executor.executed_batches["dig"]) > 2  # coalesced
        finally:
            executor.close()

    def test_result_is_readonly_and_survives_arena_reuse(self, registry):
        net = registry.get("dig")
        x = batch_for(net, 2, 41)
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                          timeout_ms=1.0))
        try:
            out = executor.submit("dig", x)
            assert not out.flags.writeable
            np.testing.assert_array_equal(out, net.forward(x))
            # the next batch reuses the arena; the first result is owned
            out2 = executor.submit("dig", x * 2.0)
            np.testing.assert_array_equal(out2, net.forward(x * 2.0))
            np.testing.assert_array_equal(out, net.forward(x))
        finally:
            executor.close()

    def test_oversize_request_runs_on_throwaway_plan(self, registry):
        net = registry.get("dig")
        x = batch_for(net, 6, 43)  # > max_batch: collector admits it whole
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                          timeout_ms=1.0))
        try:
            out = executor.submit("dig", x)
            np.testing.assert_array_equal(out, net.forward(x))
            # same serve routine, on a plan compiled for the row count and
            # dropped afterwards: the registry caches nothing past the
            # envelope bucket
            assert list(executor.executed_batches["dig"]) == [6]
            assert max(b for _, b in registry._plans) <= 4
        finally:
            executor.close()

    def test_wrong_shape_payload_fails_loudly(self, registry):
        executor = BatchingExecutor(registry, BatchPolicy(max_batch=4,
                                                          timeout_ms=1.0))
        try:
            with pytest.raises(ValueError, match="does not match"):
                executor.submit("dig", np.zeros((2, 1, 8, 8), np.float32))
        finally:
            executor.close()

