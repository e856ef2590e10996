"""Graph builder: lifetimes, validation, memory accounting."""

import pytest

from repro.dnn.graph import Graph, GraphBuilder, GraphError, Phase
from repro.dnn.ops import TensorAccess
from repro.dnn.tensor import PRE_STEP, Tensor, TensorKind
from repro.models import MODELS


def toy_graph():
    b = GraphBuilder("toy", batch_size=4)
    w = b.weight("w", 4096)
    x = b.input("x", 2048)
    with b.layer("l0"):
        act = b.tensor("act", 2048)
        tmp = b.temp("tmp", 64)
        b.op("f", flops=1e6, reads=[x, w], writes=[act, tmp])
    with b.layer("l1", Phase.BACKWARD):
        grad = b.tensor("grad", 4096, TensorKind.GRADIENT)
        b.op("g", flops=2e6, reads=[act], writes=[grad])
        b.op("apply", flops=1e3, reads=[grad], writes=[w])
    return b.finish()


class TestBuilder:
    def test_lifetimes_assigned_from_usage(self):
        graph = toy_graph()
        act = graph.tensor("act")
        assert act.alloc_layer == 0
        assert act.free_layer == 1
        tmp = graph.tensor("tmp")
        assert tmp.alloc_layer == 0
        assert tmp.free_layer == 0
        assert tmp.short_lived

    def test_preallocated_lifetimes(self):
        graph = toy_graph()
        w = graph.tensor("w")
        assert w.preallocated
        assert w.alloc_layer == PRE_STEP
        assert w.free_layer is None

    def test_layer_touches_ground_truth(self):
        graph = toy_graph()
        act = graph.tensor("act")
        assert act.layer_touches == {0: 1, 1: 1}
        w = graph.tensor("w")
        assert w.layer_touches == {0: 1, 1: 1}

    def test_tensor_outside_layer_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        with pytest.raises(GraphError):
            b.tensor("bad", 10)

    def test_op_outside_layer_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        w = b.weight("w", 10)
        with pytest.raises(GraphError):
            b.op("f", flops=1.0, reads=[w])

    def test_empty_layer_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        b.begin_layer("empty")
        with pytest.raises(GraphError):
            b.end_layer()

    def test_nested_layer_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        b.begin_layer("a")
        with pytest.raises(GraphError):
            b.begin_layer("b")

    def test_unreferenced_tensor_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        w = b.weight("w", 10)
        with b.layer("l"):
            b.tensor("never_used", 10)
            b.op("f", flops=1.0, reads=[w])
        with pytest.raises(GraphError):
            b.finish()

    def test_unknown_tensor_in_op_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        other = GraphBuilder("y", batch_size=1)
        with other.layer("l"):
            foreign = other.tensor("foreign", 10)
            other.op("f", flops=1.0, writes=[foreign])
        b.begin_layer("l")
        with pytest.raises(GraphError):
            b.op("f", flops=1.0, reads=[foreign])

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder("x", batch_size=0)

    def test_finish_with_open_layer_rejected(self):
        b = GraphBuilder("x", batch_size=1)
        w = b.weight("w", 10)
        b.begin_layer("l")
        b.op("f", flops=1.0, reads=[w])
        with pytest.raises(GraphError):
            b.finish()

    def test_access_spec_coercion(self):
        b = GraphBuilder("x", batch_size=1)
        w = b.weight("w", 1000)
        with b.layer("l"):
            op = b.op(
                "f",
                flops=1.0,
                reads=[w, (w, 500), (w, 100, 3), TensorAccess(w, 50, False)],
            )
        assert [a.nbytes for a in op.accesses] == [1000, 500, 100, 50]
        assert op.accesses[2].passes == 3


class TestGraphQueries:
    def test_live_bytes_and_peak(self):
        graph = toy_graph()
        prealloc = 4096 + 2048  # w + x
        assert graph.live_bytes_at(0) == prealloc + 2048 + 64
        assert graph.live_bytes_at(1) == prealloc + 2048 + 4096
        assert graph.peak_memory_bytes() == prealloc + 2048 + 4096

    def test_signature_stability(self):
        assert toy_graph().signature() == toy_graph().signature()

    def test_signature_differs_for_different_structure(self):
        b = GraphBuilder("toy", batch_size=4)
        w = b.weight("w", 10)
        with b.layer("l0"):
            b.op("different", flops=1.0, reads=[w])
        assert b.finish().signature() != toy_graph().signature()

    def test_tensor_lookup(self):
        graph = toy_graph()
        assert graph.tensor("act").name == "act"
        with pytest.raises(GraphError):
            graph.tensor("nope")

    def test_partitions(self):
        graph = toy_graph()
        assert {t.name for t in graph.preallocated()} == {"w", "x"}
        assert {t.name for t in graph.step_tensors()} == {"act", "tmp", "grad"}

    def test_total_flops(self):
        assert toy_graph().total_flops() == pytest.approx(1e6 + 2e6 + 1e3)


class TestPeakMemory:
    @pytest.mark.parametrize("scale", ["small", "large"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_peak_is_the_largest_per_layer_live_bytes(self, name, scale):
        graph = MODELS[name].build(scale=scale)
        assert graph.peak_memory_bytes() == max(
            graph.live_bytes_at(index) for index in range(graph.num_layers)
        )

    def test_graph_without_layers_holds_its_preallocated_bytes(self):
        weight = Tensor(0, "w", 4096, TensorKind.WEIGHT, preallocated=True)
        step = Tensor(1, "act", 512, TensorKind.ACTIVATION, alloc_layer=0, free_layer=0)
        graph = Graph("empty", 1, [], [weight, step])
        assert graph.peak_memory_bytes() == 4096
