"""Tests for memory accounting and the Fig. 12 reporting machinery."""

from repro.core.handle import UcudnnHandle
from repro.core.options import Options
from repro.core.policies import BatchSizePolicy
from repro.cudnn.device import DeviceMemory
from repro.cudnn.handle import CudnnHandle, ExecMode
from repro.frameworks.model_zoo import build_tiny_cnn
from repro.memory import MemorySnapshot, PeakTracker, memory_report
from repro.units import MIB


class TestSnapshot:
    def test_capture_and_diff(self):
        mem = DeviceMemory(1000)
        mem.alloc(100, tag="data")
        before = MemorySnapshot.capture(mem)
        mem.alloc(50, tag="workspace")
        after = MemorySnapshot.capture(mem)
        delta = after.diff(before)
        assert delta.by_tag == {"workspace": 50}
        assert after.total == 150
        assert after.get("data") == 100
        assert after.get("missing") == 0


class TestPeakTracker:
    def test_scoped_peak(self):
        mem = DeviceMemory(1000)
        mem.alloc(100)
        with PeakTracker(mem) as tracker:
            ident = mem.alloc(500)
            mem.free(ident)
        assert tracker.observed_peak == 600
        # Global high-water mark restored/kept.
        assert mem.peak == 600

    def test_outer_peak_preserved(self):
        mem = DeviceMemory(1000)
        a = mem.alloc(700)
        mem.free(a)
        with PeakTracker(mem) as tracker:
            mem.alloc(100)
        assert tracker.observed_peak == 100
        assert mem.peak == 700  # the earlier, larger peak wins globally


class TestMemoryReport:
    def _net(self, handle):
        return build_tiny_cnn(batch=8).setup(handle, workspace_limit=1 * MIB)

    def test_plain_cudnn_report(self):
        handle = CudnnHandle(mode=ExecMode.TIMING)
        net = self._net(handle)
        report = memory_report(net)
        by_name = report.by_name()
        assert by_name["conv1"].is_conv
        assert by_name["conv1"].data_bytes == net.blobs["c1"].size_bytes
        assert by_name["conv1"].param_bytes == net.layer("conv1").param_bytes
        assert by_name["conv1"].workspace_bytes == net.layer("conv1").workspace_slot
        assert by_name["relu1"].workspace_bytes == 0
        assert report.total > 0

    def test_ucudnn_report_uses_layer_max(self):
        handle = UcudnnHandle(
            mode=ExecMode.TIMING,
            options=Options(policy=BatchSizePolicy.POWER_OF_TWO,
                            workspace_limit=1 * MIB),
        )
        net = self._net(handle)
        net.forward()
        net.backward()
        report = memory_report(net, handle)
        configs = handle.configurations()
        conv1 = net.layer("conv1")
        from repro.cudnn.enums import ConvType
        expected = max(configs[conv1.geometry(ct)].workspace for ct in ConvType)
        assert report.by_name()["conv1"].workspace_bytes == expected

    def test_render_mentions_all_layers(self):
        handle = CudnnHandle(mode=ExecMode.TIMING)
        net = self._net(handle)
        text = memory_report(net).render()
        for layer in net.layers:
            assert layer.name in text
        assert "TOTAL" in text

    def test_peak_layer(self):
        handle = CudnnHandle(mode=ExecMode.TIMING)
        report = memory_report(self._net(handle))
        peak = report.peak_layer()
        assert peak.total == max(l.total for l in report.layers)
