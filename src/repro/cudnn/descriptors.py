"""Descriptor objects mirroring cuDNN's opaque descriptor types.

cuDNN calls take *descriptors* -- lightweight metadata objects describing
tensor / filter / convolution geometry -- separately from the data pointers.
Keeping this split in the simulation matters: mu-cuDNN's interposition layer
(paper section III-E) harvests layer parameters purely from the descriptors
passed to ``cudnnGetConvolution*Algorithm`` before any data exists.

All tensors are NCHW FP32, matching the paper's evaluation setup.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.cudnn.enums import ConvType, ConvolutionMode
from repro.errors import BadParamError
from repro.cudnn.status import Status


def _integer(name: str, value: int) -> int:
    """``value`` as an ``int``; bools and non-integral values are rejected.

    ``operator.index`` admits ``int`` and numpy integers but not ``2.5``,
    ``3.0`` or ``"3"``: a field that merely converts to an integer would be
    kept raw and give a second cache key for the same shape.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadParamError(Status.BAD_PARAM, f"{name} must be an integer, got {value!r}")


def _positive(name: str, value: int) -> int:
    if type(value) is not int:  # plain ints need no conversion
        value = _integer(name, value)
    if value <= 0:
        raise BadParamError(Status.BAD_PARAM, f"{name} must be positive, got {value}")
    return value


def _non_negative(name: str, value: int) -> int:
    if type(value) is not int:
        value = _integer(name, value)
    if value < 0:
        raise BadParamError(Status.BAD_PARAM, f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class TensorDescriptor:
    """4-D NCHW tensor descriptor (``cudnnTensorDescriptor_t``)."""

    n: int
    c: int
    h: int
    w: int

    def __post_init__(self):
        for name in ("n", "c", "h", "w"):
            _positive(name, getattr(self, name))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.n, self.c, self.h, self.w)

    @property
    def count(self) -> int:
        """Number of elements."""
        return self.n * self.c * self.h * self.w

    @property
    def size_bytes(self) -> int:
        """FP32 storage footprint in bytes."""
        return self.count * 4

    def with_batch(self, n: int) -> "TensorDescriptor":
        """Copy of this descriptor with a different mini-batch size.

        This is the descriptor surgery mu-cuDNN performs to issue
        micro-batched kernels.
        """
        return TensorDescriptor(n, self.c, self.h, self.w)


@dataclass(frozen=True)
class FilterDescriptor:
    """4-D KCRS filter descriptor (``cudnnFilterDescriptor_t``)."""

    k: int  # output channels
    c: int  # input channels
    r: int  # kernel height
    s: int  # kernel width

    def __post_init__(self):
        for name in ("k", "c", "r", "s"):
            _positive(name, getattr(self, name))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.k, self.c, self.r, self.s)

    @property
    def count(self) -> int:
        return self.k * self.c * self.r * self.s

    @property
    def size_bytes(self) -> int:
        return self.count * 4


@dataclass(frozen=True)
class ConvolutionDescriptor:
    """Convolution parameters (``cudnnConvolutionDescriptor_t``).

    ``mode`` defaults to cross-correlation, which is what every DL framework
    uses (the "convolutions" of CNNs do not flip the filter).
    """

    pad_h: int = 0
    pad_w: int = 0
    stride_h: int = 1
    stride_w: int = 1
    dilation_h: int = 1
    dilation_w: int = 1
    mode: ConvolutionMode = ConvolutionMode.CROSS_CORRELATION
    #: ``cudnnSetConvolutionGroupCount``: input/output channels are split
    #: into this many independent groups (AlexNet's original two-tower
    #: layers use 2).
    groups: int = 1

    def __post_init__(self):
        _non_negative("pad_h", self.pad_h)
        _non_negative("pad_w", self.pad_w)
        _positive("stride_h", self.stride_h)
        _positive("stride_w", self.stride_w)
        _positive("dilation_h", self.dilation_h)
        _positive("dilation_w", self.dilation_w)
        _positive("groups", self.groups)


def output_dims(
    x: TensorDescriptor, w: FilterDescriptor, conv: ConvolutionDescriptor
) -> TensorDescriptor:
    """Output tensor descriptor of a convolution (``cudnnGetConvolution2dForwardOutputDim``)."""
    if x.c != w.c * conv.groups:
        raise BadParamError(
            Status.BAD_PARAM,
            f"input channels {x.c} != filter channels {w.c} x groups {conv.groups}",
        )
    if w.k % conv.groups:
        raise BadParamError(
            Status.BAD_PARAM,
            f"output channels {w.k} not divisible by groups {conv.groups}",
        )
    eff_r = (w.r - 1) * conv.dilation_h + 1
    eff_s = (w.s - 1) * conv.dilation_w + 1
    out_h = (x.h + 2 * conv.pad_h - eff_r) // conv.stride_h + 1
    out_w = (x.w + 2 * conv.pad_w - eff_s) // conv.stride_w + 1
    if out_h <= 0 or out_w <= 0:
        raise BadParamError(
            Status.BAD_PARAM,
            f"convolution output is empty: input {x.shape}, filter {w.shape}, "
            f"pad ({conv.pad_h},{conv.pad_w}), stride ({conv.stride_h},{conv.stride_w})",
        )
    return TensorDescriptor(x.n, w.k, out_h, out_w)


#: Per-instance memos :class:`ConvGeometry` keeps beside its fields.
_MEMOS = ("_y_desc", "_cache_key", "_batch_checked")


@dataclass(frozen=True)
class ConvGeometry:
    """Canonical geometry of one convolution kernel.

    This is the key type of the whole system: mu-cuDNN caches benchmark
    results and optimized configurations per geometry (paper section III-D,
    "networks that replicate convolutional layers of the same size, such as
    ResNet" hit this cache).  It is hashable and intentionally excludes the
    mini-batch size of the *data* -- ``n`` here is the batch the kernel is
    asked to run at, which the optimizer varies.
    """

    conv_type: ConvType
    n: int
    c: int
    h: int
    w: int
    k: int
    r: int
    s: int
    pad_h: int = 0
    pad_w: int = 0
    stride_h: int = 1
    stride_w: int = 1
    dilation_h: int = 1
    dilation_w: int = 1
    #: True convolution spatially flips the filter; frameworks use
    #: cross-correlation.  Output dims, workspace and time are identical,
    #: only the numeric kernels differ (by a filter flip).
    mode: ConvolutionMode = ConvolutionMode.CROSS_CORRELATION
    #: Channel groups (AlexNet's original two-tower layers).  ``c`` and
    #: ``k`` are the full tensor channel counts; each group convolves
    #: ``c/groups`` inputs into ``k/groups`` outputs.
    groups: int = 1

    def __post_init__(self):
        for name in ("n", "c", "h", "w", "k", "r", "s"):
            _positive(name, getattr(self, name))
        for name in ("pad_h", "pad_w"):
            _non_negative(name, getattr(self, name))
        for name in ("stride_h", "stride_w", "dilation_h", "dilation_w", "groups"):
            _positive(name, getattr(self, name))
        if self.c % self.groups or self.k % self.groups:
            raise BadParamError(
                Status.BAD_PARAM,
                f"channels ({self.c} in, {self.k} out) not divisible by "
                f"groups {self.groups}",
            )

    @classmethod
    def from_descriptors(
        cls,
        conv_type: ConvType,
        x: TensorDescriptor,
        w: FilterDescriptor,
        conv: ConvolutionDescriptor,
    ) -> "ConvGeometry":
        return cls(
            conv_type=conv_type,
            n=x.n,
            c=x.c,
            h=x.h,
            w=x.w,
            k=w.k,
            r=w.r,
            s=w.s,
            pad_h=conv.pad_h,
            pad_w=conv.pad_w,
            stride_h=conv.stride_h,
            stride_w=conv.stride_w,
            dilation_h=conv.dilation_h,
            dilation_w=conv.dilation_w,
            mode=conv.mode,
            groups=conv.groups,
        )

    # -- derived quantities -------------------------------------------------

    @property
    def x_desc(self) -> TensorDescriptor:
        return TensorDescriptor(self.n, self.c, self.h, self.w)

    @property
    def w_desc(self) -> FilterDescriptor:
        return FilterDescriptor(self.k, self.c // self.groups, self.r, self.s)

    @property
    def conv_desc(self) -> ConvolutionDescriptor:
        return ConvolutionDescriptor(
            self.pad_h,
            self.pad_w,
            self.stride_h,
            self.stride_w,
            self.dilation_h,
            self.dilation_w,
            self.mode,
            self.groups,
        )

    @property
    def y_desc(self) -> TensorDescriptor:
        """Output descriptor, derived once per instance on first use.

        The value is stored beside the fields with ``object.__setattr__``;
        two threads racing on a fresh geometry both compute the same frozen
        descriptor, so no lock is needed.  A failure is not stored: a
        geometry whose output would be empty constructs, and raises
        :class:`BadParamError` on every access.  The memo is not a field,
        so equality, hashing, ``repr``, :meth:`cache_key` and
        ``dataclasses.replace`` ignore it, and pickles and copies drop it
        (:meth:`__getstate__`); so does the :meth:`cache_key` memo.
        """
        y = self.__dict__.get("_y_desc")
        if y is None:
            y = output_dims(self.x_desc, self.w_desc, self.conv_desc)
            object.__setattr__(self, "_y_desc", y)
        return y

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for memo in _MEMOS:
            state.pop(memo, None)
        return state

    @property
    def out_h(self) -> int:
        return self.y_desc.h

    @property
    def out_w(self) -> int:
        return self.y_desc.w

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the direct algorithm.

        ``N * K * H' * W' * (C/G) * R * S`` -- the seven nested loops of the
        paper's Algorithm 1 (each output channel sees only its group's
        input channels).  All three operation types perform the same number
        of MACs (they contract different pairs of the x/w/y tensors).
        """
        y = self.y_desc
        return self.n * self.k * y.h * y.w * (self.c // self.groups) * self.r * self.s

    @property
    def flops(self) -> int:
        """Floating-point operations (2 per MAC)."""
        return 2 * self.macs

    def with_batch(self, n: int) -> "ConvGeometry":
        """Identical geometry at a different (micro-)batch size."""
        if n == self.n:
            return self
        return ConvGeometry(
            self.conv_type,
            n,
            self.c,
            self.h,
            self.w,
            self.k,
            self.r,
            self.s,
            self.pad_h,
            self.pad_w,
            self.stride_h,
            self.stride_w,
            self.dilation_h,
            self.dilation_w,
            self.mode,
            self.groups,
        )

    def with_type(self, conv_type: ConvType) -> "ConvGeometry":
        """Identical geometry for a different operation type."""
        if conv_type == self.conv_type:
            return self
        return ConvGeometry(
            conv_type,
            self.n,
            self.c,
            self.h,
            self.w,
            self.k,
            self.r,
            self.s,
            self.pad_h,
            self.pad_w,
            self.stride_h,
            self.stride_w,
            self.dilation_h,
            self.dilation_w,
            self.mode,
            self.groups,
        )

    def group_geometry(self) -> "ConvGeometry":
        """One group's sub-geometry (c/G inputs -> k/G outputs, groups=1).

        The support rules, workspace formulas, and time model all compose
        grouped convolution from this sub-problem: groups share one
        workspace slot sequentially, so ws(grouped) = ws(sub) and
        time(grouped) ~= G x time(sub).
        """
        if self.groups == 1:
            return self
        import dataclasses

        return dataclasses.replace(
            self, c=self.c // self.groups, k=self.k // self.groups, groups=1
        )

    def cache_key(self) -> str:
        """Stable string key for the file-based benchmark database.

        Built once per instance and memoized beside the fields, as
        :attr:`y_desc` is: every plan request's key calls it.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (
                f"{self.conv_type.value}:n{self.n}c{self.c}h{self.h}w{self.w}"
                f"k{self.k}r{self.r}s{self.s}"
                f"ph{self.pad_h}pw{self.pad_w}sh{self.stride_h}sw{self.stride_w}"
                f"dh{self.dilation_h}dw{self.dilation_w}"
                + ("" if self.groups == 1 else f"g{self.groups}")
                + ("" if self.mode == ConvolutionMode.CROSS_CORRELATION
                   else ":conv")
            )
            object.__setattr__(self, "_cache_key", key)
        return key

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.conv_type.short}[{self.n}x{self.c}x{self.h}x{self.w} * "
            f"{self.k}x{self.c}x{self.r}x{self.s} "
            f"p({self.pad_h},{self.pad_w}) s({self.stride_h},{self.stride_w})]"
        )
