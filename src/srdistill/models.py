"""Generator and discriminator builders with parameter and FLOP accounting.

Generators follow the standard residual image-translation layout: a 7x7
stride-1 stem, two 3x3 stride-2 downsampling convolutions, a stack of
residual blocks, two 3x3 stride-2 transposed convolutions and a final 7x7
stride-1 convolution into tanh. The alternative is a fixed 8-level UNet
for 256x256 inputs. Discriminators are patch classifiers built from 4x4
convolutions.

Every model is one ``Model``: an ordered list of named stages, each a list
of layers, and every stage name is a feature tap. A UNet's taps are
``down1``..``down8`` then ``up8``..``up1``. The UNet's skip connections are
data, a map ``{"up{k}": "down{k-1}"}``: after the layers of ``up{k}`` the
saved output of ``down{k-1}`` is concatenated in front of its output along
channels. One private walk, ``Model._walk``, runs the stages for
``forward``/``forward_split`` and tracks shapes for ``count_macs``.
Parameter-free layers (norm, activations) are one class, ``Pointwise``.

Conventions that pin the parameter counts: instance norm carries no
learnable affine, every convolution carries a bias, the stem / residual /
head convolutions use reflection padding while all stride-2 convolutions
use zero padding. Weights are initialized N(0, 0.02), biases zero.

FLOP accounting counts 2*MACs over convolutions and matmuls only
(transposed convolutions counted input-centric); normalization and
activations are ignored, so only ratios between models are meaningful.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import tensor as T
from .serialize import manifest_value, read_checkpoint, write_checkpoint
from .tensor import Tensor

WEIGHT_STD = 0.02


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # "resnet" | "unet"
    ngf: int
    n_blocks: int = 9  # residual blocks; ignored for unet (fixed 8 levels)
    in_channels: int = 3
    out_channels: int = 3
    resolution: int = 256

    def __post_init__(self):
        if self.kind not in ("resnet", "unet"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.ngf < 1:
            raise ValueError(f"ngf must be >= 1, got {self.ngf}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.kind == "resnet":
            if self.n_blocks < 1:
                raise ValueError(f"resnet needs n_blocks >= 1, got {self.n_blocks}")
            if self.resolution % 4 != 0 or self.resolution < 8:
                raise ValueError(
                    f"resnet resolution must be a multiple of 4 and >= 8, got {self.resolution}"
                )
        else:
            if self.resolution % 256 != 0:
                raise ValueError(
                    f"unet has a fixed 8-level topology; resolution must be a "
                    f"multiple of 256, got {self.resolution}"
                )

    def manifest(self) -> dict[str, str]:
        return {
            "kind": self.kind,
            "ngf": str(self.ngf),
            "n_blocks": str(self.n_blocks),
            "in_channels": str(self.in_channels),
            "out_channels": str(self.out_channels),
            "resolution": str(self.resolution),
        }


@dataclass(frozen=True)
class DiscriminatorSpec:
    ndf: int = 64
    n_layers: int = 3
    in_channels: int = 3  # 6 for the paired regime (input and output concatenated)

    def __post_init__(self):
        if self.ndf < 1:
            raise ValueError(f"ndf must be >= 1, got {self.ndf}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")

    def manifest(self) -> dict[str, str]:
        return {
            "kind": "patchgan",
            "ndf": str(self.ndf),
            "n_layers": str(self.n_layers),
            "in_channels": str(self.in_channels),
        }


# ---------------------------------------------------------------------------
# layers


class Conv2d:
    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 padding: int = 0, pad_mode: str = "zero", *,
                 rng: np.random.Generator, dtype=np.float64):
        self.stride = stride
        self.padding = padding
        self.pad_mode = pad_mode
        self.weight = Tensor(
            rng.normal(0.0, WEIGHT_STD, (out_ch, in_ch, kernel, kernel))
            .astype(dtype, copy=False),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, pad_mode=self.pad_mode)

    def param_items(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def shape_macs(self, shape):
        n, c, h, w = shape
        o, i, kh, kw = self.weight.shape
        oh = (h + 2 * self.padding - kh) // self.stride + 1
        ow = (w + 2 * self.padding - kw) // self.stride + 1
        return n * o * oh * ow * i * kh * kw, (n, o, oh, ow)


class ConvTranspose2d:
    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int = 1,
                 padding: int = 0, output_padding: int = 0, *,
                 rng: np.random.Generator, dtype=np.float64):
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        self.weight = Tensor(
            rng.normal(0.0, WEIGHT_STD, (in_ch, out_ch, kernel, kernel))
            .astype(dtype, copy=False),
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv_transpose2d(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding,
                                  output_padding=self.output_padding)

    def param_items(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def shape_macs(self, shape):
        n, c, h, w = shape
        i, o, kh, kw = self.weight.shape
        oh = (h - 1) * self.stride - 2 * self.padding + kh + self.output_padding
        ow = (w - 1) * self.stride - 2 * self.padding + kw + self.output_padding
        return n * i * h * w * o * kh * kw, (n, o, oh, ow)


class Pointwise:
    """A parameter-free layer applying ``T.<op>(x, *args)``.

    The op is looked up on the tensor module at call time, so a function
    swapped onto ``srdistill.tensor`` after the model is built still runs.
    """

    def __init__(self, op: str, *args):
        self.op = op
        self.args = args

    def __call__(self, x: Tensor) -> Tensor:
        return getattr(T, self.op)(x, *self.args)

    def param_items(self):
        return []

    def shape_macs(self, shape):
        return 0, shape


class ResBlock:
    """conv-norm-relu-conv-norm with an identity skip; reflection padding."""

    def __init__(self, channels: int, *, rng: np.random.Generator, dtype=np.float64):
        self.conv1 = Conv2d(channels, channels, 3, padding=1, pad_mode="reflect",
                            rng=rng, dtype=dtype)
        self.norm1 = Pointwise("instance_norm")
        self.conv2 = Conv2d(channels, channels, 3, padding=1, pad_mode="reflect",
                            rng=rng, dtype=dtype)
        self.norm2 = Pointwise("instance_norm")

    def __call__(self, x: Tensor) -> Tensor:
        h = T.relu(self.norm1(self.conv1(x)))
        h = self.norm2(self.conv2(h))
        return T.add(x, h)

    def param_items(self):
        items = [("conv1." + n, t) for n, t in self.conv1.param_items()]
        items += [("conv2." + n, t) for n, t in self.conv2.param_items()]
        return items

    def shape_macs(self, shape):
        m1, s1 = self.conv1.shape_macs(shape)
        m2, s2 = self.conv2.shape_macs(s1)
        return m1 + m2, s2


# ---------------------------------------------------------------------------
# models


class Model:
    """Ordered named stages with a declared default feature tap.

    ``skips`` maps a stage to an earlier one whose output is concatenated in
    front of the stage's own output, along channels.
    """

    def __init__(self, stages: list[tuple[str, list]], default_tap: str | None,
                 manifest: dict[str, str], skips: dict[str, str] | None = None):
        self._stages = stages
        self.default_tap = default_tap
        self.manifest = manifest
        self._skips = skips or {}

    @property
    def taps(self) -> list[str]:
        return [name for name, _ in self._stages]

    def forward(self, x: Tensor) -> Tensor:
        return self._walk(x, None, _apply, _concat)[1]

    def forward_split(self, x: Tensor, layer: str | None = None
                      ) -> tuple[Tensor, Tensor]:
        """One forward pass returning (feature at the tap, final output)."""
        tap = layer if layer is not None else self.default_tap
        if tap not in self.taps:
            raise KeyError(f"unknown distill layer {tap!r}; taps are {self.taps}")
        feat, out = self._walk(x, tap, _apply, _concat)
        assert feat is not None
        return feat, out

    def _walk(self, h, tap: str | None, step, join):
        """Run ``h = step(layer, h)`` through every stage; return (h at tap, h).

        After a stage with a skip source, ``h = join(source output, h)``.
        Only outputs some later stage joins are kept, each until its use.
        """
        sources = set(self._skips.values())
        saved = {}
        feat = None
        for name, layers in self._stages:
            for layer in layers:
                h = step(layer, h)
            if name in self._skips:
                h = join(saved.pop(self._skips[name]), h)
            if name in sources:
                saved[name] = h
            if name == tap:
                feat = h
        return feat, h

    def named_params(self) -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for sname, layers in self._stages:
            for i, layer in enumerate(layers):
                for pname, t in layer.param_items():
                    items.append((f"{sname}.{i}.{pname}", t))
        return items

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def set_requires_grad(self, flag: bool) -> None:
        for t in self.params():
            t.requires_grad = flag
            if not flag:
                t.grad = None

    def zero_grad(self) -> None:
        for t in self.params():
            t.grad = None

    def count_macs(self, shape) -> int:
        total = 0

        def step(layer, shape):
            nonlocal total
            macs, shape = layer.shape_macs(shape)
            total += macs
            return shape

        def join(skip, shape):
            return (shape[0], skip[1] + shape[1], *shape[2:])

        self._walk(shape, None, step, join)
        return total


def _apply(layer, h: Tensor) -> Tensor:
    return layer(h)


def _concat(skip: Tensor, h: Tensor) -> Tensor:
    return T.concat([skip, h], axis=1)


# ---------------------------------------------------------------------------
# builders


def build_generator(spec: GeneratorSpec, rng: np.random.Generator | None = None,
                    dtype=np.float64) -> Model:
    if rng is None:
        rng = np.random.default_rng(0)
    if spec.kind == "resnet":
        return _build_resnet_generator(spec, rng, dtype)
    return _build_unet_generator(spec, rng, dtype)


def _build_resnet_generator(spec: GeneratorSpec, rng, dtype) -> Model:
    ngf = spec.ngf

    def with_norm_relu(conv) -> list:
        return [conv, Pointwise("instance_norm"), Pointwise("relu")]

    stages: list[tuple[str, list]] = [
        ("stem", with_norm_relu(Conv2d(spec.in_channels, ngf, 7, padding=3,
                                       pad_mode="reflect", rng=rng, dtype=dtype))),
        ("down1", with_norm_relu(Conv2d(ngf, 2 * ngf, 3, stride=2, padding=1,
                                        rng=rng, dtype=dtype))),
        ("down2", with_norm_relu(Conv2d(2 * ngf, 4 * ngf, 3, stride=2, padding=1,
                                        rng=rng, dtype=dtype))),
    ]
    for b in range(1, spec.n_blocks + 1):
        stages.append((f"res{b}", [ResBlock(4 * ngf, rng=rng, dtype=dtype)]))
    stages += [
        ("up1", with_norm_relu(ConvTranspose2d(4 * ngf, 2 * ngf, 3, stride=2,
                                               padding=1, output_padding=1,
                                               rng=rng, dtype=dtype))),
        ("up2", with_norm_relu(ConvTranspose2d(2 * ngf, ngf, 3, stride=2,
                                               padding=1, output_padding=1,
                                               rng=rng, dtype=dtype))),
        ("head", [Conv2d(ngf, spec.out_channels, 7, padding=3, pad_mode="reflect",
                         rng=rng, dtype=dtype), Pointwise("tanh")]),
    ]
    return Model(stages, default_tap=f"res{spec.n_blocks}", manifest=spec.manifest())


def _build_unet_generator(spec: GeneratorSpec, rng, dtype) -> Model:
    ngf = spec.ngf
    # channels out of down stage k, at index k
    down_ch = [spec.in_channels, ngf, 2 * ngf, 4 * ngf] + [8 * ngf] * 5
    stages: list[tuple[str, list]] = []
    for k in range(1, 9):
        layers: list = [Pointwise("leaky_relu", 0.2)] if k > 1 else []
        layers.append(Conv2d(down_ch[k - 1], down_ch[k], 4, stride=2, padding=1,
                             rng=rng, dtype=dtype))
        if 1 < k < 8:
            layers.append(Pointwise("instance_norm"))
        stages.append((f"down{k}", layers))
    # up stage k mirrors down stage k. Below the innermost level its input
    # also carries down k's output, joined after up k+1, doubling channels.
    for k in range(8, 0, -1):
        in_ch = down_ch[k] if k == 8 else 2 * down_ch[k]
        out_ch = down_ch[k - 1] if k > 1 else spec.out_channels
        stages.append((f"up{k}", [
            Pointwise("relu"),
            ConvTranspose2d(in_ch, out_ch, 4, stride=2, padding=1, rng=rng,
                            dtype=dtype),
            Pointwise("instance_norm" if k > 1 else "tanh")]))
    skips = {f"up{k}": f"down{k - 1}" for k in range(2, 9)}
    return Model(stages, default_tap="down3", manifest=spec.manifest(), skips=skips)


def build_discriminator(spec: DiscriminatorSpec, rng: np.random.Generator | None = None,
                        dtype=np.float64) -> Model:
    """4x4-kernel patch discriminator emitting a grid of real/fake scores."""
    if rng is None:
        rng = np.random.default_rng(0)
    ndf = spec.ndf
    stages: list[tuple[str, list]] = [
        ("layer0", [Conv2d(spec.in_channels, ndf, 4, stride=2, padding=1,
                           rng=rng, dtype=dtype), Pointwise("leaky_relu", 0.2)]),
    ]
    mult = 1
    for i in range(1, spec.n_layers + 1):
        prev, mult = mult, min(2 ** i, 8)
        stride = 2 if i < spec.n_layers else 1
        stages.append((f"layer{i}", [
            Conv2d(ndf * prev, ndf * mult, 4, stride=stride, padding=1, rng=rng,
                   dtype=dtype),
            Pointwise("instance_norm"), Pointwise("leaky_relu", 0.2)]))
    stages.append(("head", [Conv2d(ndf * mult, 1, 4, stride=1, padding=1,
                                   rng=rng, dtype=dtype)]))
    return Model(stages, default_tap=None, manifest=spec.manifest())


def spec_from_manifest(manifest: dict[str, str]) -> GeneratorSpec | DiscriminatorSpec:
    """Spec of a checkpoint manifest; a missing or non-integer field is a CodecError."""
    kind = manifest.get("kind")

    def num(key: str) -> int:
        return manifest_value(manifest, key, int)

    if kind in ("resnet", "unet"):
        return GeneratorSpec(
            kind=kind, ngf=num("ngf"), n_blocks=num("n_blocks"),
            in_channels=num("in_channels"), out_channels=num("out_channels"),
            resolution=num("resolution"))
    if kind == "patchgan":
        return DiscriminatorSpec(ndf=num("ndf"), n_layers=num("n_layers"),
                                 in_channels=num("in_channels"))
    raise ValueError(f"unknown model kind in manifest: {kind!r}")


def build_model(spec: GeneratorSpec | DiscriminatorSpec,
                rng: np.random.Generator | None = None, dtype=np.float64) -> Model:
    if isinstance(spec, GeneratorSpec):
        return build_generator(spec, rng, dtype)
    return build_discriminator(spec, rng, dtype)


# ---------------------------------------------------------------------------
# accounting and persistence


def count_params(model: Model) -> int:
    names = [n for n, _ in model.named_params()]
    if len(names) != len(set(names)):
        raise ValueError("duplicate parameter names in model inventory")
    return sum(t.numel() for _, t in model.named_params())


def count_flops(model: Model, resolution: int) -> int:
    """2*MACs over convolutions/matmuls at the given input resolution."""
    in_ch = int(model.manifest["in_channels"])
    return 2 * model.count_macs((1, in_ch, resolution, resolution))


def save_model(path, model: Model) -> None:
    write_checkpoint(path, model.manifest,
                     [(n, t.data) for n, t in model.named_params()])


class _NoDraws:
    """Stands in for the RNG of a skeleton whose weights are all replaced.

    Its ``normal`` draws nothing: it returns an uninitialised array of the
    skeleton's dtype, which the layers keep without a copy.
    """

    def __init__(self, dtype):
        self.dtype = dtype

    def normal(self, loc, scale, size):
        return np.empty(size, dtype=self.dtype)


def load_model(path, dtype=np.float32) -> Model:
    """Rebuild a model from a checkpoint; parameters load as float32 values."""
    manifest, params = read_checkpoint(path)
    spec = spec_from_manifest(manifest)
    model = build_model(spec, _NoDraws(dtype), dtype=dtype)
    stored = dict(params)
    expected = [n for n, _ in model.named_params()]
    missing = [n for n in expected if n not in stored]
    extra = [n for n in stored if n not in expected]
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing {missing}, extra {extra}")
    for name, t in model.named_params():
        arr = stored[name]
        if arr.shape != t.shape:
            raise ValueError(f"{name}: checkpoint shape {arr.shape} vs model {t.shape}")
        t.data = arr.astype(dtype, copy=False)  # the decoder's own copy
    return model


def params_digest(params: Iterable[tuple[str, Tensor]]) -> str:
    """Order-sensitive hash of parameter names and exact float bytes."""
    h = hashlib.sha256()
    for name, t in params:
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()
