"""Synthetic labeled datasets on known low-dimensional manifolds in R^D.

Descriptors record the generating geometry so analytic (closed-form) models
can be built from the same object that produced the data.  Gaussian-mixture
descriptors carry per-class diagonal variances; rings and moons carry curve
parameters plus an ambient jitter applied to the padding coordinates.
"""

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"GLAB"
FORMAT_VERSION = 1

KINDS = ("gaussian_mixture", "rings", "moons")


class DataFormatError(ValueError):
    """Base class for dataset container problems."""


class TruncatedFileError(DataFormatError):
    pass


class ChecksumError(DataFormatError):
    pass


class VersionError(DataFormatError):
    pass


class DescriptorError(ValueError):
    pass


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Generating geometry of a labeled synthetic dataset.

    gaussian_mixture: ``weights`` (C,), ``means`` (C, D), ``variances`` (C, D)
    diagonal per-class variances (a scalar per class is broadcast).
    rings: one circle per class with radius ``radii[c]`` in the first two
    coordinates, Gaussian radial noise ``curve_noise``.
    moons: two interleaved half circles (C = 2), ``curve_noise`` jitter.
    All kinds pad the remaining D - 2 coordinates with ``ambient_jitter`` noise
    (mixtures embed via their means/variances directly).
    """

    kind: str
    dim: int
    weights: np.ndarray
    means: np.ndarray = None
    variances: np.ndarray = None
    radii: np.ndarray = None
    curve_noise: float = 0.0
    ambient_jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DescriptorError(f"unknown kind {self.kind!r}")
        if self.dim < 2:
            raise DescriptorError("dim must be at least 2")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) < 1 or np.any(w < 0):
            raise DescriptorError("weights must be a nonnegative vector")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DescriptorError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", w)
        if self.kind == "gaussian_mixture":
            m = np.asarray(self.means, dtype=np.float64)
            if m.shape != (len(w), self.dim):
                raise DescriptorError("means must have shape (C, dim)")
            v = np.asarray(self.variances, dtype=np.float64)
            v = np.broadcast_to(v.reshape(len(w), -1), (len(w), self.dim)).copy()
            if np.any(v <= 0):
                raise DescriptorError("all variances must be positive")
            object.__setattr__(self, "means", m)
            object.__setattr__(self, "variances", v)
        elif self.kind == "rings":
            r = np.asarray(self.radii, dtype=np.float64)
            if r.shape != (len(w),) or np.any(r <= 0):
                raise DescriptorError("radii must be positive, one per class")
            object.__setattr__(self, "radii", r)
            if self.curve_noise <= 0 or self.ambient_jitter <= 0:
                raise DescriptorError("curve_noise and ambient_jitter must be positive")
        else:  # moons
            if len(w) != 2:
                raise DescriptorError("moons has exactly two classes")
            if self.curve_noise <= 0 or self.ambient_jitter <= 0:
                raise DescriptorError("curve_noise and ambient_jitter must be positive")

    @property
    def n_classes(self) -> int:
        return len(self.weights)

    def to_text(self) -> str:
        d = {"kind": self.kind, "dim": self.dim, "weights": self.weights.tolist()}
        if self.kind == "gaussian_mixture":
            d["means"] = self.means.tolist()
            d["variances"] = self.variances.tolist()
        else:
            if self.kind == "rings":
                d["radii"] = self.radii.tolist()
            d["curve_noise"] = self.curve_noise
            d["ambient_jitter"] = self.ambient_jitter
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_text(cls, text: str) -> "ManifoldDescriptor":
        d = json.loads(text)
        try:
            kw = dict(kind=d["kind"], dim=d["dim"], weights=np.array(d["weights"]))
            if d["kind"] == "gaussian_mixture":
                kw["means"] = np.array(d["means"])
                kw["variances"] = np.array(d["variances"])
            else:
                if d["kind"] == "rings":
                    kw["radii"] = np.array(d["radii"])
                kw["curve_noise"] = d["curve_noise"]
                kw["ambient_jitter"] = d["ambient_jitter"]
        except KeyError as exc:
            raise DescriptorError(f"descriptor lacks {exc}") from None
        return cls(**kw)


def eight_gaussians(dim: int = 64, radius: float = 10.0, sigma: float = 0.5,
                    ambient_jitter: float = 0.01) -> ManifoldDescriptor:
    """Default benchmark: 8 equal-weight Gaussians on a circle in the first
    two coordinates of R^dim, ambient jitter in the remaining coordinates."""
    n = 8
    angles = 2.0 * np.pi * np.arange(n) / n
    means = np.zeros((n, dim))
    means[:, 0] = radius * np.cos(angles)
    means[:, 1] = radius * np.sin(angles)
    variances = np.full((n, dim), ambient_jitter ** 2)
    variances[:, :2] = sigma ** 2
    return ManifoldDescriptor(
        kind="gaussian_mixture",
        dim=dim,
        weights=np.full(n, 1.0 / n),
        means=means,
        variances=variances,
    )


@dataclass(frozen=True)
class LabeledDataset:
    points: np.ndarray
    labels: np.ndarray
    descriptor: ManifoldDescriptor = None
    seed: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
        if pts.ndim != 2 or len(pts) < 1:
            raise ValueError("points must be a non-empty N x D matrix")
        if lab.shape != (len(pts),) or np.any(lab < 0):
            raise ValueError("labels must be nonnegative, one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", lab)

    @property
    def n_classes(self) -> int:
        if self.descriptor is not None:
            return self.descriptor.n_classes
        return int(self.labels.max()) + 1


def generate(descriptor: ManifoldDescriptor, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled points; a pure function of (descriptor, n, seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.choice(descriptor.n_classes, size=n, p=descriptor.weights)
    D = descriptor.dim
    if descriptor.kind == "gaussian_mixture":
        std = np.sqrt(descriptor.variances[labels])
        points = descriptor.means[labels] + std * rng.standard_normal((n, D))
    elif descriptor.kind == "rings":
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = descriptor.radii[labels] + descriptor.curve_noise * rng.standard_normal(n)
        points = descriptor.ambient_jitter * rng.standard_normal((n, D))
        points[:, 0] = r * np.cos(theta)
        points[:, 1] = r * np.sin(theta)
    else:  # moons
        theta = rng.uniform(0.0, np.pi, size=n)
        points = descriptor.ambient_jitter * rng.standard_normal((n, D))
        upper = labels == 0
        x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
        y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
        points[:, 0] = x + descriptor.curve_noise * rng.standard_normal(n)
        points[:, 1] = y + descriptor.curve_noise * rng.standard_normal(n)
    return LabeledDataset(points=points, labels=labels, descriptor=descriptor, seed=seed)


def _u32(b: bytes) -> int:
    return int.from_bytes(b, "little")


def save(dataset: LabeledDataset, path) -> None:
    """Write the self-describing binary container (magic, version, header,
    row-major float64 payload, CRC32 of everything before the checksum)."""
    n, d = dataset.points.shape
    desc = dataset.descriptor.to_text().encode() if dataset.descriptor else b""
    buf = bytearray()
    buf += MAGIC
    buf += FORMAT_VERSION.to_bytes(2, "little")
    buf += n.to_bytes(8, "little")
    buf += d.to_bytes(8, "little")
    buf += dataset.n_classes.to_bytes(8, "little")
    buf += int(dataset.seed).to_bytes(8, "little", signed=True)
    buf += len(desc).to_bytes(4, "little")
    buf += desc
    buf += np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes()
    buf += np.ascontiguousarray(dataset.points, dtype="<f8").tobytes()
    buf += (zlib.crc32(buf) & 0xFFFFFFFF).to_bytes(4, "little")
    Path(path).write_bytes(bytes(buf))


def load(path) -> LabeledDataset:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 2 + 4:
        raise TruncatedFileError(f"{path}: file too short to be a dataset container")
    if raw[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic bytes")
    version = _u32(raw[4:6])
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    off = 6
    if len(raw) < off + 8 * 4 + 4:
        raise TruncatedFileError(f"{path}: header cut short at {len(raw)} bytes")
    n = _u32(raw[off:off + 8]); off += 8
    d = _u32(raw[off:off + 8]); off += 8
    off += 8  # class count, derivable from labels/descriptor
    seed = int.from_bytes(raw[off:off + 8], "little", signed=True); off += 8
    desc_len = _u32(raw[off:off + 4]); off += 4
    expected = off + desc_len + 8 * n + 8 * n * d + 4
    if len(raw) != expected:
        raise TruncatedFileError(f"{path}: expected {expected} bytes, got {len(raw)}")
    body, stored_crc = raw[:-4], _u32(raw[-4:])
    if (zlib.crc32(body) & 0xFFFFFFFF) != stored_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch")
    descriptor = None
    if desc_len:
        descriptor = ManifoldDescriptor.from_text(raw[off:off + desc_len].decode())
    off += desc_len
    labels = np.frombuffer(raw, dtype="<i8", count=n, offset=off).copy()
    off += 8 * n
    points = np.frombuffer(raw, dtype="<f8", count=n * d, offset=off).reshape(n, d).copy()
    return LabeledDataset(points=points, labels=labels, descriptor=descriptor, seed=seed)
