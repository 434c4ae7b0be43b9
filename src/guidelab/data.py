"""Synthetic labeled datasets on known low-dimensional manifolds in R^D.

Descriptors record the generating geometry so analytic (closed-form) models
can be built from the same object that produced the data.  The one kind is a
Gaussian mixture with per-class diagonal variances.
"""

import functools
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics

MAGIC = b"GLAB"
FORMAT_VERSION = 1
HEADER_BYTES = len(MAGIC) + 2 + 8 * 4 + 4  # magic, version, n, d, classes, seed, descriptor length

KINDS = ("gaussian_mixture",)


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
    """

    kind: str
    dim: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise DescriptorError(f"unknown kind {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise DescriptorError(f"dim must be an integer of at least 2, got {self.dim!r}")
        try:
            w, m, v = (np.asarray(a, dtype=np.float64)
                       for a in (self.weights, self.means, self.variances))
        except (TypeError, ValueError):
            raise DescriptorError("weights, means and variances must be numeric") from None
        if not all(np.all(np.isfinite(a)) for a in (w, m, v)):
            raise DescriptorError("weights, means and variances must be finite")
        if w.ndim != 1 or len(w) < 1 or np.any(w < 0):
            raise DescriptorError("weights must be a nonnegative vector")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DescriptorError("weights must sum to 1 within 1e-12")
        if m.shape != (len(w), self.dim):
            raise DescriptorError("means must have shape (C, dim)")
        if v.size not in (len(w), len(w) * self.dim):
            raise DescriptorError("variances must have one value or dim values per class")
        v = np.broadcast_to(v.reshape(len(w), -1), (len(w), self.dim)).copy()
        if np.any(v <= 0):
            raise DescriptorError("all variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def n_classes(self) -> int:
        return len(self.weights)

    def to_text(self) -> str:
        d = {"kind": self.kind, "dim": self.dim, "weights": self.weights.tolist(),
             "means": self.means.tolist(), "variances": self.variances.tolist()}
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_text(cls, text: str) -> "ManifoldDescriptor":
        try:
            d = json.loads(text)
        except ValueError as exc:
            raise DescriptorError(f"descriptor is not JSON ({exc})") from None
        if not isinstance(d, dict):
            raise DescriptorError("descriptor is not a JSON object")
        if d.get("kind") not in KINDS:
            raise DescriptorError(f"unknown kind {d.get('kind')!r}")
        try:
            return cls(**{name: d[name] for name in
                          ("kind", "dim", "weights", "means", "variances")})
        except KeyError as exc:
            raise DescriptorError(f"descriptor lacks {exc}") from None


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

    @functools.cached_property
    def reference(self):
        """The points grouped once (``metrics.Reference``), kept for the
        dataset's life: it is frozen and nothing writes into its arrays."""
        return metrics.Reference(self.points)


def generate(descriptor: ManifoldDescriptor, n: int, seed: int) -> LabeledDataset:
    """Draw n labeled points; a pure function of (descriptor, n, seed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    labels = rng.choice(descriptor.n_classes, size=n, p=descriptor.weights)
    # in place: the values of means[labels] + sqrt(variances[labels]) * z, bit
    # for bit, with one dataset-sized temporary
    points = rng.standard_normal((n, descriptor.dim))
    points *= np.sqrt(descriptor.variances)[labels]
    points += descriptor.means[labels]
    return LabeledDataset(points=points, labels=labels, descriptor=descriptor, seed=seed)


def _uint_le(b: bytes) -> int:
    """The unsigned little-endian integer in ``b``, of any width."""
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
    """The dataset in the container at ``path``.  The points are read
    straight into their array and the CRC is taken over the parts as read,
    so loading holds one copy of the file, not the file and a copy."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(HEADER_BYTES)
        if size < len(MAGIC) + 2 + 4:
            raise TruncatedFileError(f"{path}: file too short to be a dataset container")
        if head[:4] != MAGIC:
            raise DataFormatError(f"{path}: bad magic bytes")
        version = _uint_le(head[4:6])
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
        if size < HEADER_BYTES:
            raise TruncatedFileError(f"{path}: header cut short at {size} bytes")
        n, d = _uint_le(head[6:14]), _uint_le(head[14:22])
        # head[22:30] is the class count, derivable from labels/descriptor
        seed = int.from_bytes(head[30:38], "little", signed=True)
        desc_len = _uint_le(head[38:42])
        expected = HEADER_BYTES + desc_len + 8 * n + 8 * n * d + 4
        if size != expected:
            raise TruncatedFileError(f"{path}: expected {expected} bytes, got {size}")
        meta = f.read(desc_len + 8 * n)  # the descriptor and the labels
        points = np.empty((n, d), dtype="<f8")
        f.readinto(points)
        stored_crc = _uint_le(f.read(4))  # a read cut short by a shrinking file fails the CRC
    if (zlib.crc32(points, zlib.crc32(meta, zlib.crc32(head))) & 0xFFFFFFFF) != stored_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch")
    descriptor = ManifoldDescriptor.from_text(meta[:desc_len].decode()) if desc_len else None
    labels = np.frombuffer(meta, dtype="<i8", count=n, offset=desc_len).copy()
    return LabeledDataset(points=points, labels=labels, descriptor=descriptor, seed=seed)
