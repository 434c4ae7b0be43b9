"""Dataset generation, descriptors, and the binary container round-trip."""

import tracemalloc
import zlib

import numpy as np
import pytest

from guidelab import data as gd
from oracles import mixture_draw


class TestDescriptor:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(gd.DescriptorError):
            gd.ManifoldDescriptor(kind="gaussian_mixture", dim=4,
                                  weights=np.array([0.5, 0.6]),
                                  means=np.zeros((2, 4)),
                                  variances=np.array([1.0, 1.0]))
        with pytest.raises(gd.DescriptorError):   # NaN passes the sum check
            gd.ManifoldDescriptor(kind="gaussian_mixture", dim=4,
                                  weights=np.array([np.nan, np.nan]),
                                  means=np.zeros((2, 4)),
                                  variances=np.array([1.0, 1.0]))

    def test_variances_positive(self):
        with pytest.raises(gd.DescriptorError):
            gd.ManifoldDescriptor(kind="gaussian_mixture", dim=4,
                                  weights=np.array([1.0]),
                                  means=np.zeros((1, 4)),
                                  variances=np.array([0.0]))

    def test_text_roundtrip(self, bench_descriptor):
        text = bench_descriptor.to_text()
        back = gd.ManifoldDescriptor.from_text(text)
        assert back.to_text() == text
        np.testing.assert_array_equal(back.means, bench_descriptor.means)

    def test_text_missing_field(self, bench_descriptor):
        text = bench_descriptor.to_text().replace('"means"', '"meanz"')
        with pytest.raises(gd.DescriptorError, match="means"):
            gd.ManifoldDescriptor.from_text(text)
        # the curve kinds are gone: their fields do not make a descriptor
        rings = ('{"ambient_jitter":0.01,"curve_noise":0.1,"dim":4,"kind":"rings",'
                 '"radii":[1.0,2.0],"weights":[0.5,0.5]}')
        with pytest.raises(gd.DescriptorError, match="unknown kind 'rings'"):
            gd.ManifoldDescriptor.from_text(rings)

    def test_eight_gaussians_layout(self, bench_descriptor):
        d = bench_descriptor
        assert d.n_classes == 8
        assert d.means.shape == (8, 64)
        radii = np.linalg.norm(d.means[:, :2], axis=1)
        np.testing.assert_allclose(radii, 10.0, atol=1e-12)
        assert np.all(d.means[:, 2:] == 0.0)


class TestGenerate:
    def test_single_gaussian_mean(self):
        desc = gd.ManifoldDescriptor(kind="gaussian_mixture", dim=64,
                                     weights=np.array([1.0]),
                                     means=np.zeros((1, 64)),
                                     variances=np.array([1.0]))
        ds = gd.generate(desc, 10_000, seed=3)
        bound = 4.0 / np.sqrt(10_000)
        assert np.all(np.abs(ds.points.mean(axis=0)) < bound)

    def test_label_counts_concentrate(self, bench_descriptor):
        ds = gd.generate(bench_descriptor, 8000, seed=7)
        counts = np.bincount(ds.labels, minlength=8)
        # Binomial(8000, 1/8): mean 1000, sd ~29.6; [900, 1100] is ~3.4 sd
        assert np.all(counts >= 900) and np.all(counts <= 1100)

    def test_determinism(self, bench_descriptor):
        a = gd.generate(bench_descriptor, 500, seed=11)
        b = gd.generate(bench_descriptor, 500, seed=11)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gd.generate(bench_descriptor, 500, seed=12)
        assert not np.array_equal(a.points, c.points)

    def test_per_class_means(self, bench_descriptor, bench_dataset):
        for k in range(8):
            pts = bench_dataset.points[bench_dataset.labels == k]
            sigma = np.sqrt(np.max(bench_descriptor.variances[k]))
            tol = 5.0 * sigma / np.sqrt(len(pts))
            assert np.all(np.abs(pts.mean(axis=0) - bench_descriptor.means[k]) < tol)

    @pytest.mark.parametrize("dim", [2, 3, 64])
    def test_equals_the_plain_formula(self, dim):
        # generate draws in place; the values are the formula's bit for bit
        uneven = gd.ManifoldDescriptor(
            kind="gaussian_mixture", dim=dim, weights=np.array([0.7, 0.2, 0.1]),
            means=np.arange(3 * dim, dtype=float).reshape(3, dim) - 2.5,
            variances=np.array([0.3, 2.0, 1e-4]))
        for desc in (gd.eight_gaussians(dim=dim), uneven):
            for seed in (0, 1, 5, 1000):
                for n in (1, 7, 4096, 8000):
                    ds = gd.generate(desc, n, seed)
                    points, labels = mixture_draw(desc, n, seed)
                    assert ds.points.tobytes() == points.tobytes()
                    assert ds.labels.tobytes() == labels.tobytes()

    def test_rejects_bad_n(self, bench_descriptor):
        with pytest.raises(ValueError):
            gd.generate(bench_descriptor, 0, seed=1)


class TestContainer:
    def test_roundtrip(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 200, seed=5)
        path = tmp_path / "ds.glab"
        gd.save(ds, path)
        back = gd.load(path)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.seed == ds.seed
        assert back.descriptor.to_text() == ds.descriptor.to_text()

    def test_roundtrip_bit_for_bit(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 50, seed=5)
        p1, p2 = tmp_path / "a.glab", tmp_path / "b.glab"
        gd.save(ds, p1)
        gd.save(gd.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_truncation(self, tmp_path):
        path = tmp_path / "empty.glab"
        path.write_bytes(b"")
        with pytest.raises(gd.TruncatedFileError):
            gd.load(path)

    def test_truncated_payload(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 50, seed=5)
        path = tmp_path / "t.glab"
        gd.save(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(gd.TruncatedFileError):
            gd.load(path)

    def test_corrupted_checksum(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 50, seed=5)
        path = tmp_path / "c.glab"
        gd.save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF   # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(gd.ChecksumError):
            gd.load(path)

    def test_version_mismatch(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 50, seed=5)
        path = tmp_path / "v.glab"
        gd.save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")   # version field after magic
        # keep the trailing CRC consistent so only the version check fires
        body = bytes(raw[:-4])
        path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with pytest.raises(gd.VersionError):
            gd.load(path)

    def test_load_holds_at_most_two_copies(self, tmp_path, bench_descriptor):
        # a bytes slice for the CRC, and a copy of the points made while both
        # were held, once peaked at three times the file
        path = tmp_path / "big.glab"
        gd.save(gd.generate(bench_descriptor, 4096, seed=0), path)
        tracemalloc.start()
        try:
            gd.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * path.stat().st_size

    def test_bad_magic(self, tmp_path, bench_descriptor):
        ds = gd.generate(bench_descriptor, 50, seed=5)
        path = tmp_path / "m.glab"
        gd.save(ds, path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(gd.DataFormatError):
            gd.load(path)
