"""Netpbm round trips and format errors, read_sample's decode and the memory
a held split takes, the scene generator's determinism and range, and
augmentation: identity parameters, the stream positions one call takes, and
independence from the image's memory layout."""

import re
import tracemalloc

import numpy as np
import pytest

from aced import cli
from aced.data import (
    MalformedHeaderError,
    MissingScaleError,
    SceneSample,
    SceneSpec,
    TruncatedPayloadError,
    apply_augment,
    augment,
    generate_scene,
    read_manifest,
    read_pgm16,
    read_ppm,
    read_sample,
    write_pgm16,
    write_ppm,
)
from aced.gradcore import Rng
from aced.sid import DEPTH_RANGE


def _spec(seed=5):
    return SceneSpec(seed=seed, height=16, width=32)


def _write_scene(tmp_path, index):
    """(scene, ppm path, pgm path) of scene `index`, written as gen-data does."""
    s = generate_scene(_spec(), index)
    write_ppm(tmp_path / "a.ppm", s.image)
    write_pgm16(tmp_path / "a.pgm", s.depth, DEPTH_RANGE.beta / 65535.0)
    return s, tmp_path / "a.ppm", tmp_path / "a.pgm"


def _write(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


class TestRoundTrip:
    def test_ppm(self, tmp_path):
        image = (np.arange(3 * 4 * 5) % 256).reshape(3, 4, 5) / 255.0
        write_ppm(tmp_path / "a.ppm", image)
        np.testing.assert_array_equal(read_ppm(tmp_path / "a.ppm"), image)

    def test_pgm16(self, tmp_path):
        scale = DEPTH_RANGE.beta / 65535.0
        values = (np.arange(4 * 5) * 3001 % 65536).reshape(1, 4, 5) * scale
        write_pgm16(tmp_path / "a.pgm", values, scale)
        got, got_scale = read_pgm16(tmp_path / "a.pgm")
        assert got_scale == scale
        np.testing.assert_array_equal(got, values)


class TestFormatErrors:
    def test_ppm_bad_magic(self, tmp_path):
        path = _write(tmp_path, "a.ppm", b"P3\n1 1\n255\n" + bytes(3))
        with pytest.raises(MalformedHeaderError, match="expected P6"):
            read_ppm(path)

    def test_pgm_bad_magic(self, tmp_path):
        path = _write(tmp_path, "a.pgm", b"P6\n# scale 1.0\n1 1\n65535\n" + bytes(2))
        with pytest.raises(MalformedHeaderError, match="expected P5"):
            read_pgm16(path)

    def test_ppm_bad_maxval(self, tmp_path):
        path = _write(tmp_path, "a.ppm", b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(MalformedHeaderError, match="unsupported maxval"):
            read_ppm(path)

    def test_pgm_bad_maxval(self, tmp_path):
        path = _write(tmp_path, "a.pgm", b"P5\n# scale 1.0\n1 1\n255\n" + bytes(1))
        with pytest.raises(MalformedHeaderError, match="unsupported maxval"):
            read_pgm16(path)

    def test_truncated_payload(self, tmp_path):
        path = _write(tmp_path, "a.ppm", b"P6\n2 2\n255\n" + bytes(11))
        with pytest.raises(TruncatedPayloadError, match="11 of 12 bytes"):
            read_ppm(path)

    def test_trailing_bytes(self, tmp_path):
        path = _write(tmp_path, "a.pgm", b"P5\n# scale 1.0\n1 1\n65535\n" + bytes(3))
        with pytest.raises(MalformedHeaderError, match="trailing bytes"):
            read_pgm16(path)

    def test_missing_scale(self, tmp_path):
        path = _write(tmp_path, "a.pgm", b"P5\n1 1\n65535\n" + bytes(2))
        with pytest.raises(MissingScaleError):
            read_pgm16(path)

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "one"])
    def test_scale_that_is_not_finite_and_positive(self, tmp_path, scale):
        path = _write(tmp_path, "a.pgm", f"P5\n# scale {scale}\n1 1\n65535\n".encode() + bytes(2))
        with pytest.raises(MalformedHeaderError, match=f"^{path}: bad scale '{scale}'"):
            read_pgm16(path)

    # A 2x1 depth map whose raw values are 1 and 2; `want` is its scale, or
    # the message that follows "<path>: ".
    @pytest.mark.parametrize("data, want", [
        (b"# lead\nP5 # after magic\n# scale 0.25\n2\n# w\n1 # h\n# maxval next\n65535\n", 0.25),
        *[(b"P5%s# scale 0.25\n2%s1%s65535%s" % (sep, sep, sep, sep), 0.25)
          for sep in (b"\t", b"\r", b"\x0b", b"\x0c")],
        (b"P5\n# scale 0.5\n# scale 0.25\n2 1\n65535\n", 0.25),
        (b"P5\n# scale 0.25\n1#2 1\n65535\n", "bad width '1#2'"),
        (b"P5\n# scale 0.25\n2 1\n# no newline", "unterminated comment"),
        (b"", "truncated header"),
        (b"P5\n# scale 0.25\n2 1\n", "truncated header"),
    ], ids=["comments", "tab", "cr", "vt", "ff", "last_scale_wins", "hash_in_width",
            "unterminated_comment", "empty", "cut_after_height"])
    def test_header_tokens_and_comments(self, tmp_path, data, want):
        pgm = _write(tmp_path, "a.pgm", data + (b"\x00\x01\x00\x02" if want == 0.25 else b""))
        ppm = _write(tmp_path, "a.ppm", b"P6\n2 1\n255\n" + bytes(6))

        def via_sample(path):
            sample = read_sample(ppm, path)
            return sample.depth, sample.scale

        for read in (read_pgm16, via_sample):
            if isinstance(want, float):
                depth, scale = read(pgm)
                assert scale == want
                np.testing.assert_array_equal(depth, np.array([[[1.0, 2.0]]]) * want)
            else:
                with pytest.raises(MalformedHeaderError, match=f"^{re.escape(f'{pgm}: {want}')}$"):
                    read(pgm)


class TestReadSample:
    def test_decodes_to_the_arrays_of_the_readers(self, tmp_path):
        _, ppm, pgm = _write_scene(tmp_path, 1)
        sample = read_sample(ppm, pgm)
        for got, want in ((sample.image, read_ppm(ppm)), (sample.depth, read_pgm16(pgm)[0])):
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape and got.strides == want.strides
            np.testing.assert_array_equal(got, want)

    def test_a_held_split_takes_about_its_file_bytes(self, tiny_dataset):
        # The files hold 5 bytes a pixel (RGB bytes and a 16-bit depth);
        # float64 would take 32. Allow one byte a pixel more, plus 1 KiB a
        # sample for its Python objects (about 0.7 KiB here: two array
        # headers, the bytes they view, the depth's dtype, the sample).
        cfg, manifest = tiny_dataset
        pairs = [(str(i), str(d)) for i, d in
                 cli._split_pairs(cfg, read_manifest(manifest), "train")]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            samples = [read_sample(img, dep) for img, dep in pairs]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(samples) == 12
        assert held <= len(samples) * (6 * cfg.image_h * cfg.image_w + 1024)


class TestGenerateScene:
    def test_deterministic_in_seed_and_index(self):
        a = generate_scene(_spec(), 3)
        b = generate_scene(_spec(), 3)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.depth, b.depth)
        for other in (generate_scene(_spec(), 4), generate_scene(_spec(seed=6), 3)):
            assert not np.array_equal(a.depth, other.depth)

    @pytest.mark.parametrize("index", range(8))
    def test_depth_and_image_ranges(self, index):
        s = generate_scene(_spec(), index)
        assert s.image.shape == (3, 16, 32) and s.depth.shape == (1, 16, 32)
        assert DEPTH_RANGE.alpha <= s.depth.min() and s.depth.max() <= DEPTH_RANGE.beta
        assert 0.0 <= s.image.min() and s.image.max() <= 1.0


class TestApplyAugment:
    def test_identity_parameters_return_the_input(self):
        s = generate_scene(_spec(), 0)
        out = apply_augment(s, 1.0, 1.0, (1.0, 1.0, 1.0))
        np.testing.assert_array_equal(out.depth, s.depth)
        # The contrast step recentres on the image mean, which may round
        # the last bit.
        np.testing.assert_allclose(out.image, s.image, rtol=0, atol=1e-15)


class TestAugment:
    def test_takes_seven_stream_positions(self):
        # Two skipped positions, brightness, contrast and three color
        # shifts: the same count as when two positions drew a crop offset,
        # so every seed keeps its jitter and its checkpoint.
        rng, ref = Rng(11), Rng(11)
        augment(generate_scene(_spec(), 0), rng)
        for _ in range(7):
            ref.next_u64()
        assert rng.next_u64() == ref.next_u64()

    def test_image_layout_does_not_change_the_result(self, tmp_path):
        # read_ppm and read_sample give a transposed view; the image mean
        # sums in memory order, so augment must give the bits of a C-ordered
        # copy. The two summation orders round the mean differently for
        # some jitter draws only, hence several streams.
        s, ppm, pgm = _write_scene(tmp_path, 2)
        image = read_ppm(ppm)
        stored = read_sample(ppm, pgm)
        assert not image.flags.c_contiguous and not stored.image.flags.c_contiguous
        contiguous = np.ascontiguousarray(image)
        for seed in range(8):
            a = augment(SceneSample(image, s.depth), Rng(seed))
            b = augment(SceneSample(contiguous, s.depth), Rng(seed))
            c = augment(stored, Rng(seed))
            np.testing.assert_array_equal(a.image, b.image, err_msg=f"stream {seed}")
            np.testing.assert_array_equal(c.image, b.image, err_msg=f"stream {seed}")
            np.testing.assert_array_equal(a.depth, b.depth)
            np.testing.assert_array_equal(c.depth, read_pgm16(pgm)[0])
