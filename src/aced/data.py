"""Deterministic synthetic scene generation with dense ground-truth depth,
on-the-fly augmentation, and bit-exact PPM/PGM on-disk formats. A sample
read from disk holds its file integers (5 bytes a pixel, not 32 as float64)
and decodes them on access.

A scene is a background plane whose depth ramps linearly top to bottom plus
a few constant-depth rectangles and ellipses composited nearest-first.
Image intensity is per-surface albedo shaded by inverse depth (plus a small
seeded noise), so depth is inferable from appearance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gradcore import Rng, derive_seed
from .sid import DEPTH_RANGE

__all__ = [
    "NetpbmError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "MissingScaleError",
    "SceneSpec",
    "SceneSample",
    "StoredSample",
    "generate_scene",
    "augment",
    "apply_augment",
    "write_ppm",
    "read_ppm",
    "write_pgm16",
    "read_pgm16",
    "read_sample",
    "write_manifest",
    "read_manifest",
    "generate_dataset",
]


class NetpbmError(Exception):
    """Base class for PPM/PGM format failures."""


class MalformedHeaderError(NetpbmError):
    pass


class TruncatedPayloadError(NetpbmError):
    pass


class MissingScaleError(NetpbmError):
    pass


@dataclass(frozen=True)
class SceneSpec:
    """Everything that determines a dataset; (seed, index) fixes one sample.
    Every depth lies in sid.DEPTH_RANGE."""

    seed: int
    height: int
    width: int


_SHAPES = ("rect", "ellipse")
_MIN_OBJECTS, _MAX_OBJECTS = 2, 5  # objects per scene, both inclusive
_NOISE = 0.02  # half-width of the uniform pixel noise


@dataclass
class SceneSample:
    """Image in [0,1] and metric depth in [alpha, beta], shapes (3,H,W) and
    (1,H,W), as float64 arrays; generate_scene and augment return one.
    Every pixel carries a valid depth."""

    image: np.ndarray
    depth: np.ndarray


def generate_scene(spec: SceneSpec, index: int) -> SceneSample:
    """Deterministic in (spec.seed, index); every depth lies in [alpha, beta]
    and every image value in [0, 1]."""
    rng = Rng(derive_seed(spec.seed, "scene", index))
    h, w = spec.height, spec.width
    alpha, beta = DEPTH_RANGE

    rows = alpha + (beta - alpha) * (np.arange(h) / max(h - 1, 1))
    depth = np.broadcast_to(rows.reshape(1, h, 1), (1, h, w)).copy()

    base = rng.uniform(0.55, 0.85)
    bg_albedo = np.array([min(max(base + rng.uniform(-0.05, 0.05), 0.0), 1.0)
                          for _ in range(3)])
    albedo = np.broadcast_to(bg_albedo.reshape(3, 1, 1), (3, h, w)).copy()

    # Constant-depth objects, each painted as soon as it is drawn; at
    # overlaps the nearest surface wins.
    ys = np.arange(h).reshape(h, 1)
    xs = np.arange(w).reshape(1, w)
    for _ in range(rng.randint(_MIN_OBJECTS, _MAX_OBJECTS)):
        kind = _SHAPES[rng.randint(0, len(_SHAPES) - 1)]
        cy = rng.uniform(0, h - 1)
        cx = rng.uniform(0, w - 1)
        ry = rng.uniform(h / 10.0, h / 3.0)
        rx = rng.uniform(w / 10.0, w / 3.0)
        d = rng.uniform(alpha, beta)
        if kind == "rect":
            hit = (np.abs(ys - cy) <= ry) & (np.abs(xs - cx) <= rx)
        else:
            hit = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        visible = hit & (d < depth[0])
        depth[0][visible] = d
        for ch in range(3):  # the object's albedo, the last of its draws
            albedo[ch][visible] = rng.uniform(0.45, 0.95)

    shade = alpha / depth  # in (alpha/beta, 1]
    noise = rng.fill_uniform((3, h, w), -_NOISE, _NOISE)
    image = np.clip(albedo * shade + noise, 0.0, 1.0)
    return SceneSample(image=image, depth=depth)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def apply_augment(
    sample: SceneSample | StoredSample,
    brightness: float,
    contrast: float,
    color: tuple[float, float, float],
) -> SceneSample:
    """Photometric ops on the image; identity parameters return the sample
    values (the image to within the rounding of the contrast step, which
    recentres on the mean). The depth is `sample.depth`, not a copy."""
    # A C-ordered copy: `img.mean()` sums in memory order, and a decoded PPM
    # is a transposed view, so the layout decides the mean's last bit.
    img = sample.image.copy()
    img *= brightness
    mean = img.mean()
    img = mean + (img - mean) * contrast
    img *= np.asarray(color).reshape(3, 1, 1)
    return SceneSample(image=np.clip(img, 0.0, 1.0), depth=sample.depth)


def augment(sample: SceneSample | StoredSample, rng: Rng) -> SceneSample:
    """Brightness in [0.8,1.25], contrast in [0.9,1.1] and per-channel
    color shift in [0.95,1.05], at the sample's full size."""
    # Skip the two stream positions that once drew a crop offset, so that
    # every seed keeps the same jitter and therefore the same checkpoint.
    rng.next_u64()
    rng.next_u64()
    brightness = rng.uniform(0.8, 1.25)
    contrast = rng.uniform(0.9, 1.1)
    color = tuple(rng.uniform(0.95, 1.05) for _ in range(3))
    return apply_augment(sample, brightness, contrast, color)


# ---------------------------------------------------------------------------
# Netpbm I/O. Images are binary PPM (P6, maxval 255); depth-like maps are
# binary 16-bit PGM (P5, maxval 65535, most significant byte first) carrying
# a "# scale <s>" comment with meters = raw * s.
# ---------------------------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"image must be (3,H,W), got {image.shape}")
    _, h, w = image.shape
    raw = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(raw.transpose(1, 2, 0).tobytes())


def write_pgm16(path, values: np.ndarray, scale: float) -> None:
    if values.ndim != 3 or values.shape[0] != 1:
        raise ValueError(f"values must be (1,H,W), got {values.shape}")
    _, h, w = values.shape
    raw = np.clip(np.rint(values[0] / scale), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n# scale {scale!r}\n{w} {h}\n65535\n".encode())
        f.write(raw.tobytes())


# Whitespace and '#' comment lines, then one header token: a run of bytes up
# to the next whitespace that does not start with '#'.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]\S*)?")
_COMMENT = re.compile(rb"#([^\n]*)\n")


def _read_netpbm(path, magic: str, maxval: int, sample: str, channels: int) -> tuple[np.ndarray, list[str]]:
    """((channels, H, W) raw samples, header comments) of a binary Netpbm
    file with the given magic and maxval; `sample` is the numpy dtype of
    one sample ('u1' or '>u2')."""
    with open(path, "rb") as f:
        buf = f.read()
    pos, fields = 0, []
    for what in ("magic", "width", "height", "maxval"):
        m = _HEADER_TOKEN.match(buf, pos)
        pos = m.end()
        if m[1] is None:
            problem = "unterminated comment" if buf.startswith(b"#", pos) else "truncated header"
            raise MalformedHeaderError(f"{path}: {problem}")
        tok = m[1].decode("ascii", "replace")
        if what == "magic":
            if tok != magic:
                raise MalformedHeaderError(f"{path}: expected {magic}, got {tok!r}")
            continue
        try:
            fields.append(int(tok))
        except ValueError:
            raise MalformedHeaderError(f"{path}: bad {what} {tok!r}") from None
    w, h, got = fields
    if got != maxval:
        raise MalformedHeaderError(f"{path}: unsupported maxval {got}")
    comments = [c.decode("ascii", "replace").strip() for c in _COMMENT.findall(buf, 0, pos)]
    dtype = np.dtype(sample)
    nbytes = channels * h * w * dtype.itemsize
    pos += 1  # exactly one whitespace byte separates maxval from the raster
    data = buf[pos:pos + nbytes]
    if len(data) != nbytes:
        raise TruncatedPayloadError(f"{path}: payload has {len(data)} of {nbytes} bytes")
    if pos + nbytes != len(buf):
        raise MalformedHeaderError(f"{path}: trailing bytes after raster")
    raw = np.frombuffer(data, dtype=dtype)
    return raw.reshape(h, w, channels).transpose(2, 0, 1), comments


def _decode_ppm(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / 255.0


def _decode_pgm16(raw: np.ndarray, scale: float) -> np.ndarray:
    return raw.astype(np.float64) * scale


def _raw_ppm(path) -> np.ndarray:
    return _read_netpbm(path, "P6", 255, "u1", 3)[0]


def _raw_pgm16(path) -> tuple[np.ndarray, float]:
    raw, comments = _read_netpbm(path, "P5", 65535, ">u2", 1)
    scale = None
    for comment in comments:
        parts = comment.split()
        if len(parts) == 2 and parts[0] == "scale":
            try:
                scale = float(parts[1])
            except ValueError:
                scale = np.nan
            if not 0.0 < scale < np.inf:  # false for NaN too
                raise MalformedHeaderError(f"{path}: bad scale {parts[1]!r}, "
                                           "need a finite positive number")
    if scale is None:
        raise MissingScaleError(f"{path}: no '# scale <s>' comment")
    return raw, scale


def read_ppm(path) -> np.ndarray:
    return _decode_ppm(_raw_ppm(path))


def read_pgm16(path) -> tuple[np.ndarray, float]:
    """Returns ((1,H,W) values in meters, scale); the scale must be finite
    and positive."""
    raw, scale = _raw_pgm16(path)
    return _decode_pgm16(raw, scale), scale


@dataclass(frozen=True, slots=True)
class StoredSample:
    """A pair as its files store it: (3,H,W) uint8 and (1,H,W) big-endian
    uint16 views, and the depth scale. `.image` and `.depth` decode on each
    access to the arrays read_ppm and read_pgm16 return."""

    rgb: np.ndarray
    depth_raw: np.ndarray
    scale: float

    @property
    def image(self) -> np.ndarray:
        return _decode_ppm(self.rgb)

    @property
    def depth(self) -> np.ndarray:
        return _decode_pgm16(self.depth_raw, self.scale)


def read_sample(image_path, depth_path) -> StoredSample:
    """The pair as its file integers; see StoredSample."""
    return StoredSample(_raw_ppm(image_path), *_raw_pgm16(depth_path))


# ---------------------------------------------------------------------------
# Dataset manifest: one "image_path<TAB>depth_path" pair per line, paths
# relative to the manifest location.
# ---------------------------------------------------------------------------


def write_manifest(path, pairs) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        for img, dep in pairs:
            f.write(f"{img}\t{dep}\n")


def read_manifest(path) -> list[tuple[Path, Path]]:
    base = Path(path).parent
    pairs = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.isascii():  # surrogateescape decodes a byte b above 0x7f to U+DC00 + b
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                raise ValueError(f"{path}:{lineno}: non-ASCII byte {byte:#04x}")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'image<TAB>depth'")
            pairs.append((base / parts[0], base / parts[1]))
    return pairs


def generate_dataset(spec: SceneSpec, count: int, out_dir) -> Path:
    """Write `count` samples plus a manifest; byte-identical per (spec, count)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(count):
        sample = generate_scene(spec, i)
        img_name = f"scene_{i:05d}.ppm"
        dep_name = f"scene_{i:05d}.pgm"
        write_ppm(out / img_name, sample.image)
        write_pgm16(out / dep_name, sample.depth, DEPTH_RANGE.beta / 65535.0)
        pairs.append((img_name, dep_name))
    manifest = out / "manifest.txt"
    write_manifest(manifest, pairs)
    return manifest
