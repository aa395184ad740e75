"""Deterministic synthetic scene generation with dense ground-truth depth,
on-the-fly augmentation, and bit-exact PPM/PGM on-disk formats.

A scene is a background plane whose depth ramps linearly top to bottom plus
a few constant-depth rectangles and ellipses composited nearest-first.
Image intensity is per-surface albedo shaded by inverse depth (plus a small
seeded noise), so depth is inferable from appearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gradcore import Rng, derive_seed
from .sid import DepthRange

__all__ = [
    "NetpbmError",
    "MalformedHeaderError",
    "TruncatedPayloadError",
    "MissingScaleError",
    "SceneSpec",
    "SceneObject",
    "SceneSample",
    "generate_scene",
    "render_objects",
    "augment",
    "apply_augment",
    "write_ppm",
    "read_ppm",
    "write_pgm16",
    "read_pgm16",
    "write_sample",
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
    """Everything that determines a dataset; (seed, index) fixes one sample."""

    seed: int
    height: int
    width: int
    depth_range: DepthRange
    min_objects: int = 2
    max_objects: int = 5
    noise: float = 0.02

    def __post_init__(self):
        if self.height % 16 != 0 or self.width % 16 != 0:
            raise ValueError(f"scene size ({self.height}x{self.width}) must be multiples of 16")
        if self.min_objects < 0 or self.max_objects < self.min_objects:
            raise ValueError("need 0 <= min_objects <= max_objects")


_SHAPES = ("rect", "ellipse")


@dataclass(frozen=True)
class SceneObject:
    kind: str  # "rect" or "ellipse"
    cy: float
    cx: float
    ry: float
    rx: float
    depth: float
    albedo: tuple[float, float, float]


@dataclass
class SceneSample:
    """Image in [0,1], metric depth in [alpha, beta], validity mask (all 1
    for synthetic data). Shapes (3,H,W) and (1,H,W)."""

    image: np.ndarray
    depth: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.mask is None:
            self.mask = np.ones_like(self.depth)


def render_objects(depth: np.ndarray, albedo: np.ndarray, objects) -> None:
    """Composite constant-depth objects into (1,H,W) depth and (3,H,W) albedo
    maps in place; at overlaps the nearest surface wins."""
    _, h, w = depth.shape
    ys = np.arange(h).reshape(h, 1)
    xs = np.arange(w).reshape(1, w)
    for obj in objects:
        if obj.kind == "rect":
            hit = (np.abs(ys - obj.cy) <= obj.ry) & (np.abs(xs - obj.cx) <= obj.rx)
        elif obj.kind == "ellipse":
            hit = ((ys - obj.cy) / obj.ry) ** 2 + ((xs - obj.cx) / obj.rx) ** 2 <= 1.0
        else:
            raise ValueError(f"unknown shape kind {obj.kind!r}")
        visible = hit & (obj.depth < depth[0])
        depth[0][visible] = obj.depth
        for ch in range(3):
            albedo[ch][visible] = obj.albedo[ch]


def generate_scene(spec: SceneSpec, index: int) -> SceneSample:
    """Deterministic in (spec.seed, index); every depth lies in [alpha, beta]
    and every image value in [0, 1]."""
    rng = Rng(derive_seed(spec.seed, "scene", index))
    h, w = spec.height, spec.width
    alpha, beta = spec.depth_range.alpha, spec.depth_range.beta

    rows = alpha + (beta - alpha) * (np.arange(h) / max(h - 1, 1))
    depth = np.broadcast_to(rows.reshape(1, h, 1), (1, h, w)).copy()

    base = rng.uniform(0.55, 0.85)
    bg_albedo = np.array([min(max(base + rng.uniform(-0.05, 0.05), 0.0), 1.0)
                          for _ in range(3)])
    albedo = np.broadcast_to(bg_albedo.reshape(3, 1, 1), (3, h, w)).copy()

    objects = []
    for _ in range(rng.randint(spec.min_objects, spec.max_objects)):
        kind = _SHAPES[rng.randint(0, len(_SHAPES) - 1)]
        cy = rng.uniform(0, h - 1)
        cx = rng.uniform(0, w - 1)
        ry = rng.uniform(h / 10.0, h / 3.0)
        rx = rng.uniform(w / 10.0, w / 3.0)
        d = rng.uniform(alpha, beta)
        alb = tuple(rng.uniform(0.45, 0.95) for _ in range(3))
        objects.append(SceneObject(kind, cy, cx, ry, rx, d, alb))
    render_objects(depth, albedo, objects)

    shade = alpha / depth  # in (alpha/beta, 1]
    noise = rng.fill_uniform((3, h, w), -spec.noise, spec.noise)
    image = np.clip(albedo * shade + noise, 0.0, 1.0)
    return SceneSample(image=image, depth=depth)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


def apply_augment(
    sample: SceneSample,
    row0: int,
    col0: int,
    crop_h: int,
    crop_w: int,
    brightness: float,
    contrast: float,
    color: tuple[float, float, float],
) -> SceneSample:
    """Crop then photometric ops; identity parameters return the sample
    values unchanged. Depth and mask are only ever cropped."""
    _, h, w = sample.image.shape
    if crop_h > h or crop_w > w:
        raise ValueError(f"crop ({crop_h}x{crop_w}) larger than image ({h}x{w})")
    sl = np.s_[row0:row0 + crop_h, col0:col0 + crop_w]
    img = sample.image[:, sl[0], sl[1]].copy()
    img *= brightness
    mean = img.mean()
    img = mean + (img - mean) * contrast
    img *= np.asarray(color).reshape(3, 1, 1)
    return SceneSample(
        image=np.clip(img, 0.0, 1.0),
        depth=sample.depth[:, sl[0], sl[1]].copy(),
        mask=sample.mask[:, sl[0], sl[1]].copy(),
    )


def augment(sample: SceneSample, rng: Rng, crop_h: int | None = None, crop_w: int | None = None) -> SceneSample:
    """Random crop plus brightness in [0.8,1.25], contrast in [0.9,1.1] and
    per-channel color shift in [0.95,1.05]."""
    _, h, w = sample.image.shape
    ch = h if crop_h is None else crop_h
    cw = w if crop_w is None else crop_w
    if ch > h or cw > w:
        raise ValueError(f"crop ({ch}x{cw}) larger than image ({h}x{w})")
    row0 = rng.randint(0, h - ch)
    col0 = rng.randint(0, w - cw)
    brightness = rng.uniform(0.8, 1.25)
    contrast = rng.uniform(0.9, 1.1)
    color = tuple(rng.uniform(0.95, 1.05) for _ in range(3))
    return apply_augment(sample, row0, col0, ch, cw, brightness, contrast, color)


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


class _HeaderReader:
    """Tokenizer for netpbm headers; collects '#' comment lines."""

    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path
        self.comments: list[str] = []

    def token(self) -> str:
        buf, n = self.buf, len(self.buf)
        while self.pos < n:
            ch = buf[self.pos:self.pos + 1]
            if ch == b"#":
                end = buf.find(b"\n", self.pos)
                if end < 0:
                    raise MalformedHeaderError(f"{self.path}: unterminated comment")
                self.comments.append(buf[self.pos + 1:end].decode("ascii", "replace").strip())
                self.pos = end + 1
            elif ch.isspace():
                self.pos += 1
            else:
                break
        start = self.pos
        while self.pos < n and not buf[self.pos:self.pos + 1].isspace():
            self.pos += 1
        if start == self.pos:
            raise MalformedHeaderError(f"{self.path}: truncated header")
        return buf[start:self.pos].decode("ascii", "replace")

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise MalformedHeaderError(f"{self.path}: bad {what} {tok!r}") from None

    def payload(self, nbytes: int) -> bytes:
        # exactly one whitespace byte separates maxval from the raster
        self.pos += 1
        data = self.buf[self.pos:self.pos + nbytes]
        if len(data) != nbytes:
            raise TruncatedPayloadError(
                f"{self.path}: payload has {len(data)} of {nbytes} bytes"
            )
        if self.pos + nbytes != len(self.buf):
            raise MalformedHeaderError(f"{self.path}: trailing bytes after raster")
        return data


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    r = _HeaderReader(buf, path)
    magic = r.token()
    if magic != "P6":
        raise MalformedHeaderError(f"{path}: expected P6, got {magic!r}")
    w = r.int_token("width")
    h = r.int_token("height")
    maxval = r.int_token("maxval")
    if maxval != 255:
        raise MalformedHeaderError(f"{path}: unsupported maxval {maxval}")
    raw = np.frombuffer(r.payload(3 * h * w), dtype=np.uint8)
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def read_pgm16(path) -> tuple[np.ndarray, float]:
    """Returns ((1,H,W) values in meters, scale)."""
    with open(path, "rb") as f:
        buf = f.read()
    r = _HeaderReader(buf, path)
    magic = r.token()
    if magic != "P5":
        raise MalformedHeaderError(f"{path}: expected P5, got {magic!r}")
    w = r.int_token("width")
    h = r.int_token("height")
    maxval = r.int_token("maxval")
    if maxval != 65535:
        raise MalformedHeaderError(f"{path}: unsupported maxval {maxval}")
    scale = None
    for comment in r.comments:
        parts = comment.split()
        if len(parts) == 2 and parts[0] == "scale":
            try:
                scale = float(parts[1])
            except ValueError:
                raise MalformedHeaderError(f"{path}: bad scale {parts[1]!r}") from None
    if scale is None:
        raise MissingScaleError(f"{path}: no '# scale <s>' comment")
    raw = np.frombuffer(r.payload(2 * h * w), dtype=">u2")
    return raw.reshape(1, h, w).astype(np.float64) * scale, scale


def write_sample(image_path, depth_path, sample: SceneSample, depth_range: DepthRange) -> None:
    write_ppm(image_path, sample.image)
    write_pgm16(depth_path, sample.depth, depth_range.beta / 65535.0)


def read_sample(image_path, depth_path) -> SceneSample:
    image = read_ppm(image_path)
    depth, _ = read_pgm16(depth_path)
    return SceneSample(image=image, depth=depth)


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
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
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
        write_sample(out / img_name, out / dep_name, sample, spec.depth_range)
        pairs.append((img_name, dep_name))
    manifest = out / "manifest.txt"
    write_manifest(manifest, pairs)
    return manifest
