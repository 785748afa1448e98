"""Dataset model: clip assembly from frame streams and infraction logs,
collision-position augmentation, synthetic desk-scale generation, and the
two-stage captioning pipeline with a pluggable summarizer client.

Clips are 10-second windows of 40 frames sampled at 4 Hz.  Assembly places
each collision uniformly inside the [2.5 s, 7.5 s] band of its clip (frames
10..30); position augmentation re-crops copies with the collision anywhere
in the [0.1, 0.9] band (frames 4..36).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, NamedTuple, Protocol, Sequence, Tuple

import numpy as np

from .errors import (LINES_BUFFER, EmptyInputError, SummarizerError,
                     SummarizerReplyError, ValidationError, json_int, json_lines,
                     json_str, replace_on_success)
from .mil import DEFAULT_SNIPPET_LEN

CLIP_FRAMES = 40
FRAME_HZ = 4.0
INFRACTION_TYPES = ("vehicle", "pedestrian", "layout")

# Collision placement band for assembly: [2.5 s, 7.5 s] at 4 Hz.
ASSEMBLY_MIN_FRAME = 10
ASSEMBLY_MAX_FRAME = 30
# Placement band for augmentation: [0.1, 0.9] of the clip length.
AUGMENT_MIN_FRAME = 4
AUGMENT_MAX_FRAME = 36
# Negative mining keeps a guard band of frames around every infraction.
NEGATIVE_GUARD_FRAMES = 40
_SYNTH_SLOTS = CLIP_FRAMES // DEFAULT_SNIPPET_LEN  # one snippet per synthetic slot

SPLITS = ("train", "test")
SOURCES = ("assembled", "augmented", "synthetic", "external")


@dataclass
class InfractionLog:
    """One simulator infraction entry."""

    frame_number: int
    infraction_type: str
    message: str
    scenario_type: str

    def __post_init__(self):
        if self.frame_number < 0:
            raise ValidationError("infraction frame_number must be >= 0")
        if self.infraction_type not in INFRACTION_TYPES:
            raise ValidationError(
                f"infraction type {self.infraction_type!r} not in {INFRACTION_TYPES}")

    @classmethod
    def from_json(cls, obj) -> "InfractionLog":
        return cls(frame_number=json_int(obj["frame_number"], "infraction frame_number"),
                   infraction_type=json_str(obj["type"], "infraction type"),
                   message=json_str(obj["message"], "infraction message"),
                   scenario_type=json_str(obj["scenario"], "infraction scenario"))


class InlineFrames(NamedTuple):
    """A manifest's inline ``{shape, dtype, b64}`` frame matrix, still
    base64: ``ClipRecord.feature_matrix`` decodes and checks it on first
    use, so a clip scored from an embedding cache is never decoded."""

    shape: tuple  # (F, dim), checked by validate_record
    b64: str
    where: str | None  # "{path}: manifest line N", for a deferred error


@dataclass
class ClipRecord:
    """One clip: features, caption, label, and collision metadata.

    A clip read from a manifest with inline frames holds them in ``inline``
    until ``feature_matrix`` decodes them into ``features``.
    ``source_stream``/``source_start`` point back into the stream a clip was
    cropped from; they enable position augmentation and are never serialized.
    """

    clip_id: str
    features: np.ndarray | None = None  # (F, feat) float32
    frames_path: str | None = None
    caption: str = ""
    label: int = 0
    collision_frame: int | None = None
    infraction: InfractionLog | None = None
    split: str = "train"
    source: str = "synthetic"
    event_window: Tuple[int, int] | None = None  # [start, end) snippet indices
    source_stream: np.ndarray | None = field(default=None, repr=False)
    source_start: int | None = field(default=None, repr=False)
    inline: InlineFrames | None = field(default=None, repr=False)

    frame_hz = FRAME_HZ

    def __post_init__(self):
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float32)
        validate_record(self)

    @property
    def name(self) -> str:
        """The words that name the clip in an error about its frames: with
        its manifest line while they are inline, else with its frames file
        if it has one."""
        if self.inline is not None and self.inline.where is not None:
            return f"{self.inline.where}: clip {self.clip_id}"
        if self.frames_path is not None:
            return f"clip {self.clip_id}: frames file {self.frames_path}"
        return f"clip {self.clip_id}"

    def feature_matrix(self) -> np.ndarray:
        """The (F, feat) frames.  Inline frames are decoded and checked on the
        first call and kept; a frames file is loaded and checked on every
        call.  Errors start with the clip's ``name``."""
        if self.features is not None:
            return self.features
        try:
            if self.inline is not None:
                shape, raw = self.inline.shape, base64.b64decode(self.inline.b64)
                feats = np.frombuffer(raw, "<f4").reshape(shape).astype(np.float32)
            else:
                # mapped, not read: a header that claims more data than the
                # file holds is a ValueError, not an allocation of that size
                loaded = np.load(self.frames_path, mmap_mode="r")
                if not isinstance(loaded, np.ndarray):
                    loaded.close()
                    raise TypeError("an .npz archive, not one .npy array")
                feats = np.array(loaded, dtype=np.float32)
        except (TypeError, ValueError, EOFError, OSError) as exc:  # binascii.Error too
            raise ValidationError(f"{self.name}: {exc}") from None
        _check_frames(feats, self.name)
        if self.inline is not None:
            self.features, self.inline = feats, None
        return feats


def _check_frames(feats: np.ndarray, what: str) -> None:
    """The rules every frame matrix meets: 2-D, at least one frame, finite."""
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValidationError(
            f"{what}: features must be (F, dim) with F >= 1, got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise ValidationError(f"{what}: non-finite features")


def _check_inline(inline: InlineFrames, what: str) -> None:
    """What an inline matrix meets before it is decoded: a shape of two
    integers F, dim >= 1, and base64 that can hold F·dim floats, so no shape
    promises more frames than its manifest line carries."""
    shape = inline.shape
    if not (len(shape) == 2 and json_int(shape[0], "inline frames shape") >= 1
            and json_int(shape[1], "inline frames shape") >= 1):
        raise ValidationError(f"{what}: inline frames shape must be [F, dim] "
                              f"with F, dim >= 1, got {list(shape)}")
    need, most = 4 * shape[0] * shape[1], len(inline.b64) // 4 * 3
    if need > most:
        raise ValidationError(f"{what}: inline frames of shape {list(shape)} need "
                              f"{need} bytes, but their b64 holds at most {most}")


def validate_record(rec: ClipRecord) -> None:
    """Re-checkable schema invariants; also re-run on every manifest write."""
    if not json_str(rec.clip_id, "clip_id"):
        raise ValidationError("clip_id must be a non-empty string")
    json_str(rec.caption, "caption")
    if rec.label not in (0, 1):
        raise ValidationError(f"label must be 0 or 1, got {rec.label}")
    if (rec.label == 1) != (rec.collision_frame is not None):
        raise ValidationError(
            f"clip {rec.clip_id}: label 1 iff collision_frame present")
    if rec.split not in SPLITS:
        raise ValidationError(f"split {rec.split!r} not in {SPLITS}")
    if rec.source not in SOURCES:
        raise ValidationError(f"source {rec.source!r} not in {SOURCES}")
    if rec.features is None and rec.frames_path is None and rec.inline is None:
        raise ValidationError(f"clip {rec.clip_id} needs features or a frames path")
    n = float("inf")  # the frame count, unknown until a frames file is read
    if rec.features is not None:
        _check_frames(rec.features, f"clip {rec.clip_id}")
        n = rec.features.shape[0]
    elif rec.inline is not None:
        _check_inline(rec.inline, f"clip {rec.clip_id}")
        n = rec.inline.shape[0]
    if (n != float("inf") and n != CLIP_FRAMES
            and rec.source in ("assembled", "augmented", "synthetic")):
        raise ValidationError(
            f"clip {rec.clip_id}: expected {CLIP_FRAMES} frames, got {n}")
    if rec.collision_frame is not None:
        if not 0 <= rec.collision_frame < n:
            raise ValidationError(f"clip {rec.clip_id}: collision_frame out of range")
        if rec.source == "assembled" and not (
                ASSEMBLY_MIN_FRAME <= rec.collision_frame <= ASSEMBLY_MAX_FRAME):
            raise ValidationError(
                f"clip {rec.clip_id}: assembled collision frame "
                f"{rec.collision_frame} outside [{ASSEMBLY_MIN_FRAME}, "
                f"{ASSEMBLY_MAX_FRAME}]")
        if rec.source == "augmented" and not (
                AUGMENT_MIN_FRAME <= rec.collision_frame <= AUGMENT_MAX_FRAME):
            raise ValidationError(
                f"clip {rec.clip_id}: augmented collision frame out of band")
    if rec.event_window is not None:
        s, e = rec.event_window
        if not (0 <= s < e):
            raise ValidationError(f"clip {rec.clip_id}: bad event window {rec.event_window}")


def _positive_crop(stream: np.ndarray, frame: int, band_lo: int, band_hi: int,
                   rng: np.random.Generator, **fields) -> ClipRecord | None:
    """The positive clip of ``fields`` cropped from ``stream`` so that the
    collision at stream ``frame`` lands on a clip index drawn uniformly from
    [band_lo, band_hi], clamped to the crops that fit the stream.  None,
    drawing nothing, when no index fits."""
    lo = max(band_lo, frame + CLIP_FRAMES - stream.shape[0])
    hi = min(band_hi, frame)
    if lo > hi:
        return None
    k = int(rng.integers(lo, hi + 1))
    start = frame - k
    return ClipRecord(features=stream[start:start + CLIP_FRAMES].copy(), label=1,
                      collision_frame=k, source_stream=stream, source_start=start,
                      **fields)


class AssemblyResult(NamedTuple):
    clips: List[ClipRecord]
    skipped: List[str]


def assemble_clips(stream: np.ndarray, logs: Sequence[InfractionLog], seed: int = 0,
                   stream_id: str = "stream") -> AssemblyResult:
    """Cut a 4 Hz frame-feature stream into labeled 40-frame clips.

    One positive clip per infraction, its collision frame placed uniformly in
    [2.5 s, 7.5 s]; infractions too close to the stream edges to admit any
    legal placement are skipped with a report.  The frames left over outside
    a guard band around every infraction are tiled into negative clips.
    """
    stream = np.asarray(stream, dtype=np.float32)
    if stream.ndim != 2:
        raise ValidationError("stream must be a (frames, features) matrix")
    total = stream.shape[0]
    rng = np.random.default_rng(seed)
    clips: List[ClipRecord] = []
    skipped: List[str] = []

    for i, log in enumerate(sorted(logs, key=lambda l: l.frame_number)):
        if log.frame_number >= total:
            raise ValidationError(
                f"infraction at frame {log.frame_number} beyond stream end {total}")
        clip = _positive_crop(stream, log.frame_number, ASSEMBLY_MIN_FRAME,
                              ASSEMBLY_MAX_FRAME, rng, clip_id=f"{stream_id}-pos{i:04d}",
                              infraction=log, source="assembled")
        if clip is None:
            skipped.append(
                f"infraction at frame {log.frame_number}: no legal placement "
                f"inside [{ASSEMBLY_MIN_FRAME}, {ASSEMBLY_MAX_FRAME}]")
            continue
        clips.append(clip)

    # Guard zones around infractions, in order; each stretch of frames before
    # a zone that no earlier zone covers is tiled into negatives.
    zones = sorted((max(0, l.frame_number - NEGATIVE_GUARD_FRAMES),
                    min(total, l.frame_number + NEGATIVE_GUARD_FRAMES + 1))
                   for l in logs)
    starts, prev = [], 0
    for a, b in zones + [(total, total)]:
        starts.extend(range(prev, a - CLIP_FRAMES + 1, CLIP_FRAMES))
        prev = max(prev, b)
    clips.extend(ClipRecord(
        clip_id=f"{stream_id}-neg{j:04d}",
        features=stream[s:s + CLIP_FRAMES].copy(),
        label=0, source="assembled", source_stream=stream, source_start=s,
    ) for j, s in enumerate(starts))
    return AssemblyResult(clips, skipped)


def augment_collision_position(clip: ClipRecord, copies: int = 5,
                               seed: int = 0) -> List[ClipRecord]:
    """Re-crop a positive clip so the collision lands anywhere in [0.1, 0.9].

    Each copy draws a new collision index uniformly from the feasible part of
    [4, 36] and re-cuts the clip from the source stream; ids get a
    deterministic ``#augN`` suffix.
    """
    if clip.label != 1 or clip.collision_frame is None:
        raise ValidationError("position augmentation requires a positive clip")
    if copies < 0:
        raise ValidationError("copies must be >= 0")
    if copies == 0:
        return []
    if clip.source_stream is None or clip.source_start is None:
        raise ValidationError(
            f"clip {clip.clip_id} has no re-croppable source stream")
    import hashlib  # here, so only an augmentation loads OpenSSL
    id_hash = int.from_bytes(
        hashlib.sha256(clip.clip_id.encode("utf-8")).digest()[:8], "little")
    rng = np.random.default_rng([seed, id_hash])
    out = []
    for j in range(copies):
        copy = _positive_crop(
            clip.source_stream, clip.source_start + clip.collision_frame,
            AUGMENT_MIN_FRAME, AUGMENT_MAX_FRAME, rng,
            clip_id=f"{clip.clip_id}#aug{j}", caption=clip.caption,
            infraction=clip.infraction, split=clip.split, source="augmented")
        if copy is None:
            raise ValidationError(
                f"clip {clip.clip_id}: source stream too short to re-crop")
        out.append(copy)
    return out


# Caption template pools for the synthetic generator.  Kept disjoint so the
# text modality carries signal.
COLLISION_CAPTIONS = (
    "a vehicle collides with a pedestrian crossing the road",
    "the ego car crashes into a slowing vehicle ahead",
    "a sudden impact with a static obstacle at the roadside",
    "the car hits a crossing cyclist while turning",
    "another vehicle cuts in sharply and a collision occurs",
)
NORMAL_CAPTIONS = (
    "the car drives steadily along its lane",
    "the vehicle cruises through light traffic without incident",
    "the ego car waits at a red light and then proceeds",
    "a smooth drive past parked cars on a clear road",
    "the car follows the road through a quiet intersection",
)


@dataclass
class SynthConfig:
    """Configuration of the synthetic feature-level dataset."""

    n_normal: int
    n_collision: int
    feature_dim: int = 32
    separation: float = 4.0  # mean shift of event-window snippet features
    event_len: int = 1  # event window length, in snippets
    seed: int = 0

    def __post_init__(self):
        if self.n_normal < 0 or self.n_collision < 0:
            raise ValidationError("record counts must be >= 0")
        if self.separation < 0:
            raise ValidationError("separation must be >= 0")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be >= 1")
        if not (1 <= self.event_len <= _SYNTH_SLOTS):
            raise ValidationError("event_len must fit inside the clip")


def generate_synthetic_dataset(cfg: SynthConfig, split: str = "train") -> List[ClipRecord]:
    """Pure function of (config, split): byte-identical records per seed.

    Each of the clip's snippet slots draws one standard-normal feature vector
    that is tiled across the slot's frames, so a snippet-level mean pool
    recovers exactly the drawn vector.  Collision clips shift the vectors of
    a uniformly placed event window by ``separation`` along a fixed seeded
    unit direction; the window is recorded for localization checks.
    """
    rng = np.random.default_rng([cfg.seed, 9001])
    direction = rng.standard_normal(cfg.feature_dim)
    direction /= np.linalg.norm(direction)
    records: List[ClipRecord] = []

    def draw_clip(positive: bool, idx: int) -> ClipRecord:
        slot_feats = rng.standard_normal((_SYNTH_SLOTS, cfg.feature_dim))
        window = None
        collision_frame = None
        if positive:
            start = int(rng.integers(0, _SYNTH_SLOTS - cfg.event_len + 1))
            window = (start, start + cfg.event_len)
            slot_feats[start:window[1]] += cfg.separation * direction
            collision_frame = start * DEFAULT_SNIPPET_LEN + DEFAULT_SNIPPET_LEN // 2
        pool = COLLISION_CAPTIONS if positive else NORMAL_CAPTIONS
        caption = pool[int(rng.integers(0, len(pool)))]
        frames = np.repeat(slot_feats, DEFAULT_SNIPPET_LEN, axis=0)
        tag = "c" if positive else "n"
        return ClipRecord(
            clip_id=f"synth-{split}-{tag}{idx:05d}",
            features=frames.astype(np.float32),
            caption=caption,
            label=int(positive),
            collision_frame=collision_frame,
            split=split,
            source="synthetic",
            event_window=window,
        )

    for i in range(cfg.n_normal):
        records.append(draw_clip(False, i))
    for i in range(cfg.n_collision):
        records.append(draw_clip(True, i))
    return records


# --- Captioning -----------------------------------------------------------

SUMMARIZE_PROMPT = (
    "Summarize the following text:\n{input_text}\n"
    "Only output the summarized message with nothing before it."
)
PARAPHRASE_PROMPT = (
    "Paraphrase the following text while keeping the original meaning:\n"
    "{input_text}\n"
    "Only output the paraphrased message with nothing before it. "
    "The word drive must be in your response."
)
DEFAULT_SUMMARIZER_MODELS = ("llama3.2:3b", "gemma2:2b")
SUMMARIZER_URL_ENV = "VLAAD_SUMMARIZER_URL"
_RETRY_ATTEMPTS = 3


class SummarizerClient(Protocol):
    def generate(self, prompt: str, model: str) -> str: ...


class StubSummarizerClient:
    """Deterministic offline stand-in: echoes the first sentence of the
    prompt payload.  Keeps real LLM calls off the test path."""

    def generate(self, prompt: str, model: str) -> str:
        lines = prompt.splitlines()
        payload = " ".join(
            l for l in lines[1:] if not l.startswith("Only output")).strip()
        if ". " in payload:
            return payload.split(". ", 1)[0].strip() + "."
        return payload


class HttpSummarizerClient:
    """Minimal text-generation HTTP client (ollama-style JSON wire).

    POSTs {"model", "prompt", "stream": false} and reads {"response": ...}.
    """

    def __init__(self, url: str, timeout: float = 30.0):
        if not url:
            raise ValidationError(
                f"summarizer URL required (set {SUMMARIZER_URL_ENV})")
        self.url = url
        self.timeout = timeout

    def generate(self, prompt: str, model: str) -> str:
        import urllib.error  # here, so importing vlaad loads no HTTP stack
        import urllib.request

        body = json.dumps({"model": model, "prompt": prompt,
                           "stream": False}).encode("utf-8")
        req = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                reply = resp.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise SummarizerError(f"summarizer request failed: {exc}") from exc
        try:
            payload = json.loads(reply)
        except ValueError as exc:
            raise SummarizerReplyError(f"summarizer reply is not JSON: {exc}") from None
        if not isinstance(payload, dict) or "response" not in payload:
            raise SummarizerReplyError("summarizer reply missing 'response' field")
        return str(payload["response"])


def _generate_with_retry(client: SummarizerClient, prompt: str, model: str) -> str:
    """Call the client, retrying transport failures (timeouts, refused or
    failed requests) up to 3 attempts.

    A reply the client refuses (``SummarizerReplyError``) and an empty
    response are hard errors, never retried, and nothing partial is returned.
    """
    last: Exception | None = None
    for _ in range(_RETRY_ATTEMPTS):
        try:
            text = client.generate(prompt, model)
        except SummarizerReplyError:
            raise
        except (SummarizerError, OSError) as exc:  # TimeoutError is an OSError
            last = exc
            continue
        if not text or not text.strip():
            raise SummarizerError("summarizer returned an empty response")
        return text.strip()
    raise SummarizerError(
        f"summarizer unreachable after {_RETRY_ATTEMPTS} attempts: {last}")


def _pick_model(rng: np.random.Generator) -> str:
    models = DEFAULT_SUMMARIZER_MODELS
    return models[int(rng.integers(0, len(models)))]


def caption_collision_clip(log: InfractionLog, client: SummarizerClient,
                           rng: np.random.Generator) -> str:
    """Summarize one infraction log into a collision caption.

    The generation model is drawn from ``rng``, with equal probability from
    ``DEFAULT_SUMMARIZER_MODELS``, for every call.
    """
    input_text = f"{log.message} Scenario type: {log.scenario_type}."
    prompt = SUMMARIZE_PROMPT.format(input_text=input_text)
    return _generate_with_retry(client, prompt, _pick_model(rng))


class CaptionResult(NamedTuple):
    text: str
    warning: bool


def caption_normal_clip(frame_annotations: Sequence[str], client: SummarizerClient,
                        rng: np.random.Generator,
                        paraphrase: bool = False) -> CaptionResult:
    """Two-stage summary of per-frame annotations into one clip caption.

    Stage 1 summarizes each frame annotation individually; stage 2 summarizes
    the concatenation.  When ``paraphrase`` is set, the paraphrasing prompt is
    applied afterwards and its lexical constraint ("drive" must appear) is
    validated, with exactly one re-query; a caption that still violates the
    constraint is retained but flagged.
    """
    if not frame_annotations:
        raise EmptyInputError("at least one frame annotation required")
    stage1 = []
    for ann in frame_annotations:
        prompt = SUMMARIZE_PROMPT.format(input_text=ann)
        stage1.append(_generate_with_retry(client, prompt, _pick_model(rng)))
    prompt = SUMMARIZE_PROMPT.format(input_text="\n".join(stage1))
    caption = _generate_with_retry(client, prompt, _pick_model(rng))
    if not paraphrase:
        return CaptionResult(caption, False)
    for _ in range(2):  # one re-query on a constraint violation
        out = _generate_with_retry(
            client, PARAPHRASE_PROMPT.format(input_text=caption),
            _pick_model(rng))
        if "drive" in out.lower():
            return CaptionResult(out, False)
    return CaptionResult(out, True)


# --- Manifest serialization (JSON Lines) ----------------------------------

def _frames_to_json(rec: ClipRecord):
    if rec.frames_path is not None:
        return rec.frames_path
    feats = np.ascontiguousarray(rec.feature_matrix(), dtype="<f4")
    return {"shape": list(feats.shape), "dtype": "f32",
            "b64": base64.b64encode(feats.tobytes()).decode("ascii")}


def record_to_json(rec: ClipRecord) -> dict:
    validate_record(rec)
    out = {
        "clip_id": rec.clip_id,
        "frames": _frames_to_json(rec),
        "caption": rec.caption,
        "label": rec.label,
        "collision_frame": rec.collision_frame,
        "infraction": None if rec.infraction is None else {
            "frame_number": rec.infraction.frame_number,
            "type": rec.infraction.infraction_type,
            "message": rec.infraction.message,
            "scenario": rec.infraction.scenario_type,
        },
        "split": rec.split,
        "source": rec.source,
    }
    if rec.event_window is not None:
        out["event_window"] = list(rec.event_window)
    return out


def record_from_json(obj: dict, where: str | None = None) -> ClipRecord:
    """The clip of one manifest object.  Inline frames stay base64 until
    first used; ``where`` (file and line) goes into an error they raise then."""
    frames = obj["frames"]
    path = frames if isinstance(frames, str) else None
    inline = None if path is not None else InlineFrames(
        tuple(frames["shape"]), json_str(frames["b64"], "inline frames b64"), where)
    inf = obj.get("infraction")
    infraction = None if inf is None else InfractionLog.from_json(inf)
    collision, window = obj.get("collision_frame"), obj.get("event_window")
    return ClipRecord(
        clip_id=obj["clip_id"], frames_path=path, inline=inline,
        caption=obj.get("caption", ""), label=json_int(obj["label"], "label"),
        collision_frame=None if collision is None else json_int(collision, "collision_frame"),
        infraction=infraction,
        split=obj.get("split", "train"), source=obj.get("source", "external"),
        event_window=None if window is None else _json_window(window),
    )


def _json_window(value) -> Tuple[int, int]:
    """An ``event_window``: a list of exactly two integers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"event_window must be a list of two integers, got {value!r}")
    return json_int(value[0], "event_window"), json_int(value[1], "event_window")


def _unique(rec: ClipRecord, ids: set) -> ClipRecord:
    """``rec``, once its ``clip_id`` joins ``ids``: a manifest holds each once."""
    if rec.clip_id in ids:
        raise ValidationError(f"duplicate clip_id {rec.clip_id!r}")
    ids.add(rec.clip_id)
    return rec


def write_manifest(records: Iterable[ClipRecord], path) -> int:
    """Append-ordered JSONL manifest; every record is re-validated on write.
    The file replaces ``path`` only once every record is written."""
    ids = set()
    with replace_on_success(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(_unique(rec, ids)), separators=(",", ":"))
                     + "\n")
    return len(ids)


def iter_manifest(path) -> Iterator[ClipRecord]:
    """The manifest's clips, one line read per clip; every field is checked
    as its line is read, inline frames when first used.  A ``clip_id`` that
    an earlier line holds is an error naming the later line."""
    ids = set()
    with open(path, "rb", buffering=LINES_BUFFER) as fh:
        yield from json_lines(fh, path, "manifest", located=True, parse=lambda obj, where:
                              _unique(record_from_json(obj, where), ids))


def read_manifest(path) -> List[ClipRecord]:
    return list(iter_manifest(path))
