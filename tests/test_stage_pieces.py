"""Every stage the library runs through ``stages/taskpool.py::stage_fn`` is
cut into pieces by ``_apply_stage``, and Ray hands it whatever blocks the
read made. So a stage must give the same rows, bit for bit and with the
same output types, whatever the pieces: ``in_pieces(stage, t, k)`` equals
``stage(t)`` for k = 1, 37 and the whole table. And the piece size is
decided in one place: no ``map_batches`` under ``jschon_ray/`` sets a
``batch_size`` except where it sets semantics, not a working set."""

import ast
import functools
import math
import pathlib

import pyarrow as pa
import pytest

from jschon_ray.sources.clips import generate_clips
from jschon_ray.stages.analysis import (AudioChunker, AudioQC,
                                        ChromaFeatures, Compressor,
                                        OnsetTempo, PitchShifter,
                                        R128LoudnessNormalizer,
                                        SilenceTrimmer, TimeStretcher,
                                        WavWriter)
from jschon_ray.stages.audio_ops import (MFCC, AudioAugmenter,
                                         AudioResampler, LoudnessNormalizer,
                                         MelSpectrogram, NoiseReducer,
                                         SegmentExtractor, SpecAugment,
                                         VADSegments)
from jschon_ray.stages.decode import ClipDecoder
from jschon_ray.stages.features import AudioFeatures, PitchEstimator
from jschon_ray.stages.fingerprint import AudioFingerprinter
from jschon_ray.stages.media import (FrameSampler, ImageDecoder,
                                     ImageResizer, synth_image_table,
                                     synth_video_table)
from jschon_ray.stages.taskpool import in_pieces

PKG = pathlib.Path(__file__).resolve().parents[1] / "jschon_ray"


@functools.cache
def table(name: str) -> pa.Table:
    """Stage inputs: the dirty clips table, and what the stages upstream of
    a stage make of it in the library's chains."""
    if name == "clips":
        return generate_clips(300, dirty=True)
    if name == "resampled":
        return AudioResampler(target_sr=16000)(table("clips"))
    if name == "vad":
        return VADSegments()(table("resampled"))
    if name == "segments":
        t = SegmentExtractor()(table("vad"))
        return t.append_column("codec", pa.array(["pcm_s16le"] * t.num_rows))
    if name == "mel_frames":
        return MelSpectrogram(sr=16000, frame_len=512, n_mels=40,
                              emit="frames")(table("resampled"))
    if name == "images":
        return synth_image_table(300, compressed_every=8)
    if name == "video":
        return synth_video_table(40, frames=24)
    raise KeyError(name)


# (stage, input table), one per stage class, with the library's arguments
CASES = {
    "AudioResampler": (lambda: AudioResampler(target_sr=16000), "clips"),
    "VADSegments": (VADSegments, "resampled"),
    "SegmentExtractor": (SegmentExtractor, "vad"),
    "MelSpectrogram": (lambda: MelSpectrogram(sr=16000), "resampled"),
    "MFCC": (lambda: MFCC(n_mels=40, n_mfcc=13), "mel_frames"),
    "NoiseReducer": (NoiseReducer, "resampled"),
    "SpecAugment": (lambda: SpecAugment(variants=2), "mel_frames"),
    "LoudnessNormalizer": (LoudnessNormalizer, "segments"),
    "AudioAugmenter": (lambda: AudioAugmenter(variants=2), "segments"),
    "AudioQC": (AudioQC, "clips"),
    "ChromaFeatures": (lambda: ChromaFeatures(sr=16000), "resampled"),
    "OnsetTempo": (lambda: OnsetTempo(sr=16000), "resampled"),
    "TimeStretcher": (lambda: TimeStretcher(rate=1.25), "clips"),
    "AudioChunker": (lambda: AudioChunker(chunk_ms=100, hop_ms=50),
                     "clips"),
    "SilenceTrimmer": (SilenceTrimmer, "clips"),
    "Compressor": (lambda: Compressor(threshold_db=-15.0, ratio=4.0),
                   "clips"),
    "WavWriter": (WavWriter, "clips"),
    "PitchShifter": (lambda: PitchShifter(semitones=2.0), "clips"),
    "R128LoudnessNormalizer": (R128LoudnessNormalizer, "clips"),
    "AudioFeatures": (AudioFeatures, "clips"),
    "PitchEstimator": (PitchEstimator, "clips"),
    "AudioFingerprinter": (AudioFingerprinter, "clips"),
    "ClipDecoder": (ClipDecoder, "clips"),
    "ImageDecoder": (ImageDecoder, "images"),
    "ImageResizer": (lambda: ImageResizer(8, 6), "images"),
    "FrameSampler": (lambda: FrameSampler(every_k=6), "video"),
}

# order-free: one landmark row per peak pair, grouped by fp_hash downstream
MULTISET = {"AudioFingerprinter"}


def _nan_aware(v):
    if isinstance(v, float) and math.isnan(v):
        return "NaN"
    if isinstance(v, list):
        return [_nan_aware(x) for x in v]
    if isinstance(v, dict):
        return {k: _nan_aware(x) for k, x in v.items()}
    return v


def _rows(t: pa.Table, multiset: bool):
    rows = _nan_aware(t.to_pylist())
    return sorted(rows, key=repr) if multiset else rows


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("rows", [1, 37, None])
def test_stage_output_is_independent_of_its_pieces(name, rows):
    make, source = CASES[name]
    stage, t = make(), table(source)
    whole = stage(t)
    got = in_pieces(stage, t, rows or t.num_rows)
    assert got.schema == whole.schema
    multiset = name in MULTISET
    assert _rows(got, multiset) == _rows(whole, multiset)


def _calls(attr_or_name: str):
    """(relative path, ast.Call) of every call to ``attr_or_name`` (a
    plain name or a method) under jschon_ray/."""
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name == attr_or_name:
                yield path.relative_to(PKG).as_posix(), node


def test_every_stage_fn_class_is_covered():
    used = {call.args[0].id for _, call in _calls("stage_fn")
            if call.args and isinstance(call.args[0], ast.Name)}
    assert used, "found no stage_fn call"
    assert used <= set(CASES), sorted(used - set(CASES))


# the only batch_size a map_batches may set: where the number is what the
# step means, not a kernel working set
SEMANTIC_BATCH_SIZES = {
    ("pipelines/stats.py", "_merge_profile_blobs"):
        "each merge task folds up to 64 profile blobs into one",
    ("sources/io.py", "load"): "one ORC/Feather file per read task",
}


def test_no_stage_sets_a_batch_size():
    found = set()
    for path, call in _calls("map_batches"):
        if any(k.arg == "batch_size" for k in call.keywords):
            fn = call.args[0] if call.args else None
            found.add((path, getattr(fn, "id", ast.dump(fn) if fn else "")))
    assert found == set(SEMANTIC_BATCH_SIZES), sorted(found)
