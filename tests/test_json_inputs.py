"""Every JSON text input of the CLI reports malformed input one way: exit 2
and one ``error:`` line naming the file (or ``<stdin>``) and, for a line
format, the line.

The six formats are the manifest, run records, caption jobs, the stream
NDJSON on stdin, the train config and the Wilcoxon deltas.
"""

import contextlib
import io
import json
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlaad.cli import run
from vlaad.datakit import (ClipRecord, InfractionLog, SynthConfig,
                           generate_synthetic_dataset, write_manifest)
from vlaad.errors import ValidationError, json_lines
from vlaad.model import init_checkpoint, save_checkpoint


BEYOND_FLOAT = 10 ** 400  # a JSON integer that no float holds
BEYOND_INT = "1" + "0" * 5000  # a JSON integer too long for int() to read


def run_cli(argv, stdin=b""):
    """``cli.run`` with ``stdin`` (bytes) on standard input:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([str(a) for a in argv])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_exit_2(result, *parts):
    """Exit 2 with exactly one ``error:`` line holding every regex in ``parts``."""
    code, _, err = result
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for part in parts:
        assert re.search(part, err), err


def jsonl(*objs) -> bytes:
    return "".join(json.dumps(obj) + "\n" for obj in objs).encode()


def stream_line(tick, features=(0.5, -0.25, 1.0)):
    return {"tick": tick, "features": list(features)}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A directory holding a D=8 checkpoint and a manifest no command accepts."""
    root = tmp_path_factory.mktemp("json_inputs")
    save_checkpoint(root / "ckpt.bin", init_checkpoint(
        dim=8, hidden=4, seed=0, zero_first_layer=False))
    (root / "bad_manifest.jsonl").write_bytes(jsonl({"clip_id": "x"}))
    return root


def valid_inputs(root):
    """Each format's valid bytes and the argv that reads them from ``path``
    (the stream is read from stdin instead)."""
    manifest = root / "valid_manifest.jsonl"
    feats = np.random.default_rng(0).standard_normal((40, 2)).astype(np.float32)
    write_manifest([
        ClipRecord("c0", features=feats, caption="a car hits a wall", label=1,
                   collision_frame=20, source="external", event_window=(2, 3),
                   infraction=InfractionLog(20, "vehicle", "hit", "ControlLoss")),
        ClipRecord("c1", frames_path="c1.npy", caption="a calm drive", label=0,
                   split="test"),
    ], manifest)
    runs = jsonl(
        {"route_id": "r0", "km": 2.5, "route_completion": 80.0,
         "infractions": {"vehicle": 1, "pedestrian": 2},
         "coefficients": {"vehicle": 0.7, "pedestrian": 1.0}},
        {"route_id": "r1", "km": 1.0, "route_completion": 100.0, "infractions": {}})
    jobs = jsonl(
        {"type": "collision", "id": "j0",
         "log": {"frame_number": 12, "type": "pedestrian",
                 "message": "Agent hit a walker. Hard.", "scenario": "Crossing"}},
        {"type": "normal", "annotations": ["The car drives. Slowly.", "A turn."],
         "paraphrase": True})
    stream = jsonl(*(stream_line(t, (0.1 * t, -0.5, 1.0)) for t in range(7)))
    config = json.dumps({"epochs": 2, "learning_rate": 0.01, "mode": "mil",
                         "pos_weight": "auto", "zero_first_layer": False,
                         "gamma": 10}, indent=1).encode()
    deltas = json.dumps({"deltas": [1.5, -2.0, 3.0, 0.5, 4.0]}).encode()
    return {
        "manifest": (manifest.read_bytes(), lambda p: ["ingest", "--manifest", p]),
        "run_records": (runs, lambda p: ["score", "--runs", p]),
        "caption_jobs": (jobs, lambda p: ["caption", "--jobs", p,
                                          "-o", root / "captions.jsonl"]),
        "stream": (stream, None),
        "config": (config, lambda p: ["train", "--config", p, "--manifest",
                                      root / "bad_manifest.jsonl",
                                      "-o", root / "never.bin"]),
        "deltas": (deltas, lambda p: ["wilcoxon", "--deltas", p]),
    }


def run_format(root, formats, name, data):
    """Run the command that reads format ``name`` on ``data``."""
    argv = formats[name][1]
    if argv is None:
        return run_cli(["infer", "--checkpoint", root / "ckpt.bin"], stdin=data)
    path = root / f"input_{name}"
    path.write_bytes(data)
    return run_cli(argv(path))


SWAPS = ([], None, "7", {"k": {"k": 1}})  # a string where a number was


def value_paths(value, path=()):
    """The key path of ``value`` itself and of every value nested in it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from value_paths(child, path + (key,))


def swapped(value, path, new):
    if not path:
        return new
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


@st.composite
def mutated(draw, good: bytes, one_document: bool):
    """``good`` truncated, with one to three bits flipped, or with one value
    (a whole line included) swapped for a value of another JSON type."""
    kind = draw(st.sampled_from(["truncate", "flip", "swap"]))
    if kind == "truncate":
        return good[:draw(st.integers(0, len(good) - 1))]
    if kind == "flip":
        blob = bytearray(good)
        for bit in draw(st.lists(st.integers(0, 8 * len(good) - 1),
                                 min_size=1, max_size=3)):
            blob[bit // 8] ^= 1 << (bit % 8)
        return bytes(blob)
    texts = [good.decode()] if one_document else good.decode().splitlines()
    i = draw(st.integers(0, len(texts) - 1))
    value = json.loads(texts[i])
    path = draw(st.sampled_from(list(value_paths(value))))
    texts[i] = json.dumps(swapped(value, path, draw(st.sampled_from(SWAPS))))
    return "".join(t + "\n" for t in texts).encode()


FORMATS = ["manifest", "run_records", "caption_jobs", "stream", "config", "deltas"]


@pytest.fixture(scope="module")
def formats(root):
    return valid_inputs(root)


@pytest.mark.parametrize("name", FORMATS)
def test_valid_input_exits_0(root, formats, name):
    code, _, err = run_format(root, formats, name, formats[name][0])
    if name == "config":  # the config is read, then the manifest fails
        assert_exit_2((code, "", err), re.escape("bad_manifest.jsonl: manifest line 1"))
    else:
        assert code == 0 and err == "", err


# what each line format calls a line in its errors
LINE_WHAT = {"manifest": "manifest", "run_records": "run record",
             "caption_jobs": "caption job", "stream": "stream"}


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_0_or_2(root, formats, name, data):
    good = formats[name][0]
    blob = data.draw(mutated(good, one_document=name in ("config", "deltas")))
    code, _, err = run_format(root, formats, name, blob)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert_exit_2((code, "", err))
        if name in LINE_WHAT:
            where = "<stdin>" if name == "stream" else str(root / f"input_{name}")
            detail = f"{LINE_WHAT[name]} line [0-9]+: "
            if name == "run_records" and not blob.strip():
                detail = "no run records found$"  # an empty file has no line to name
            assert re.match(f"error: {re.escape(where)}: {detail}", err), err


FREE_FORM = {"id"}  # a caption job's id is echoed back, whatever it holds
DOCUMENT_WHAT = {"config": "train config", "deltas": "deltas"}
# the string fields of an infraction, in a manifest line or a caption job
INFRACTION_STRINGS = {(owner, key) for owner in ("infraction", "log")
                      for key in ("type", "message", "scenario")}


def typed_leaves(value):
    """(path, leaf) of every number and bool in ``value``, free-form keys
    aside, and of every infraction string field."""
    leaves = []
    for path in value_paths(value):
        leaf = value
        for key in path:
            leaf = leaf[key]
        if isinstance(leaf, (int, float)) and not FREE_FORM & set(path):
            leaves.append((path, leaf))
        elif isinstance(leaf, str) and path[-2:] in INFRACTION_STRINGS:
            leaves.append((path, leaf))
    return leaves


# fields that take any finite number, an int included; "features" and
# "deltas" are lists of numbers
NUMBER_FIELDS = {"km", "route_completion", "coefficients", "learning_rate", "gamma"}
NUMBER_LISTS = {"features", "deltas"}


def grammar_wording(path, leaf, new) -> str:
    """How ``errors``' JSON grammar refuses ``new`` where ``leaf`` was."""
    if len(path) > 1 and path[-2] in NUMBER_LISTS:
        return "must be a list of numbers, not bools or strings"
    kind = ("true or false" if isinstance(leaf, bool)
            else "a string" if isinstance(leaf, str)
            else "a finite number" if isinstance(leaf, float) or NUMBER_FIELDS & set(path)
            else "an integer")
    return f"must be {kind}, got {new!r}"


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_look_alike_swap_exits_2(root, formats, name, data):
    """A number swapped for its numeric string or a bool, a bool for a
    string, or an infraction string for null, a number, a bool or a list,
    is refused, not converted: exit 2 with one error line naming the file,
    the line swapped (in a line format) and a key on the path to the
    value, and ending with the grammar's wording for that value."""
    text = formats[name][0].decode()
    texts = [text] if name in DOCUMENT_WHAT else text.splitlines()
    i = data.draw(st.sampled_from(
        [i for i, t in enumerate(texts) if typed_leaves(json.loads(t))]))
    value = json.loads(texts[i])
    path, leaf = data.draw(st.sampled_from(typed_leaves(value)))
    if isinstance(leaf, str):
        look_alikes = [None, 7, True, [leaf]]
    else:
        look_alikes = [json.dumps(leaf)] + (["no"] if isinstance(leaf, bool)
                                            else [True, False])
    new = data.draw(st.sampled_from(look_alikes))
    texts[i] = json.dumps(swapped(value, path, new))
    code, _, err = run_format(root, formats, name,
                              "".join(t + "\n" for t in texts).encode())
    where = "<stdin>" if name == "stream" else str(root / f"input_{name}")
    detail = DOCUMENT_WHAT.get(name) or f"{LINE_WHAT[name]} line {i + 1}"
    assert_exit_2((code, "", err), "^" + re.escape(f"error: {where}: {detail}: "),
                  " " + re.escape(grammar_wording(path, leaf, new)) + "$")
    assert any(key in err for key in path if isinstance(key, str)), err


@pytest.mark.parametrize("name, owner", [("manifest", "infraction"),
                                         ("caption_jobs", "log")])
@pytest.mark.parametrize("field", ["type", "message", "scenario"])
@pytest.mark.parametrize("bad", [None, ["a"], 7])
def test_infraction_string_field_not_a_string(root, formats, name, owner, field,
                                              bad):
    """An infraction's ``type``, ``message`` or ``scenario`` that is not a
    JSON string exits 2 naming the file, the line and the field; it never
    reaches a caption as ``None`` or ``['a']``."""
    texts = formats[name][0].decode().splitlines()
    value = json.loads(texts[0])
    value[owner][field] = bad
    texts[0] = json.dumps(value)
    code, out, err = run_format(root, formats, name,
                                "".join(t + "\n" for t in texts).encode())
    where = root / f"input_{name}"
    assert_exit_2((code, out, err), "^" + re.escape(
        f"error: {where}: {LINE_WHAT[name]} line 1: ") + ".*" + re.escape(
        f"infraction {field} must be a string, got {bad!r}") + "$")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_manifest_ingest_output(root, formats, data):
    """``ingest -o`` on a mutated manifest, or on the valid one with one of
    its lines repeated (a clip_id twice): exit 0, or exit 2 with the file
    already at the output path byte for byte and no temporary file."""
    good = formats["manifest"][0]
    blob = data.draw(st.one_of(
        mutated(good, one_document=False),
        st.sampled_from(good.splitlines(keepends=True)).map(good.__add__)))
    path, out = root / "ingest_in.jsonl", root / "ingest_out.jsonl"
    path.write_bytes(blob)
    out.write_bytes(b"old\n")
    code, _, err = run_cli(["ingest", "--manifest", path, "-o", out])
    assert code in (0, 2), err
    if code == 2:
        assert_exit_2((code, "", err))
        assert out.read_bytes() == b"old\n"
    assert not [n for n in os.listdir(root) if n.endswith(".tmp")]


@pytest.fixture(scope="module")
def inline_manifest(root):
    """An all-inline two-clip manifest that ``eval`` and ``trace`` accept."""
    path = root / "inline_manifest.jsonl"
    rng = np.random.default_rng(1)
    write_manifest([
        ClipRecord("c0", features=rng.standard_normal((40, 3)).astype(np.float32),
                   label=1, collision_frame=20, source="external"),
        ClipRecord("c1", features=rng.standard_normal((24, 3)).astype(np.float32),
                   label=0, source="external"),
    ], path)
    return path.read_bytes()


@pytest.mark.parametrize("command", ["eval", "trace"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_inline_frames_exit_0_or_2(root, inline_manifest, command, data):
    """Inline frames decoded late still fail one way: ``eval`` with the stub
    encodes every clip, ``trace --clip-id`` reads every line and decodes
    one clip."""
    path = root / f"inline_{command}.jsonl"
    path.write_bytes(data.draw(mutated(inline_manifest, one_document=False)))
    argv = [command, "--checkpoint", root / "ckpt.bin", "--manifest", path]
    if command == "trace":
        argv += ["--clip-id", "c1", "-o", root / "inline_trace.csv"]
    code, _, err = run_cli(argv)
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert_exit_2((code, "", err))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.text(max_size=3), kids, max_size=3),
    max_leaves=8)
SPACES = st.text(" \t\r\n\x0b\x0c\xa0\u3000", max_size=2)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES, before=SPACES, bom=st.booleans(),
       after=SPACES | st.sampled_from(["x", " 1", "]", ",{}", "\ufeff", "\n\n{}"]))
def test_line_value_or_error_is_json_loads(value, before, after, bom):
    """A line gives the value ``json.loads`` gives, or its error, whatever
    surrounds the JSON value."""
    text = ("\ufeff" if bom else "") + before + json.dumps(value) + after
    try:
        expected = json.dumps(json.loads(text))
    except ValueError as exc:
        expected = f"p: x line 1: {exc}"
    try:
        got = json.dumps(next(json_lines([text], "p", "x", lambda obj: obj)))
    except ValidationError as exc:
        got = str(exc)
    assert got == expected


class TestMalformedRegressions:
    """Inputs that once ended in an uncaught traceback or a message that
    named neither the file nor the line."""

    def test_deltas_object_without_deltas(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"x":1}', encoding="utf-8")
        assert_exit_2(run_cli(["wilcoxon", "--deltas", path]),
                      re.escape(f"{path}: deltas: missing key 'deltas'"))

    @pytest.mark.parametrize("deltas", ['["1","2","-3","4"]', "[true,true,false,2.5]",
                                        '{"deltas":[1,"2"]}'])
    def test_deltas_not_numbers(self, tmp_path, deltas):
        """numpy turned these into floats, and ``W 7.0`` was printed."""
        path = tmp_path / "d.json"
        path.write_text(deltas, encoding="utf-8")
        assert_exit_2(run_cli(["wilcoxon", "--deltas", path]), "^" + re.escape(
            f"error: {path}: deltas: deltas must be a list of numbers, not bools "
            f"or strings") + "$")

    def test_deltas_not_a_list(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"deltas": {"a": 1}}', encoding="utf-8")
        assert_exit_2(run_cli(["wilcoxon", "--deltas", path]), "^" + re.escape(
            f"error: {path}: deltas: deltas must be a list of numbers, not bools or "
            f"strings") + "$")

    def train_config(self, tmp_path, text, *flags):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        return path, run_cli(["train", "--config", path, "--manifest",
                              tmp_path / "none.jsonl", "-o", tmp_path / "x.bin",
                              *flags])

    def test_config_not_an_object(self, tmp_path):
        path, result = self.train_config(tmp_path, "[1]")
        assert_exit_2(result, re.escape(
            f"{path}: train config: config must be a JSON object"))

    def test_config_epochs_a_string(self, tmp_path):
        path, result = self.train_config(tmp_path, '{"epochs":"x"}')
        assert_exit_2(result, re.escape(
            f"{path}: train config: epochs must be an integer, got 'x'"))

    def test_set_epochs_a_list(self, tmp_path):
        _, result = self.train_config(tmp_path, "{}", "--set", "epochs=[]")
        assert_exit_2(result, re.escape(
            "--set epochs=[]: epochs must be an integer, got []") + "$")

    def test_config_learning_rate_nan(self, tmp_path):
        """Rejected before training, not by a non-finite loss after it."""
        _, result = self.train_config(tmp_path, '{"learning_rate": NaN}')
        assert_exit_2(result, "learning_rate must be a finite number, got nan$")

    def test_set_int_beyond_float_range(self, tmp_path):
        """An int no float holds is refused in the grammar's words, not by
        the OverflowError its finiteness check raises."""
        _, result = self.train_config(tmp_path, "{}", "--set",
                                      f"learning_rate={BEYOND_FLOAT}")
        assert_exit_2(result, "^" + re.escape(
            f"error: --set learning_rate={BEYOND_FLOAT}: learning_rate must be a "
            f"finite number, got {BEYOND_FLOAT}") + "$")

    def test_config_int_beyond_float_range(self, tmp_path):
        path, result = self.train_config(tmp_path,
                                         f'{{"learning_rate": {BEYOND_FLOAT}}}')
        assert_exit_2(result, "^" + re.escape(
            f"error: {path}: train config: learning_rate must be a finite number, "
            f"got {BEYOND_FLOAT}") + "$")

    def test_set_int_beyond_digit_limit(self, tmp_path):
        """json.loads raised Python's bare digit-limit ValueError, naming
        neither --set nor the field."""
        _, result = self.train_config(tmp_path, "{}", "--set",
                                      f"learning_rate={BEYOND_INT}")
        assert_exit_2(result, "^" + re.escape(
            f"error: --set learning_rate={BEYOND_INT}: learning_rate must be a "
            f"finite number, got an integer of 5001 digits, beyond the "
            f"{sys.get_int_max_str_digits()}-digit limit") + "$")

    def test_config_int_beyond_digit_limit(self, tmp_path):
        path, result = self.train_config(tmp_path, f'{{"epochs": {BEYOND_INT}}}')
        assert_exit_2(result, "^" + re.escape(
            f"error: {path}: train config: epochs must be an integer, got an "
            f"integer of 5001 digits, beyond the {sys.get_int_max_str_digits()}"
            f"-digit limit") + "$")

    def test_config_syntax_error_names_line(self, tmp_path):
        path, result = self.train_config(tmp_path, '{\n "epochs": 2,\n}')
        assert_exit_2(result, re.escape(f"{path}: train config: "), "line 3 column 1")

    def test_set_overrides_file_value(self, tmp_path):
        """A --set value replaces the file's before the whole config is
        checked, so the file's value may be out of range on its own."""
        _, result = self.train_config(tmp_path, '{"learning_rate": 0}',
                                      "--set", "learning_rate=0.1")
        assert result[0] == 1, result  # config accepted; the manifest is missing

    @pytest.mark.parametrize("value, ok", [(2, True), (2.5, True), ("auto", True),
                                           ("2.5", False), (True, False),
                                           (0, False), (-1, False)])
    def test_pos_weight_number_or_auto(self, tmp_path, value, ok):
        """A number must be above 0: a weight of 0 would drop every positive
        clip from the classification loss."""
        _, result = self.train_config(tmp_path, json.dumps({"pos_weight": value}))
        if ok:
            assert result[0] == 1, result
        elif type(value) is int:
            assert_exit_2(result, "^error: pos_weight must be positive or 'auto'$")
        else:
            assert_exit_2(result, "pos_weight must be")

    @pytest.mark.parametrize("item, message", [
        ("weight_decay=-5", "weight_decay must be >= 0"),
        ("weight_decay=NaN",
         "--set weight_decay=NaN: weight_decay must be a finite number, got nan"),
        ("weight_decay=Infinity",
         "--set weight_decay=Infinity: weight_decay must be a finite number, got inf"),
        ("learning_rate=Infinity",
         "--set learning_rate=Infinity: learning_rate must be a finite number, got inf"),
        ("gamma=Infinity", "--set gamma=Infinity: gamma must be a finite number, got inf"),
        ("pos_weight=Infinity",
         "--set pos_weight=Infinity: pos_weight must be a finite number, got inf"),
        ("pos_weight=0", "pos_weight must be positive or 'auto'"),
        ("gamma=1e-300", "gamma must be >= 1e-06"),
        ("hidden_dim=-1", "hidden_dim must be >= 0"),
        ("embed_dim=0", "embed_dim must be >= 1"),
        ("snippet_len=0", "snippet_len must be >= 1"),
        ("snippet_stride=0", "snippet_stride must be >= 1"),
    ])
    def test_set_out_of_range_refused_before_training(self, tmp_path, item,
                                                      message):
        """A config value out of its range is refused by name before any
        training, not taken (a negative weight decay, a gamma that pools to
        the max) or found late, at the first clip or as a non-finite loss,
        with a message that names another field or none."""
        manifest = tmp_path / "m.jsonl"
        write_manifest(generate_synthetic_dataset(SynthConfig(4, 4, feature_dim=4)),
                       manifest)
        result = run_cli(["train", "--manifest", manifest, "-o", tmp_path / "c.bin",
                          *[arg for kv in ("epochs=2", "embed_dim=8", "hidden_dim=4",
                                           item) for arg in ("--set", kv)]])
        assert_exit_2(result, f"^error: {message}$")
        assert not (tmp_path / "c.bin").exists()

    def caption(self, tmp_path, *lines):
        path = tmp_path / "jobs.jsonl"
        good = {"type": "normal", "annotations": ["The car drives."]}
        path.write_text(json.dumps(good) + "\n\n" + "".join(l + "\n" for l in lines),
                        encoding="utf-8")
        result = run_cli(["caption", "--jobs", path, "-o", tmp_path / "out.jsonl"])
        assert not (tmp_path / "out.jsonl").exists()
        return path, result

    def test_caption_job_not_an_object(self, tmp_path):
        path, result = self.caption(tmp_path, "[1]")
        assert_exit_2(result, re.escape(f"{path}: caption job line 3: "))

    def test_caption_collision_without_log(self, tmp_path):
        path, result = self.caption(tmp_path, '{"type":"collision"}')
        assert_exit_2(result, re.escape(f"{path}: caption job line 3: missing key 'log'"))

    def test_caption_annotations_a_number(self, tmp_path):
        path, result = self.caption(tmp_path, '{"type":"normal","annotations":5}')
        assert_exit_2(result, re.escape(
            f"{path}: caption job line 3: annotations must be a non-empty list of "
            f"strings, got 5") + "$")

    @pytest.mark.parametrize("annotations", ['"abc"', "[1,2]", '["ok",null]'])
    def test_caption_annotations_not_strings(self, tmp_path, annotations):
        """A string or a list holding a non-string is refused, not captioned
        item by item."""
        path, result = self.caption(
            tmp_path, '{"type":"normal","annotations":%s}' % annotations)
        assert_exit_2(result, re.escape(
            f"{path}: caption job line 3: annotations must be a non-empty list of "
            f"strings, got {json.loads(annotations)!r}") + "$")

    def test_caption_annotations_empty(self, tmp_path):
        path, result = self.caption(tmp_path, '{"type":"normal","annotations":[]}')
        assert_exit_2(result, re.escape(
            f"{path}: caption job line 3: annotations must be a non-empty list of "
            f"strings, got []") + "$")

    @pytest.mark.parametrize("value", ['"no"', "0", "null"])
    def test_caption_paraphrase_not_a_bool(self, tmp_path, value):
        """``"no"`` was truthy, so the paraphrase ran."""
        path, result = self.caption(
            tmp_path, '{"type":"normal","annotations":["a"],"paraphrase":%s}' % value)
        assert_exit_2(result, re.escape(
            f"{path}: caption job line 3: paraphrase must be true or false, got "))

    def test_caption_job_not_json(self, tmp_path):
        path, result = self.caption(tmp_path, "{oops")
        assert_exit_2(result, re.escape(f"{path}: caption job line 3: "),
                      "Expecting property name")

    def test_caption_unknown_type(self, tmp_path):
        path, result = self.caption(tmp_path, '{"type":"crash"}')
        assert_exit_2(result, re.escape(
            f"{path}: caption job line 3: unknown type 'crash'"))

    def infer(self, root, bad_line):
        stdin = jsonl(stream_line(0)) + bad_line.encode() + b"\n"
        return run_cli(["infer", "--checkpoint", root / "ckpt.bin"], stdin=stdin)

    def test_stream_line_a_list(self, root):
        result = self.infer(root, "[1,2]")
        assert_exit_2(result, re.escape("<stdin>: stream line 2: "))
        assert len(result[1].splitlines()) == 1  # line 1's token came first

    def test_stream_tick_null(self, root):
        assert_exit_2(self.infer(root, '{"tick":null,"features":[1,2,3]}'),
                      re.escape("<stdin>: stream line 2: "))

    @pytest.mark.parametrize("tick", ["0.9", "1.0", '"1"', "true", "1e999"])
    def test_stream_tick_not_an_integer(self, root, tick):
        line = '{"tick":%s,"features":[1,2,3]}' % tick
        result = self.infer(root, line)
        assert_exit_2(result, re.escape(
            f"<stdin>: stream line 2: tick must be an integer, got {json.loads(tick)!r}")
            + "$")
        assert len(result[1].splitlines()) == 1

    def test_stream_float_then_string_tick_first_line(self, root):
        stdin = b'{"tick":0.9,"features":[1,2,3]}\n{"tick":"1","features":[1,2,3]}\n'
        result = run_cli(["infer", "--checkpoint", root / "ckpt.bin"], stdin=stdin)
        assert_exit_2(result, re.escape("<stdin>: stream line 1: tick must be an integer"))
        assert result[1] == ""

    @pytest.mark.parametrize("features", ["[true,false,1.5]", '["1","2","3e0"]',
                                          '[1,2,"3"]'])
    def test_stream_features_not_numbers(self, root, features):
        """numpy turned bools and numeric strings into floats."""
        result = self.infer(root, '{"tick":1,"features":%s}' % features)
        assert_exit_2(result, re.escape("<stdin>: stream line 2: features must be a "
                                        "list of numbers, not bools or strings") + "$")
        assert len(result[1].splitlines()) == 1

    def test_stream_features_an_object(self, root):
        assert_exit_2(self.infer(root, '{"tick":1,"features":{"a":1}}'),
                      re.escape("<stdin>: stream line 2: "))

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1e999"])
    def test_stream_non_finite_feature(self, root, value):
        line = '{"tick":5,"features":[0.5,0.25,%s]}' % value
        assert_exit_2(self.infer(root, line), re.escape(
            "<stdin>: stream line 2: frame feature 2 is "), "not finite$")

    def test_stream_bad_utf8_names_line(self, root):
        stdin = jsonl(stream_line(0)) + b'{"tick":1,"features":[1,2,3],"x":"\xff"}\n'
        assert_exit_2(run_cli(["infer", "--checkpoint", root / "ckpt.bin"],
                              stdin=stdin),
                      re.escape("<stdin>: stream line 2: 'utf-8' codec"))

    def manifest(self, tmp_path, edit):
        path = tmp_path / "m.jsonl"
        feats = np.zeros((40, 2), dtype=np.float32)
        write_manifest([ClipRecord(f"c{i}", features=feats, caption="x",
                                   event_window=(0, 1)) for i in range(2)], path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = edit(lines[1])
        path.write_bytes(b"".join(lines))
        return path, run_cli(["ingest", "--manifest", path])

    @pytest.mark.parametrize("fields, message", [
        ({"infraction": {"frame_number": -1, "type": "vehicle", "message": "hit",
                         "scenario": "ControlLoss"}},
         "infraction frame_number must be >= 0"),
        ({"label": 1, "collision_frame": 2, "source": "augmented"},
         "clip c1: augmented collision frame out of band"),
        ({"event_window": [3, 1]}, "clip c1: bad event window (3, 1)"),
    ], ids=["frame_number_negative", "augmented_out_of_band", "window_reversed"])
    def test_manifest_value_out_of_range(self, tmp_path, fields, message):
        path, result = self.manifest(
            tmp_path, lambda line: json.dumps({**json.loads(line), **fields}).encode())
        assert_exit_2(result, "^" + re.escape(
            f"error: {path}: manifest line 2: {message}") + "$")

    def test_manifest_event_window_empty(self, tmp_path):
        path, result = self.manifest(
            tmp_path, lambda line: line.replace(b'"event_window":[0,1]',
                                                b'"event_window":[]'))
        assert_exit_2(result, re.escape(f"{path}: manifest line 2: "))

    @pytest.mark.parametrize("window", ["[1,2,99]", "[1]", "{}", "1"])
    def test_manifest_event_window_not_a_pair(self, tmp_path, window):
        """``ingest -o`` once wrote ``[1,2,99]`` back as ``[1,2]``."""
        path, result = self.manifest(
            tmp_path, lambda line: line.replace(b'"event_window":[0,1]',
                                                b'"event_window":' + window.encode()))
        assert_exit_2(result, re.escape(
            f"{path}: manifest line 2: event_window must be a list of two "
            f"integers, got "))

    def test_manifest_caption_not_a_string(self, tmp_path):
        path, result = self.manifest(
            tmp_path, lambda line: line.replace(b'"caption":"x"', b'"caption":5'))
        assert_exit_2(result, re.escape(
            f"{path}: manifest line 2: caption must be a string, got 5") + "$")

    def test_manifest_bad_utf8_names_line(self, tmp_path):
        path, result = self.manifest(
            tmp_path, lambda line: line.replace(b'"caption":"x"', b'"caption":"\xe9"'))
        assert_exit_2(result, re.escape(f"{path}: manifest line 2: 'utf-8' codec"))

    @pytest.mark.parametrize("output", [False, True])
    def test_manifest_duplicate_clip_id(self, tmp_path, output):
        """ingest stops at the first repeated clip_id and names its line,
        with or without -o; with -o the file already there stays as it was."""
        path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        feats = np.zeros((40, 2), dtype=np.float32)
        write_manifest([ClipRecord(f"c{i}", features=feats) for i in range(60)],
                       path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[50] = lines[3]
        path.write_bytes(b"".join(lines))
        out.write_bytes(b"old\n")
        argv = ["ingest", "--manifest", path, *(["-o", out] if output else [])]
        assert_exit_2(run_cli(argv), re.escape(
            f"{path}: manifest line 51: duplicate clip_id 'c3'"))
        assert out.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["m.jsonl", "out.jsonl"]

    @pytest.mark.parametrize("command", ["eval", "trace", "train", "train_val"])
    def test_every_reader_refuses_a_repeated_clip_id(self, root, tmp_path, command):
        """README says a clip_id is unique within a manifest, but only
        ingest checked: eval scored a repeated clip twice (n 9 for 8 clips)."""
        good, path = tmp_path / "good.jsonl", tmp_path / "m.jsonl"
        write_manifest(generate_synthetic_dataset(SynthConfig(4, 4, feature_dim=3)),
                       good)
        lines = good.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines + [lines[2]]))
        train = ["-o", tmp_path / "c.bin", "--set", "embed_dim=8", "--set", "epochs=1"]
        argv = {"eval": ["eval", "--checkpoint", root / "ckpt.bin", "--manifest", path],
                "trace": ["trace", "--checkpoint", root / "ckpt.bin", "--manifest", path,
                          "-o", tmp_path / "t.csv"],
                "train": ["train", "--manifest", path, *train],
                "train_val": ["train", "--manifest", good, "--val-manifest", path,
                              *train]}[command]
        assert_exit_2(run_cli(argv), "^" + re.escape(
            f"error: {path}: manifest line 9: duplicate clip_id 'synth-train-n00002'")
            + "$")
        assert sorted(os.listdir(tmp_path)) == ["good.jsonl", "m.jsonl"]

    @pytest.mark.parametrize("command", ["ingest", "trace"])
    def test_lone_surrogate_clip_id_refused(self, root, tmp_path, command):
        """``"\\ud800"`` is valid JSON but no UTF-8: ingest passed it, and
        trace failed at its CSV's encode, naming neither file nor line."""
        path = tmp_path / "m.jsonl"
        write_manifest(generate_synthetic_dataset(SynthConfig(2, 2, feature_dim=3)),
                       path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = jsonl({**json.loads(lines[2]), "clip_id": "\ud800"})
        path.write_bytes(b"".join(lines))
        argv = {"ingest": ["ingest", "--manifest", path],
                "trace": ["trace", "--checkpoint", root / "ckpt.bin", "--manifest",
                          path, "-o", tmp_path / "t.csv"]}[command]
        assert_exit_2(run_cli(argv), "^" + re.escape(
            f"error: {path}: manifest line 3: clip_id must be a string UTF-8 can "
            f"encode, got '\\ud800'") + "$")
        assert sorted(os.listdir(tmp_path)) == ["m.jsonl"]

    @pytest.mark.parametrize("value, why", [
        pytest.param('"x"', "must be an integer, got 'x'$", id='"x"-not_an_integer'),
        ("-1", "out of range$")])
    def test_manifest_collision_frame_of_frames_file(self, tmp_path, value, why):
        """Checked even when the frames are in a file the reader does not open."""
        path = tmp_path / "m.jsonl"
        write_manifest([ClipRecord("c0", frames_path="c0.npy", label=1,
                                   collision_frame=3)], path)
        path.write_text(path.read_text(encoding="utf-8").replace(
            '"collision_frame":3', f'"collision_frame":{value}'), encoding="utf-8")
        assert_exit_2(run_cli(["ingest", "--manifest", path]),
                      re.escape(f"{path}: manifest line 1: "), why)

    @pytest.mark.parametrize("field, value, name", [
        ('"label":1', '"label":true', "label"),
        ('"label":1', '"label":1.0', "label"),
        ('"collision_frame":20', '"collision_frame":20.5', "collision_frame"),
        ('"collision_frame":20', '"collision_frame":20.0', "collision_frame"),
        ('"event_window":[2,3]', '"event_window":[0.5,3]', "event_window"),
        ('"event_window":[2,3]', '"event_window":[2,3.0]', "event_window"),
        ('"frame_number":20', '"frame_number":20.0', "infraction frame_number"),
        ('"frame_number":20', '"frame_number":false', "infraction frame_number"),
        ('"label":1', '"label":"1"', "label"),
        ('"collision_frame":20', '"collision_frame":"20"', "collision_frame"),
        ('"event_window":[2,3]', '"event_window":[2,"3"]', "event_window"),
        ('"frame_number":20', '"frame_number":"20"', "infraction frame_number"),
    ])
    def test_manifest_integer_field_not_bool_or_float(self, tmp_path, field,
                                                      value, name):
        """Integer fields take JSON integers only, not bools, floats or
        strings; ``ingest -o`` once wrote these back, counting a ``true`` or
        ``1.0`` label among the positives, and a ``"1"`` label was refused
        as ``label must be 0 or 1, got 1``."""
        path, out = tmp_path / "m.jsonl", tmp_path / "out.jsonl"
        write_manifest([ClipRecord(
            "c0", frames_path="c0.npy", label=1, collision_frame=20,
            source="external", event_window=(2, 3),
            infraction=InfractionLog(20, "vehicle", "hit", "ControlLoss"))], path)
        text = path.read_text(encoding="utf-8")
        assert text.count(field) == 1
        path.write_text(text.replace(field, value), encoding="utf-8")
        assert_exit_2(run_cli(["ingest", "--manifest", path, "-o", out]), re.escape(
            f"{path}: manifest line 1: {name} must be an integer, got "))
        assert not out.exists()

    def test_run_record_coefficients_not_numbers(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(jsonl({"route_id": "r", "km": 1.0, "route_completion": 50.0,
                                "infractions": {"vehicle": 1},
                                "coefficients": {"vehicle": "x"}}))
        assert_exit_2(run_cli(["score", "--runs", path]), re.escape(
            f"{path}: run record line 1: coefficients['vehicle'] must be a finite "
            f"number, got 'x'") + "$")


class TestRunRecordChecks:
    """Every ``score`` error names the file and the line, and a value of the
    wrong type is refused, not converted."""

    GOOD = {"route_id": "r0", "km": 1.0, "route_completion": 50.0,
            "infractions": {}, "penalty_weights": {}}

    def score(self, tmp_path, edits, *flags):
        """``score`` on a valid line 1 and on line 2, the valid record with
        ``edits`` merged in (a value of None drops the key)."""
        record = {**self.GOOD, **edits}
        path = tmp_path / "runs.jsonl"
        path.write_bytes(jsonl(self.GOOD, {k: v for k, v in record.items()
                                           if v is not None}))
        return path, run_cli(["score", "--runs", path, *flags])

    @pytest.mark.parametrize("edits, flags, message", [
        ({"infractions": {"foo": 1}}, (),
         "no v21 parameter supplied for infraction type 'foo'"),
        ({"km": 0, "infractions": {"vehicle": 1}}, (),
         "km = 0 with nonzero collision counts"),
        ({"penalty_weights": None}, ("--version", "v20"),
         "v2.0 scoring requires explicit penalty weights"),
        ({"infractions": {"vehicle": 1}, "penalty_weights": {"vehicle": 1.5}},
         ("--version", "v20"), "v2.0 weight for 'vehicle' must be in (0, 1]"),
        ({"infractions": {"vehicle": 1}, "coefficients": {"vehicle": -0.5}}, (),
         "v2.1 coefficient for 'vehicle' must be >= 0"),
        ({"km": 1e-320, "infractions": {"vehicle": 1}}, (),
         "Col_per_km = 1 collisions / 1e-320 km is not finite"),
    ], ids=["unknown_type", "km_zero", "v20_no_weights", "v20_weight",
            "v21_coefficient", "col_per_km_inf"])
    def test_summary_error_names_line(self, tmp_path, edits, flags, message):
        path, result = self.score(tmp_path, edits, *flags)
        assert_exit_2(result, "^" + re.escape(
            f"error: {path}: run record line 2: {message}") + "$")
        assert result[1] == ""

    @pytest.mark.parametrize("edits, message", [
        ({"infractions": {"vehicle": 2.7}},
         "infractions['vehicle'] must be an integer, got 2.7"),
        ({"infractions": {"vehicle": "3"}},
         "infractions['vehicle'] must be an integer, got '3'"),
        ({"infractions": {"vehicle": True}},
         "infractions['vehicle'] must be an integer, got True"),
        ({"infractions": None}, None),  # absent: no infractions, accepted
        ({"infractions": [1]}, "infractions must map infraction types to counts"),
        ({"route_completion": True}, "route_completion must be a finite number, got True"),
        ({"route_completion": "50"}, "route_completion must be a finite number, got '50'"),
        ({"route_id": 7}, "route_id must be a string, got 7"),
        ({"route_id": "\ud800"}, "route_id must be a string UTF-8 can encode, "
                                  "got '\\ud800'"),
        ({"km": float("inf")}, "km must be a finite number, got inf"),
        ({"km": float("nan")}, "km must be a finite number, got nan"),
        ({"km": False}, "km must be a finite number, got False"),
        ({"km": BEYOND_FLOAT}, f"km must be a finite number, got {BEYOND_FLOAT}"),
        ({"coefficients": {"vehicle": float("nan")}},
         "coefficients['vehicle'] must be a finite number, got nan"),
        ({"coefficients": {"vehicle": True}},
         "coefficients['vehicle'] must be a finite number, got True"),
        ({"penalty_weights": {"vehicle": float("-inf")}},
         "penalty_weights['vehicle'] must be a finite number, got -inf"),
        ({"coefficients": [0.7]}, "coefficients must map infraction types to numbers"),
    ], ids=["count_float", "count_string", "count_bool", "no_infractions",
            "infractions_list", "rc_bool", "rc_string", "route_id_int",
            "route_id_lone_surrogate", "km_inf",
            "km_nan", "km_bool", "km_beyond_float", "coefficient_nan", "coefficient_bool",
            "weight_inf", "coefficients_list"])
    def test_wrong_type_refused(self, tmp_path, edits, message):
        path, result = self.score(tmp_path, edits)
        if message is None:
            assert result[0] == 0 and result[2] == "", result
            return
        assert_exit_2(result, "^" + re.escape(
            f"error: {path}: run record line 2: {message}") + "$")
        assert result[1] == ""

    def test_total_km_not_finite(self, tmp_path):
        """Finite distances can add up to an infinite total, which no
        aggregate may print."""
        path = tmp_path / "runs.jsonl"
        path.write_bytes(jsonl(*({**self.GOOD, "km": 1e308} for _ in range(2))))
        assert_exit_2(run_cli(["score", "--runs", path]), "^" + re.escape(
            f"error: {path}: the routes' total km is not finite") + "$")

    def test_empty_file_names_path(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(b"\n \n")
        assert_exit_2(run_cli(["score", "--runs", path]), "^" + re.escape(
            f"error: {path}: no run records found") + "$")
