"""Seeded mutation sweep over every input the CLI decodes.

One field of a dataset line, of the label file or of a checkpoint header is
deleted or set to one of 14 hostile JSON values; `build-labels`, `eval` and
`train --resume` must then end with exit 0, 2 or 3, never with an escaped
exception. `train --resume` always gets `--epochs 2`, so a stored epoch count
of 10**30 cannot train forever. The test runs a seeded sample of the cases;
`sweep_cases` lists them all.
"""

import json
import random
from pathlib import Path

import pytest

from mrcontrast.cli import main
from mrcontrast.errors import BadCheckpoint
from mrcontrast.model import ModelConfig
from mrcontrast.train import RunConfig, load_checkpoint
from test_cli import SYNTH_FLAGS
from test_train import rewrite_header

VALUES = [
    None, -1, 0, 1e308, float("nan"), "x", [], {}, [1, 2], True, 10**30, -0.0,
    [None, None, None], ["a", "b", "c"], 10**400,
]
DELETE = "<deleted>"
SAMPLE, SEED = 200, 11


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    paths = {k: str(root / n) for k, n in
             (("data", "data.jsonl"), ("labels", "labels.json"), ("ckpt", "model.ckpt"))}
    assert main(["synth", "--out", paths["data"]] + SYNTH_FLAGS) == 0
    assert main(["build-labels", "--dataset", paths["data"], "--out", paths["labels"],
                 "--grid", "3x3"]) == 0
    assert main(["train", "--dataset", paths["data"], "--labels", paths["labels"],
                 "--checkpoint", paths["ckpt"], "--epochs", "1", "--batch-size", "64",
                 "--warmup-steps", "10"]) == 0
    return paths


def json_paths(obj, prefix=()):
    """Every key or index path in a JSON value, parents before children."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutate(obj, path, value) -> None:
    """Set obj at path to value in place, or delete it when value is DELETE."""
    for key in path[:-1]:
        obj = obj[key]
    if value is DELETE:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


def sweep_cases(inputs) -> list[tuple[str, tuple, object]]:
    """(input, path, value) for every mutation: each field of the first dataset
    line (plus the optional ti_ms and series_description), each path of the
    label file outside labels[1:], and each run and model field, epochs_done,
    adam_t and the two hashes of the checkpoint header."""
    line = json.loads(Path(inputs["data"]).read_text().splitlines()[0])
    labels = json.loads(Path(inputs["labels"]).read_text())
    fields = {
        "dataset": [(k,) for k in sorted({*line, "ti_ms", "series_description"})],
        "labels": [p for p in json_paths(labels) if p[:1] != ("labels",) or p[1:2] in ((), (0,))],
        "header": [("run", k) for k in RunConfig.__dataclass_fields__]
        + [("model", k) for k in ModelConfig.__dataclass_fields__]
        + [("epochs_done",), ("adam_t",), ("label_space_hash",), ("config_hash",)],
    }
    return [(kind, path, value) for kind, paths in fields.items() for path in paths
            for value in VALUES + [DELETE]]


def run_case(inputs, tmp_path, kind, path, value) -> list[int]:
    """Exit codes of the commands that read the mutated input."""
    data, labels, ckpt = inputs["data"], inputs["labels"], inputs["ckpt"]
    if kind == "dataset":
        first, *rest = Path(data).read_text().splitlines(keepends=True)
        obj = json.loads(first)
        if value is not DELETE or path[0] in obj:
            mutate(obj, path, value)
        data = str(tmp_path / "data.jsonl")
        Path(data).write_text(json.dumps(obj) + "\n" + "".join(rest))
    elif kind == "labels":
        obj = json.loads(Path(labels).read_text())
        mutate(obj, path, value)
        labels = str(tmp_path / "labels.json")
        Path(labels).write_text(json.dumps(obj))
    else:
        blob = rewrite_header(Path(ckpt).read_bytes(), lambda h: mutate(h, path, value))
        ckpt = str(tmp_path / "bad.ckpt")
        Path(ckpt).write_bytes(blob)
    commands = [["eval", "--dataset", data, "--labels", labels, "--checkpoint", ckpt]]
    if kind == "dataset":
        commands.append(["build-labels", "--dataset", data, "--out", str(tmp_path / "l.json")])
    if kind == "header":
        commands.append(["train", "--dataset", data, "--labels", labels, "--resume", ckpt,
                         "--checkpoint", str(tmp_path / "resumed.ckpt"), "--epochs", "2"])
    return [main(argv) for argv in commands]


def test_sampled_mutations_exit_cleanly(inputs, tmp_path, capsys):
    cases = random.Random(SEED).sample(sweep_cases(inputs), SAMPLE)
    assert {kind for kind, _, _ in cases} == {"dataset", "labels", "header"}
    for kind, path, value in cases:
        codes = run_case(inputs, tmp_path, kind, path, value)
        assert set(codes) <= {0, 2, 3}, (kind, path, value, codes)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field", ["label_space_hash", "config_hash"])
def test_hash_that_is_not_a_string_is_bad_checkpoint(inputs, tmp_path, capsys, field):
    """A header hash that is not a string never reaches a report: loading the
    checkpoint raises BadCheckpoint naming it, and eval and train exit 2."""
    for value in VALUES:
        if isinstance(value, str):
            continue
        blob = rewrite_header(Path(inputs["ckpt"]).read_bytes(), lambda h: mutate(h, (field,), value))
        Path(tmp_path / "bad.ckpt").write_bytes(blob)
        with pytest.raises(BadCheckpoint, match=field):
            load_checkpoint(str(tmp_path / "bad.ckpt"))
        assert run_case(inputs, tmp_path, "header", (field,), value) == [2, 2], value
    assert "Traceback" not in capsys.readouterr().err
