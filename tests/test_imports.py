"""Every module of the package imports on its own, in a fresh interpreter,
so none relies on another module having been imported first; the metadata
commands leave OpenSSL and numpy.random unloaded."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import dicom_fixtures
import mrcontrast
from mrcontrast.records import MetadataRecord

PACKAGE = Path(mrcontrast.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"cli", "labels", "optim", "records"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import mrcontrast.{module}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# hashlib loads OpenSSL's _hashlib, and numpy.random loads it too (through
# secrets and hmac): several MB that the metadata commands never use
METADATA_UNUSED = ("hashlib", "_hashlib", "numpy.random")


def test_metadata_commands_load_neither_openssl_nor_numpy_random(tmp_path):
    incoming = tmp_path / "incoming"
    incoming.mkdir()
    for i in range(48):
        elements = dicom_fixtures.scan_elements(te=b"%d" % (10 + 2 * i), tr=b"%d" % (500 + 100 * i))
        (incoming / f"scan{i:02d}.dcm").write_bytes(dicom_fixtures.dicom_file(elements))
    (incoming / "garbage.dcm").write_bytes(b"not imaging data")
    record = MetadataRecord(
        "manual-1", manufacturer="GE", scanner_model="SIGNA", sequence_type="SE",
        sequence_variant="SK", field_strength_tesla=3.0, te_ms=30.0, tr_ms=2000.0,
        flip_angle_deg=90.0, ti_ms=150.0,
    )
    (incoming / "manifest.jsonl").write_text(
        json.dumps(record.to_dict(), sort_keys=True) + "\nnot json\n")
    commands = [
        ["ingest", "incoming", "--out", "records.jsonl", "--skip-bad", "--summary", "summary.json"],
        ["build-labels", "--dataset", "records.jsonl", "--out", "grid.json", "--grid", "20x20"],
        ["build-labels", "--dataset", "records.jsonl", "--out", "kmeans.json", "--kmeans", "40"],
    ]
    code = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "from mrcontrast.cli import main",
        "loaded = {}",
        f"for argv in {commands!r}:",
        "    assert main(argv) == 0, argv",
        f"    loaded[argv[0] + ' ' + argv[-1]] = [m for m in {METADATA_UNUSED!r} if m in sys.modules]",
        "print(json.dumps(loaded))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"ingest summary.json": [], "build-labels 20x20": [], "build-labels 40": []}
    assert len(json.loads((tmp_path / "kmeans.json").read_text())["labels"]) > 1
