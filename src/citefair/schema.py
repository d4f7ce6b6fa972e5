"""The names the layers share and the check of a bundle's dataset.json, in
one module that needs no numpy: the choice lists of indicators and ingest
(and of the CLI's parser), the bundle's file names and format, and
_read_meta.  The CLI runs its numpy-free checks with this module alone.
"""

from __future__ import annotations

import json
from pathlib import Path

# CPython's own SHA-256.  hashlib would load OpenSSL, which adds about
# 3.5 MB of resident memory and 5 ms of start-up to every command.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import ParseError, ValidationError

# Indicator kinds and counting methods (indicators), and the policies for
# unknown cited journals and zero-reference rows (ingest).
KINDS = ("impact_factor", "total_cites", "cp_ratio", "numerator_only")
COUNTINGS = ("integer", "fractional")
POLICY_DROP = "drop"
POLICY_ERROR = "error"
POLICY_DROP_WARN = "drop-with-warning"

JOURNALS_FILE = "journals.tsv"
PUBLICATIONS_FILE = "publications.tsv"
CITATIONS_FILE = "citations.tsv"
COUNTS_FILE = "counts.tsv"
META_FILE = "dataset.json"
BUNDLE_FILES = (JOURNALS_FILE, PUBLICATIONS_FILE, CITATIONS_FILE, COUNTS_FILE)
BUNDLE_FORMAT = "citefair-dataset/2"


def _not_utf8(path: Path) -> ParseError:
    """The error naming the first line of ``path`` that is not valid UTF-8."""
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(path, lineno, f"not valid UTF-8 (byte {raw[exc.start]:#04x} "
                                                f"at position {exc.start + 1}: {exc.reason})")
    return ParseError(path, 1, "not valid UTF-8 (undecodable input)")


def _meta_sha256(meta: dict) -> str:
    """The sha256 of the canonical JSON of every metadata field but ``sha256``."""
    fields = {key: value for key, value in meta.items() if key != "sha256"}
    return sha256(json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _read_meta(directory: Path) -> dict:
    """A bundle's metadata, after checking its format, census year, cluster
    list and manifest, and then its own sha256."""
    path = directory / META_FILE
    if not path.exists():
        raise ValidationError(f"not a dataset bundle (missing {META_FILE}): {directory}")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, exc.lineno, f"not valid JSON ({exc.msg})") from None
    except RecursionError:
        raise ParseError(path, 1, "not valid JSON (nested too deeply)") from None
    found = meta.get("format") if isinstance(meta, dict) else None
    if found != BUNDLE_FORMAT:
        raise ValidationError(f"{path}: bundle format {found!r} is not {BUNDLE_FORMAT!r}; "
                              f"re-run 'citefair ingest' to write the bundle again")
    if type(meta.get("census_year")) is not int:
        raise ValidationError(f"{path}: census_year must be an integer")
    clusters = meta.get("clusters")
    if not isinstance(clusters, list) or not all(
            isinstance(c, dict) and isinstance(c.get("cluster_id"), str) for c in clusters):
        raise ValidationError(f"{path}: clusters must be a list of objects with a cluster_id")
    files = meta.get("files")
    for name in BUNDLE_FILES:
        entry = files.get(name) if isinstance(files, dict) else None
        if not (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)):
            raise ValidationError(f"{path}: manifest entry files.{name} lacks its sha256")
    if meta.get("sha256") != _meta_sha256(meta):
        raise ValidationError(f"{path}: sha256 differs from that of its other fields; the file "
                              f"changed after ingest (re-run 'citefair ingest' to write the "
                              f"bundle again)")
    return meta
