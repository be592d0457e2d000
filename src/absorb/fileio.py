"""On-disk formats: algebra files, subuniverse files, corpus directories.

Algebra file (JSON): {"arity": n, "size": m, "table": [...], "labels": [...]?}
with the flat row-major entry layout; values 0-based; labels display-only.
Subuniverse file: {"elements": [sorted 0-based indices]}.
Corpus directory: corpus.json metadata plus one algebra file per table.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Iterable

from .core import NaryTable, Subuniverse
from .generate import GENERATOR_NAME, GenSpec

CORPUS_FORMAT = "absorb-corpus/1"
CORPUS_META = "corpus.json"


def save_algebra(path: str, table: NaryTable, labels: list[str] | None = None) -> None:
    doc: dict = {"arity": table.arity, "size": table.size, "table": list(table.entries)}
    if labels is not None:
        doc["labels"] = list(labels)
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    """doc as one line of sorted-key JSON, in one write: json.dump would
    stream it to the file in many small writes."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True) + "\n")


def _load_object(path: str) -> dict:
    """The JSON document of a file, which must be an object."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the document must be a JSON object")
    return doc


def load_algebra(path: str) -> tuple[NaryTable, list[str] | None]:
    doc = _load_object(path)
    for key in ("arity", "size", "table"):
        if key not in doc:
            raise ValueError(f"{path}: missing required field {key!r}")
    if not isinstance(doc["table"], list):
        raise ValueError(f"{path}: table must be a flat integer array")
    try:
        table = NaryTable(doc["arity"], doc["size"], tuple(doc["table"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != table.size:
            raise ValueError(f"{path}: labels must list one string per element")
        labels = [str(x) for x in labels]
    return table, labels


def save_subuniverse(path: str, sub: Subuniverse) -> None:
    _write_json(path, {"elements": list(sub.elements)})


def load_subuniverse(path: str, carrier_size: int) -> Subuniverse:
    doc = _load_object(path)
    if "elements" not in doc or not isinstance(doc["elements"], list):
        raise ValueError(f"{path}: missing 'elements' integer array")
    try:
        return Subuniverse(carrier_size, frozenset(doc["elements"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_corpus_dir(dirpath: str, spec: GenSpec, tables: Iterable[NaryTable]) -> dict:
    """Write one algebra file per table plus corpus.json; returns the metadata.
    Creates nothing before the stream yields its first table or ends."""
    files = []
    for i, table in enumerate(tables):
        if i == 0:
            os.makedirs(dirpath, exist_ok=True)
        name = f"table_{i:06d}.json"
        save_algebra(os.path.join(dirpath, name), table)
        files.append(name)
    meta = {
        "format": CORPUS_FORMAT,
        "genspec": asdict(spec),
        "generator": GENERATOR_NAME,
        "count": len(files),
        "files": files,
    }
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, CORPUS_META), "w", encoding="utf-8") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")
    return meta


def read_corpus_dir(dirpath: str) -> tuple[list[NaryTable], dict]:
    """Load the tables of a corpus directory in its recorded (or sorted) order."""
    meta_path = os.path.join(dirpath, CORPUS_META)
    if os.path.exists(meta_path):
        meta = _load_object(meta_path)
        files = meta.get("files")
        # a name with a directory part could reach outside the corpus
        if not isinstance(files, list) or not all(
            isinstance(name, str) and name not in ("", ".", "..") and os.path.basename(name) == name
            for name in files
        ):
            raise ValueError(f"{meta_path}: 'files' must be a list of file names")
    else:
        meta = {}
        files = sorted(
            name
            for name in os.listdir(dirpath)
            if name.endswith(".json") and name != CORPUS_META
        )
    tables = [load_algebra(os.path.join(dirpath, name))[0] for name in files]
    return tables, meta
