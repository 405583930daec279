"""Run artifacts: the files the stages hand each other.

Each carries its provenance (short config hash and run seed) in one envelope
per container kind: a first line ``# config_hash=<hash> seed=<seed>`` in CSV
and text files, ``config_hash``/``seed`` fields in JSON objects, and
``_prov.*`` records in checkpoints.  Readers raise ``DataFormatError`` naming
the file (``core.naming``) for anything else; ``ensure_same_provenance``
refuses to mix runs.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

from .config import UNIT
from .core import Action, DataFormatError, SoccersumError, naming, open_input, open_output
from .evaluation import format_csv
from .features import QualifierCodebook
from .io import Dataset, _read_json as _read_json_file
from .neural import load_checkpoint, save_checkpoint

_SCORES_COLUMNS = "match_id,event_index,score"


@dataclass(frozen=True)
class Provenance:
    config_hash: str
    seed: int

    @classmethod
    def of(cls, config) -> Provenance:
        """The provenance of a run under ``config`` (a ``PipelineConfig``)."""
        return cls(config.config_hash(), config["seed"])


def ensure_same_provenance(tagged: list[tuple[str, Provenance]]) -> Provenance:
    """Accept a non-empty list of (path, provenance); all entries must agree."""
    first_path, first = tagged[0]
    for path, prov in tagged[1:]:
        if prov != first:
            raise SoccersumError(
                "artifact provenance mismatch: %s has %s seed %d but %s has %s seed %d"
                % (first_path, first.config_hash, first.seed, path,
                   prov.config_hash, prov.seed)
            )
    return first


def _write_csv(path: str, prov: Provenance, body: str) -> None:
    with open_output(path) as fh:
        fh.write("# config_hash=%s seed=%d\n" % (prov.config_hash, prov.seed))
        fh.write(body)


def _read_csv(path: str, columns: str) -> tuple[Provenance, list[str]]:
    """Provenance and data lines (line 3 on) of a CSV artifact whose column
    line is ``columns``."""
    try:
        with open_input(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError("not UTF-8 text (%s)" % exc) from None
    head = re.fullmatch(r"# config_hash=(\S+) seed=(-?\d+)", lines[0]) if lines else None
    if head is None:
        raise DataFormatError("first line is not a provenance header")
    if lines[1:2] != [columns]:
        raise DataFormatError("second line is not the column line %r" % columns)
    return Provenance(head.group(1), int(head.group(2))), lines[2:]


def _write_json(path: str, prov: Provenance, payload: dict) -> None:
    with open_output(path) as fh:
        json.dump(dict(payload, config_hash=prov.config_hash, seed=prov.seed), fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str, fields: tuple[str, ...]) -> tuple[Provenance, dict]:
    """Provenance and payload of a JSON artifact that must hold ``fields``."""
    payload = _read_json_file(path)
    if not isinstance(payload, dict):
        raise DataFormatError("top level is not a JSON object")
    config_hash, seed = payload.get("config_hash"), payload.get("seed")
    if not (isinstance(config_hash, str) and type(seed) is int):
        raise DataFormatError("malformed provenance (config_hash %r, seed %r)"
                              % (config_hash, seed))
    missing = [f for f in fields if f not in payload]
    if missing:
        raise DataFormatError("missing field(s) %s" % ", ".join(missing))
    return Provenance(config_hash, seed), payload


def save_model_checkpoint(path: str, ckpt: dict, prov: Provenance) -> None:
    out = dict(ckpt)
    out["_prov.seed"] = np.array([float(prov.seed)])
    out["_prov.hash"] = np.array([float(ord(c)) for c in prov.config_hash])
    save_checkpoint(out, path)


def load_model_checkpoint(path: str) -> tuple[dict, Provenance]:
    ckpt = load_checkpoint(path)
    seed, code = ckpt.pop("_prov.seed", None), ckpt.pop("_prov.hash", None)
    with naming(path):
        if seed is None or code is None:
            raise DataFormatError("checkpoint missing provenance records")
        if (seed.shape != (1,) or not seed[0].is_integer()
                or not np.all((code >= 0) & (code < 0x110000))):  # Unicode code points
            raise DataFormatError("malformed provenance records")
    return ckpt, Provenance("".join(chr(int(v)) for v in code.ravel()), int(seed[0]))


def _write_series(path: str, prov: Provenance, columns: str,
                  series: dict[str, np.ndarray]) -> None:
    """One ``match_id,index,value`` row per element of each match's array."""
    rows = [columns + "\n"]
    for match_id in sorted(series):
        rows += ["%s,%d,%.10f\n" % (match_id, i, v) for i, v in enumerate(series[match_id])]
    _write_csv(path, prov, "".join(rows))


def write_scores_csv(path: str, prov: Provenance, scores: dict[str, np.ndarray]) -> None:
    _write_series(path, prov, _SCORES_COLUMNS, scores)


def write_theta_csv(path: str, prov: Provenance, theta: dict[str, np.ndarray]) -> None:
    _write_series(path, prov, "match_id,proposal_index,theta", theta)


def read_scores_csv(path: str) -> tuple[Provenance, dict[str, np.ndarray]]:
    """Provenance and per-match scores: indices 0..n-1, scores in ``UNIT``."""
    with naming(path):
        prov, lines = _read_csv(path, _SCORES_COLUMNS)
        rows: dict[str, list[tuple[int, float]]] = {}
        for lineno, line in enumerate(lines, start=3):
            if not line:
                continue
            try:
                match_id, idx, score = line.split(",")
                pair = (int(idx), float(score))
            except ValueError:
                raise DataFormatError("line %d: bad scores row %r" % (lineno, line)) from None
            if pair[0] < 0 or not UNIT[1](pair[1]):
                raise DataFormatError("line %d: negative index or a score that is not %s in %r"
                                      % (lineno, UNIT[0], line))
            rows.setdefault(match_id, []).append(pair)
        out = {}
        for match_id, pairs in rows.items():
            pairs.sort()
            for j, (k, _s) in enumerate(pairs):
                if k != j:
                    raise DataFormatError("match %r: %s event index %d" % (
                        match_id, "duplicate" if k < j else "missing", min(j, k)))
            out[match_id] = np.array([s for _, s in pairs])
    return prov, out


def write_features_csv(path: str, prov: Provenance, names, rows) -> None:
    """Per-event feature vectors of one match, one row per event."""
    lines = ["event_index," + ",".join(names) + "\n"]
    lines += ["%d," % i + ",".join("%.6f" % v for v in row) + "\n"
              for i, row in enumerate(rows)]
    _write_csv(path, prov, "".join(lines))


def write_proposals_json(path: str, prov: Provenance,
                         proposals: dict[str, list[Action]]) -> None:
    _write_json(path, prov, {"matches": {match_id: [a.record() for a in actions]
                                         for match_id, actions in sorted(proposals.items())}})


def read_proposals_json(path: str, dataset: Dataset
                        ) -> tuple[Provenance, dict[str, list[Action]]]:
    """Provenance and per-match proposals of a proposals file."""
    with naming(path):
        prov, payload = _read_json(path, ("matches",))
        matches = payload["matches"]
        if not isinstance(matches, dict) or not all(isinstance(v, list) for v in matches.values()):
            raise DataFormatError("\"matches\" must map match ids to lists")
        out = {}
        for match_id, recs in matches.items():
            n = len(dataset.by_id(match_id).events)
            with naming("match %r", match_id):
                out[match_id] = [Action.from_record(r, n) for r in recs]
    return prov, out


def write_candidates_json(path: str, prov: Provenance, match_id: str, budget: float,
                          candidates, proposals: list[Action]) -> None:
    _write_json(path, prov, {
        "match_id": match_id,
        "budget": round(budget, 6),
        "candidates": [{
            "sample_index": c.sample_index,
            "ranking": [int(i) for i in c.ranking],
            "chosen": [dict(proposals[i].record(), proposal_index=int(i)) for i in c.chosen],
            "total_duration": round(c.total_duration, 6),
            "over_budget": c.over_budget,
        } for c in candidates],
    })


def write_features_json(path: str, prov: Provenance, codebook: QualifierCodebook,
                        vocab: set[tuple[str, ...]]) -> None:
    _write_json(path, prov, {
        "qualifier_codebook": codebook.to_dict(),
        "action_vocabulary": sorted([list(seq) for seq in vocab]),
    })


def read_features_json(path: str):
    """Provenance, qualifier codebook and action vocabulary of a stage-1
    features file."""
    with naming(path):
        prov, payload = _read_json(path, ("qualifier_codebook", "action_vocabulary"))
        book, vocab = payload["qualifier_codebook"], payload["action_vocabulary"]
        dims, codes = (book.get("dims"), book.get("codes")) if isinstance(book, dict) else (0, 0)
        if not (type(dims) is int and isinstance(codes, list) and len(codes) < dims
                and all(type(c) is int for c in codes)):
            raise DataFormatError("qualifier_codebook is not fewer than \"dims\" integer codes")
        if not (isinstance(vocab, list) and all(isinstance(seq, list) and seq and all(
                isinstance(t, str) for t in seq) for seq in vocab)):
            raise DataFormatError("action_vocabulary is not a list of event-type sequences")
    return prov, QualifierCodebook.from_dict(book), {tuple(seq) for seq in vocab}


def write_fold_result(path: str, prov: Provenance, result) -> None:
    """``fold_result.json`` from a ``pipeline.FoldResult``."""
    _write_json(path, prov, asdict(result))


def write_train_log(path: str, prov: Provenance, models: dict) -> None:
    """``train_log.jsonl``: a line with the provenance, then for each
    ``stage -> model`` of ``models`` (a ``MilModel`` or ``HmaModel``) one
    line per row of its history and a last line with its best epoch and
    stop reason.  No line holds a wall time, so reruns and every ``--jobs``
    value write the same bytes."""
    lines = [{"config_hash": prov.config_hash, "seed": prov.seed}]
    for stage, model in models.items():
        lines += [dict(row, stage=stage) for row in model.history]
        lines.append({"stage": stage, "best_epoch": model.best_epoch, "stop": model.stop})
    with open_output(path) as fh:
        # float32 losses are not JSON floats: default= widens them exactly
        fh.writelines(json.dumps(line, sort_keys=True, default=float) + "\n" for line in lines)


def write_results(out_dir: str, prov: Provenance, result) -> None:
    """The report tables of a ``pipeline.ProtocolResult`` under ``out_dir/results``."""
    res_dir = os.path.join(out_dir, "results")
    for name, table in result.tables.items():
        _write_csv(os.path.join(res_dir, "%s.csv" % name), prov, format_csv(*table))
    _write_csv(os.path.join(res_dir, "results.txt"), prov, "\n" + result.text)
