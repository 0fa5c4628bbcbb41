"""Counterfactual-pair data model, JSONL I/O, featurization, environment
partitioning, and the synthetic pair generator.

Examples and training units (Example, PairedExample) are NamedTuple records:
immutable, hashable, equal field by field, and cheap to build by the
thousand. Loading reads and decodes each JSONL file once, parses it, and
checks the pairing as it groups the examples into units (pair_examples), by
one rule for every file: an original alone, or with its counterfactual. A
file of originals with distinct pair_ids is checked by those two facts
alone, with no units built. A file whose every line is one that dump_jsonl
writes with no escape in it is parsed in one regex pass over the text. Every
other file is parsed line by line, so that every error names its line: each
line is one call of json's C scanner, and only a line that fails it goes
through json.loads, whose message the error carries. Writing formats each
line from json's own string escaper, byte for byte what
json.dumps(sort_keys=True) writes. Each config class takes its dict form
from its fields (DictConfig).

Featurization has one implementation, featurize_matrix: the tokens of a list
of examples are looked up once as integer ids (TokenIds), a mask removes ids
with np.isin, and the L1-normalized counts are one np.bincount divided by the
row totals. Callers that score the same examples repeatedly (the probe, the
ablation runs) keep the TokenIds and featurize from them.

The generator realizes a token-level feature model with four disjoint
vocabulary groups: edited-causal tokens (replaced by the counterfactual edit),
non-edited causal tokens, label-correlated tokens whose alignment strength is
controlled per split, and label-free noise tokens. It draws from one
random.Random(seed) through its public getrandbits and random methods only:
each token draw (_draws) and each swap of a sentence's shuffle makes the
getrandbits calls that random.Random.choice and shuffle make, in the same
order, without their two Python frames per draw. So the data are byte for
byte the ones that choice and shuffle gave.
"""

from __future__ import annotations

import copy
import json
import json.encoder
import json.scanner
import math
import random
import re
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

ENV_ORIGINAL = "e_ori"
ENV_COUNTERFACTUAL = "e_cad"

VARIANT_ORIGINAL = "original"
VARIANT_COUNTERFACTUAL = "counterfactual"

GROUP_NAMES = ("edited_causal", "nonedited_causal", "correlated", "noise")
# the generator config's tokens_per_group keys: one token count per group
GROUP_COUNT_KEYS = ("edited", "nonedited", "correlated", "noise")


class DataError(ValueError):
    """Base class for data validation failures."""


class ParseError(DataError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class PairingError(DataError):
    def __init__(self, pair_id, message):
        super().__init__(f"pair {pair_id!r}: {message}")
        self.pair_id = pair_id


class EmptyEnvironmentError(DataError):
    pass


# the OSErrors of a path that names no readable file: bad input, not a runtime failure
NOT_A_FILE = (FileNotFoundError, IsADirectoryError, NotADirectoryError)
# json's scanner raises RecursionError on a value nested deeper than the stack allows
NESTED_TOO_DEEPLY = "invalid JSON: nested too deeply"


class Example(NamedTuple):
    id: str
    tokens: tuple[str, ...]
    label: int
    pair_id: str
    variant: str           # "original" | "counterfactual"


class PairedExample(NamedTuple):
    """A training unit: an original and (for augmented data) its counterfactual."""
    original: Example
    counterfactual: Example | None = None

    def members(self) -> tuple[Example, ...]:
        if self.counterfactual is None:
            return (self.original,)
        return (self.original, self.counterfactual)


@dataclass(frozen=True)
class FeatureGroups:
    """Global token-type partition of the generator vocabulary."""
    edited_causal: frozenset[str]
    nonedited_causal: frozenset[str]
    correlated: frozenset[str]
    noise: frozenset[str]

    def __post_init__(self):
        sets = [self.edited_causal, self.nonedited_causal, self.correlated, self.noise]
        total = sum(len(s) for s in sets)
        union = frozenset().union(*sets)
        if len(union) != total:
            raise DataError("feature groups must be pairwise disjoint")

    def by_name(self, name: str) -> frozenset[str]:
        if name not in GROUP_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {name: sorted(self.by_name(name)) for name in GROUP_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureGroups":
        missing = [name for name in GROUP_NAMES if name not in d]
        if missing:
            raise DataError(f"feature groups lack {missing}")
        for name in GROUP_NAMES:
            if not isinstance(d[name], list) or not all(isinstance(t, str) for t in d[name]):
                raise DataError(f"feature group {name!r} is not a list of strings")
        return cls(**{name: frozenset(d[name]) for name in GROUP_NAMES})


def is_int(value) -> bool:
    # bool is an int subclass: `"label": true` must not load as class 1
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float, and not a bool."""
    return is_int(value) or isinstance(value, float) and math.isfinite(value)


class DictConfig:
    """The dict form of a dataclass config, one key per field and each value
    a copy, and its inverse, which rejects any other key with ERROR naming
    the KIND of config."""
    KIND = ""
    ERROR = ValueError

    def to_dict(self) -> dict:
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise cls.ERROR(f"unknown {cls.KIND} config keys: {sorted(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# JSONL I/O

_REQUIRED_FIELDS = ("id", "text", "label", "pair_id", "variant")
_FIELD_SET = frozenset(_REQUIRED_FIELDS)
# what json.loads runs on a line that holds one value and nothing else
_scan_once = json.scanner.make_scanner(json.JSONDecoder())
# the string escaper of json.dumps (ensure_ascii=True)
_escape = json.encoder.encode_basestring_ascii


def load_jsonl(path) -> list[Example]:
    """Load and validate examples from a JSONL file, training or evaluation
    split alike: each pair_id names an original alone or an original and a
    counterfactual with another label (pair_examples). Other keys are
    ignored, such as the per-line "groups" that older files carry. A line
    that is not UTF-8 text or not a JSON object is a ParseError.
    """
    examples = _read_jsonl(path)
    # an evaluation split of originals, each with a pair_id of its own, needs
    # no grouping; any other file is checked by grouping it
    if (VARIANT_COUNTERFACTUAL in [ex.variant for ex in examples]
            or len({ex.pair_id for ex in examples}) != len(examples)):
        pair_examples(examples)
    return examples


def _read_jsonl(path) -> list[Example]:
    """The examples of a JSONL file, in file order, with their pairing not
    yet checked. A file that dump_jsonl wrote with no escape in it is read in
    one pass (_read_dumped); any other file line by line, with the same
    examples and errors."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text, bad = raw.decode("utf-8"), None
    except UnicodeDecodeError as e:
        # the lines before the undecodable one are checked first, as a
        # line-by-line read would; no UTF-8 sequence spans a newline, so
        # e.reason is the one that decoding that line alone gives
        text, bad = raw[:raw.rfind(b"\n", 0, e.start) + 1].decode("utf-8"), e
    dumped = _read_dumped(text) if bad is None else None
    if dumped is not None:
        return dumped
    examples: list[Example] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        except ValueError as e:     # an int longer than int() converts
            raise ParseError(path, line_no, str(e).partition(";")[0]) from e
        except RecursionError as e:
            raise ParseError(path, line_no, NESTED_TOO_DEEPLY) from e
        if end != len(line):
            # json.loads gives the message: a BOM, "Extra data" and the rest
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(path, line_no, f"invalid JSON: {e.msg}") from e
        if not isinstance(obj, dict):
            raise ParseError(path, line_no, "expected a JSON object")
        if not obj.keys() >= _FIELD_SET:
            missing = next(f for f in _REQUIRED_FIELDS if f not in obj)
            raise ParseError(path, line_no, f"missing field {missing!r}")
        variant, label = obj["variant"], obj["label"]
        if variant not in (VARIANT_ORIGINAL, VARIANT_COUNTERFACTUAL):
            raise ParseError(path, line_no, f"bad variant {variant!r}")
        # json decodes integers as exact ints, so this is is_int: true and false fail it
        if type(label) is not int or label < 0:
            raise ParseError(path, line_no, f"label must be a non-negative int, got {label!r}")
        examples.append(Example(str(obj["id"]), tuple(str(obj["text"]).split()), label,
                                str(obj["pair_id"]), variant))
    if bad is not None:
        raise ParseError(path, raw.count(b"\n", 0, bad.start) + 1,
                         f"not UTF-8 text: {bad.reason}") from bad
    return examples


def pair_examples(examples: list[Example]) -> list[PairedExample]:
    """Group examples into training units by pair_id, in file order, checking
    each unit: an original and a counterfactual with another label, or an
    original alone. A counterfactual alone, or a pair_id shared by anything
    else, is a PairingError."""
    by_pair: dict[str, list[Example]] = {}
    for ex in examples:
        by_pair.setdefault(ex.pair_id, []).append(ex)
    units = []
    for pair_id, members in by_pair.items():
        if len(members) == 1:
            if members[0].variant == VARIANT_COUNTERFACTUAL:
                raise PairingError(pair_id, "counterfactual without its original")
            units.append(PairedExample(members[0]))
        elif len(members) == 2:
            variants = {m.variant for m in members}
            if variants != {VARIANT_ORIGINAL, VARIANT_COUNTERFACTUAL}:
                raise PairingError(pair_id, f"expected one original and one counterfactual, got {sorted(variants)}")
            if members[0].label == members[1].label:
                raise PairingError(pair_id, f"paired labels must differ, both are {members[0].label}")
            if members[0].variant == VARIANT_COUNTERFACTUAL:
                members.reverse()
            units.append(PairedExample(*members))
        else:
            raise PairingError(pair_id, f"{len(members)} examples share this pair_id")
    return units


def dump_jsonl(examples: list[Example], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(_jsonl_line, examples))


def _jsonl_line(ex: Example) -> str:
    """json.dumps(the record, sort_keys=True) and a newline. An int label
    and str fields are formatted here with json's own escaper; any other
    record goes through json.dumps, for its bytes or its exception."""
    text = " ".join(ex.tokens)
    if type(ex.label) is int:
        try:
            return (f'{{"id": {_escape(ex.id)}, "label": {int.__repr__(ex.label)}, '
                    f'"pair_id": {_escape(ex.pair_id)}, "text": {_escape(text)}, '
                    f'"variant": {_escape(ex.variant)}}}\n')
        except TypeError:       # a field that is not a str
            pass
    return json.dumps({"id": ex.id, "text": text, "label": ex.label, "pair_id": ex.pair_id,
                       "variant": ex.variant}, sort_keys=True) + "\n"


# a line that _jsonl_line writes with no escape in it: each string is printable
# ASCII but '"' and '\\', so what it captures is what json decodes, and the label
# is a JSON int with no sign, fraction or exponent, of at most 640 digits, which
# int() converts under any limit that sys.set_int_max_str_digits allows
_STR = r'"([ !#-\[\]-~]*)"'
_DUMPED_LINE = re.compile(rf'^\{{"id": {_STR}, "label": (0|[1-9][0-9]{{0,639}}), "pair_id": {_STR}, '
                          rf'"text": {_STR}, "variant": "(original|counterfactual)"\}}$', re.M)


def _read_dumped(text: str) -> list[Example] | None:
    """The examples of a text whose every line is a _DUMPED_LINE, as the
    per-line parse gives them, read in one pass; None for any other text.
    No match spans a newline, so as many matches as lines means all match."""
    if not _DUMPED_LINE.match(text):
        # most other files show it on their first line: CRLF, a BOM, other keys
        return None
    rows = _DUMPED_LINE.findall(text)
    if len(rows) != text.count("\n") + (not text.endswith("\n")):
        return None
    return [tuple.__new__(Example, (id, tuple(words.split()), int(label), pair_id, variant))
            for id, label, pair_id, words, variant in rows]


# ---------------------------------------------------------------------------
# featurization

class Vocab:
    """Token index built from the training split only; one OOV bucket at the end."""

    def __init__(self, tokens):
        self.tokens = tuple(sorted(set(tokens)))
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.oov_index = len(self.tokens)
        self.size = len(self.tokens) + 1

    @classmethod
    def from_examples(cls, examples) -> "Vocab":
        toks = []
        for ex in examples:
            toks.extend(ex.tokens)
        return cls(toks)


@dataclass(frozen=True)
class TokenIds:
    """The tokens of a list of rows, looked up once and kept as integer ids.

    ``table`` holds the distinct tokens (sorted), ``ids`` the table index of
    every token, row after row, and ``lengths`` the token count of each row.
    The ids do not depend on a vocabulary, so one TokenIds serves every
    vocabulary and every mask; a token outside a vocabulary keeps its own id
    until featurize_matrix has applied the mask.
    """
    table: tuple[str, ...]
    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def from_tokens(cls, token_lists) -> "TokenIds":
        token_lists = list(token_lists)
        flat = list(chain.from_iterable(token_lists))
        table = tuple(sorted(set(flat)))
        index = {t: i for i, t in enumerate(table)}
        ids = np.fromiter(map(index.__getitem__, flat), dtype=np.intp, count=len(flat))
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        return cls(table, ids, lengths)

    @classmethod
    def from_examples(cls, examples) -> "TokenIds":
        return cls.from_tokens(ex.tokens for ex in examples)

    def __len__(self) -> int:
        return len(self.lengths)


def featurize_matrix(examples, vocab: Vocab, mask_tokens: frozenset | set | None = None) -> np.ndarray:
    """L1-normalized token counts over the vocabulary, one row per example,
    with unknown tokens in the OOV bucket. ``examples`` is a list of examples
    or their TokenIds. mask_tokens are removed before counting (the inputs are
    never mutated); a row left without tokens is all zeros."""
    tids = examples if isinstance(examples, TokenIds) else TokenIds.from_examples(examples)
    n, V = len(tids), vocab.size
    ids = tids.ids
    rows = np.repeat(np.arange(n), tids.lengths)
    if mask_tokens:
        keep = ~np.isin(ids, [i for i, t in enumerate(tids.table) if t in mask_tokens])
        ids, rows = ids[keep], rows[keep]
    column = np.array([vocab.index.get(t, vocab.oov_index) for t in tids.table], dtype=np.intp)
    counts = np.bincount(rows * V + column[ids], minlength=n * V).reshape(n, V)
    totals = np.bincount(rows, minlength=n)
    # integer counts over the integer row total: the exact quotient of each float division
    return counts / np.maximum(totals, 1)[:, None]


def featurize(tokens, vocab: Vocab) -> np.ndarray:
    """featurize_matrix for one token sequence."""
    return featurize_matrix(TokenIds.from_tokens([tokens]), vocab)[0]


def featurize_sparse(tokens, vocab: Vocab) -> list[tuple[int, float]]:
    """Sparse (index, weight) view of featurize(), for the graph-building encoder."""
    x = featurize(tokens, vocab)
    return [(int(i), float(x[i])) for i in np.flatnonzero(x)]


# ---------------------------------------------------------------------------
# environment partitioning

def partition_environments(examples, alpha: float, mode: str = "disjoint") -> dict[str, list[Example]]:
    """Split examples into the training environments used by the invariance penalty.

    mode="disjoint": e_ori holds the originals, e_cad the counterfactuals.
    mode="overlap":  e_ori holds the originals, e_cad the full augmented set
                     (originals plus counterfactuals).
    With alpha == 0 no penalty is computed, so a single non-empty environment
    is accepted; with alpha > 0 both environments must be non-empty.
    """
    if mode not in ("disjoint", "overlap"):
        raise ValueError(f"unknown environment mode {mode!r}")
    originals = [ex for ex in examples if ex.variant == VARIANT_ORIGINAL]
    counterfactuals = [ex for ex in examples if ex.variant == VARIANT_COUNTERFACTUAL]
    if mode == "disjoint":
        envs = {ENV_ORIGINAL: originals, ENV_COUNTERFACTUAL: counterfactuals}
    else:
        envs = {ENV_ORIGINAL: originals, ENV_COUNTERFACTUAL: list(examples)}
    if alpha > 0.0:
        for name, members in envs.items():
            if not members:
                raise EmptyEnvironmentError(
                    f"environment {name!r} is empty but the invariance weight is {alpha}")
    return {name: members for name, members in envs.items() if members}


# ---------------------------------------------------------------------------
# synthetic generator

@dataclass
class GeneratorConfig(DictConfig):
    KIND = "generator"
    ERROR = DataError

    n_pairs: int = 2000
    n_classes: int = 2
    tokens_per_group: dict = field(default_factory=lambda: {
        "edited": 4, "nonedited": 4, "correlated": 4, "noise": 8})
    rho_train: float = 0.9
    rho_ood: float | None = None      # defaults to 1 - rho_train
    edit_scope: float = 0.5           # fraction of causal slots that are editable
    sentence_length: int = 10
    causal_per_sentence: int = 4
    correlated_per_sentence: int = 1
    n_ood: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_pairs", "n_classes", "sentence_length", "causal_per_sentence",
                     "correlated_per_sentence", "n_ood", "seed"):
            if not is_int(getattr(self, name)):
                raise DataError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("rho_train", "rho_ood", "edit_scope"):
            value = getattr(self, name)
            if not (is_number(value) or name == "rho_ood" and value is None):
                raise DataError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            # random.Random seeds with the absolute value: -5 would give seed 5's data
            raise DataError("seed must be >= 0")
        if self.n_pairs < 1:
            raise DataError("n_pairs must be >= 1")
        if self.n_ood < 0 or self.correlated_per_sentence < 0:
            raise DataError("n_ood and correlated_per_sentence must be >= 0")
        if self.n_classes < 2:
            raise DataError("n_classes must be >= 2")
        if not 0.0 <= self.rho_train <= 1.0:
            raise DataError("rho_train must be in [0, 1]")
        if self.rho_ood is None:
            self.rho_ood = 1.0 - self.rho_train
        if not 0.0 <= self.rho_ood <= 1.0:
            raise DataError("rho_ood must be in [0, 1]")
        if not 0.0 < self.edit_scope < 1.0:
            raise DataError("edit_scope must be in (0, 1)")
        if not isinstance(self.tokens_per_group, dict):
            raise DataError("tokens_per_group must be an object of per-group token counts")
        unknown = set(self.tokens_per_group) - set(GROUP_COUNT_KEYS)
        if unknown:
            raise DataError(f"unknown tokens_per_group keys: {sorted(unknown)}")
        for key in GROUP_COUNT_KEYS:
            count = self.tokens_per_group.get(key, 0)
            if not is_int(count) or count < 1:
                raise DataError(f"tokens_per_group[{key!r}] must be an int >= 1")
        if self.causal_per_sentence < 2:
            raise DataError("causal_per_sentence must be >= 2 (edited and non-edited slots)")
        min_len = self.causal_per_sentence + self.correlated_per_sentence
        if self.sentence_length < min_len + 1:
            raise DataError(f"sentence_length must be >= {min_len + 1} to leave room for noise")

    @property
    def edited_per_sentence(self) -> int:
        k = round(self.edit_scope * self.causal_per_sentence)
        return min(max(k, 1), self.causal_per_sentence - 1)


@dataclass
class GeneratedDataset:
    train_pairs: list[PairedExample]
    ood: list[Example]
    ood_stress: list[Example]
    groups: FeatureGroups
    config: GeneratorConfig

    def train_examples(self) -> list[Example]:
        out = []
        for p in self.train_pairs:
            out.extend(p.members())
        return out


def _build_group_tokens(cfg: GeneratorConfig):
    tpg = cfg.tokens_per_group
    edited = {c: [f"edit{c}_{i}" for i in range(tpg["edited"])] for c in range(cfg.n_classes)}
    nonedited = {c: [f"non{c}_{i}" for i in range(tpg["nonedited"])] for c in range(cfg.n_classes)}
    correlated = {c: [f"cor{c}_{i}" for i in range(tpg["correlated"])] for c in range(cfg.n_classes)}
    noise = [f"noise_{i}" for i in range(tpg["noise"])]
    groups = FeatureGroups(
        edited_causal=frozenset(t for ts in edited.values() for t in ts),
        nonedited_causal=frozenset(t for ts in nonedited.values() for t in ts),
        correlated=frozenset(t for ts in correlated.values() for t in ts),
        noise=frozenset(noise),
    )
    return edited, nonedited, correlated, noise, groups


def _draws(getrandbits, seq, count: int) -> list:
    """count draws of random.Random.choice(seq), each made with the
    getrandbits calls that choice makes on Python 3.10 to 3.13: an index of
    len(seq).bit_length() bits, drawn again while it is not below len(seq)."""
    n = len(seq)
    k = n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(seq[r])
    return out


def generate_cad(cfg: GeneratorConfig) -> GeneratedDataset:
    """Generate paired training data plus two OOD evaluation splits.

    Training originals carry edited and non-edited causal tokens consistent
    with their label and correlated tokens aligned with probability rho_train;
    each counterfactual flips the label and replaces exactly the edited-causal
    token positions, keeping everything else verbatim. The OOD split uses
    rho_ood for the correlated alignment; its stress variant additionally
    removes every edited-causal token. Deterministic given cfg.seed.
    """
    rng = random.Random(cfg.seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    edited, nonedited, correlated, noise, groups = _build_group_tokens(cfg)
    edited_causal = groups.edited_causal
    k_e = cfg.edited_per_sentence
    k_u = cfg.causal_per_sentence - k_e
    k_r = cfg.correlated_per_sentence
    k_n = cfg.sentence_length - cfg.causal_per_sentence - k_r
    others = [[c for c in range(cfg.n_classes) if c != y] for y in range(cfg.n_classes)]
    # random.Random.shuffle's draws: position i swaps with one below i + 1
    swaps = [(i, (i + 1).bit_length()) for i in range(cfg.sentence_length - 1, 0, -1)]
    new = tuple.__new__

    def sentence(label, rho):
        toks = _draws(getrandbits, edited[label], k_e)
        toks += _draws(getrandbits, nonedited[label], k_u)
        for _ in range(k_r):
            cls = label if uniform() < rho else _draws(getrandbits, others[label], 1)[0]
            toks += _draws(getrandbits, correlated[cls], 1)
        toks += _draws(getrandbits, noise, k_n)
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            toks[i], toks[j] = toks[j], toks[i]
        return toks

    pairs = []
    for i in range(cfg.n_pairs):
        y = i % cfg.n_classes
        y_star = (y + 1) % cfg.n_classes
        toks = sentence(y, cfg.rho_train)
        # the k_e edited tokens, in sentence order, each replaced by a fresh draw
        edit = iter(_draws(getrandbits, edited[y_star], k_e)).__next__
        cf_toks = tuple([edit() if t in edited_causal else t for t in toks])
        pid = f"p{i:06d}"
        pairs.append(new(PairedExample, (
            new(Example, (f"{pid}o", tuple(toks), y, pid, VARIANT_ORIGINAL)),
            new(Example, (f"{pid}c", cf_toks, y_star, pid, VARIANT_COUNTERFACTUAL)))))

    ood = []
    ood_stress = []
    for i in range(cfg.n_ood):
        y = i % cfg.n_classes
        toks = sentence(y, cfg.rho_ood)
        pid = f"q{i:06d}"
        ood.append(new(Example, (f"{pid}o", tuple(toks), y, pid, VARIANT_ORIGINAL)))
        ood_stress.append(new(Example, (f"{pid}s", tuple([t for t in toks if t not in edited_causal]),
                                        y, f"{pid}s", VARIANT_ORIGINAL)))
    return GeneratedDataset(pairs, ood, ood_stress, groups, cfg)


def write_dataset(dataset: GeneratedDataset, out_dir) -> dict:
    """Write train/ood/ood_stress JSONL files, the token-group partition
    (groups.json) and the generator config."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train": os.path.join(out_dir, "train.jsonl"),
        "ood": os.path.join(out_dir, "ood.jsonl"),
        "ood_stress": os.path.join(out_dir, "ood_stress.jsonl"),
        "groups": os.path.join(out_dir, "groups.json"),
        "config": os.path.join(out_dir, "generator_config.json"),
    }
    dump_jsonl(dataset.train_examples(), paths["train"])
    dump_jsonl(dataset.ood, paths["ood"])
    dump_jsonl(dataset.ood_stress, paths["ood_stress"])
    with open(paths["groups"], "w", encoding="utf-8") as fh:
        json.dump(dataset.groups.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(dataset.config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def read_json_file(path, parse):
    """parse(the JSON object in a file). A path that names no file, bytes
    that are not UTF-8, invalid JSON, another JSON value, or a DataError or
    TypeError from parse is a DataError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as e:
        raise DataError(f"{path}: file not found") from e
    except NOT_A_FILE as e:
        raise DataError(f"{path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON: {e}") from e
    except RecursionError as e:
        raise DataError(f"{path}: {NESTED_TOO_DEEPLY}") from e
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    try:
        return parse(payload)
    except (DataError, TypeError) as e:
        raise DataError(f"{path}: {e}") from e


def read_groups(path) -> FeatureGroups:
    """Load a groups.json file written by write_dataset()."""
    return read_json_file(path, FeatureGroups.from_dict)


def read_dataset(data_dir) -> GeneratedDataset:
    """Load a dataset directory produced by write_dataset(). Every file but
    ood_stress.jsonl must be there; the generator config is the one that
    made the data, since fingerprints are computed from it."""
    import os
    train = pair_examples(_read_jsonl(os.path.join(data_dir, "train.jsonl")))
    ood = load_jsonl(os.path.join(data_dir, "ood.jsonl"))
    stress_path = os.path.join(data_dir, "ood_stress.jsonl")
    ood_stress = load_jsonl(stress_path) if os.path.exists(stress_path) else []
    groups = read_groups(os.path.join(data_dir, "groups.json"))
    cfg = read_json_file(os.path.join(data_dir, "generator_config.json"),
                            GeneratorConfig.from_dict)
    return GeneratedDataset(train, ood, ood_stress, groups, cfg)
