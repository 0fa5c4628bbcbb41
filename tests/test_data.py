import collections
import hashlib
import json
import math
import pathlib
import random
import sys
import tracemalloc
from dataclasses import MISSING, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cadlab.data import (
    DataError, EmptyEnvironmentError, Example, FeatureGroups, GeneratorConfig,
    PairedExample, PairingError, ParseError, TokenIds, Vocab, csv_text,
    dump_jsonl, featurize_matrix, featurize_sparse, generate_cad,
    load_jsonl, pair_examples, partition_environments, read_dataset, write_dataset,
)
from cadlab import data
from cadlab.model import ModelConfig
from cadlab.training import TrainConfig


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _row(id, text, label, pair_id, variant):
    return {"id": id, "text": text, "label": label, "pair_id": pair_id, "variant": variant}


def test_load_valid_pair(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        _row("a", "good movie", 0, "p1", "original"),
        _row("b", "bad movie", 1, "p1", "counterfactual"),
    ])
    examples = load_jsonl(p)
    assert len(examples) == 2
    pairs = pair_examples(examples)
    assert len(pairs) == 1
    assert pairs[0].original.label == 0
    assert pairs[0].counterfactual.label == 1


def test_load_same_label_pair_is_error(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [
        _row("a", "x", 0, "p1", "original"),
        _row("b", "y", 0, "p1", "counterfactual"),
    ])
    with pytest.raises(PairingError) as exc:
        load_jsonl(p)
    assert "p1" in str(exc.value)


def test_load_empty_file(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    assert load_jsonl(p) == []


def test_a_lone_original_is_a_unit_in_any_file(tmp_path):
    """A training file may be partly augmented: an original without a
    counterfactual is a unit of its own, as in an evaluation split."""
    p = tmp_path / "d.jsonl"
    rows = [_row("a", "x", 0, "p1", "original"), _row("b", "y", 1, "p2", "original"),
            _row("b'", "z", 0, "p2", "counterfactual"), _row("c", "w", 1, "p3", "original")]
    _write_lines(p, rows)
    examples = load_jsonl(p)
    a, b, b_cf, c = examples
    assert pair_examples(examples) == [PairedExample(a), PairedExample(b, b_cf), PairedExample(c)]
    # a file of one lone original, which load_jsonl checks without grouping
    _write_lines(p, rows[:1])
    assert pair_examples(load_jsonl(p)) == [PairedExample(a)]


def test_load_counterfactual_without_original(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [_row("a", "x", 1, "p1", "counterfactual")])
    with pytest.raises(PairingError):
        load_jsonl(p)


def test_parse_error_reports_line_number(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "text": "x", "label": 0, "pair_id": "p", "variant": "original"}\nnot json\n')
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert exc.value.line_no == 2


def test_parse_error_on_missing_field_and_bad_values(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [{"id": "a", "text": "x", "label": 0, "pair_id": "p"}])
    with pytest.raises(ParseError):
        load_jsonl(p)
    _write_lines(p, [_row("a", "x", -1, "p", "original")])
    with pytest.raises(ParseError):
        load_jsonl(p)
    _write_lines(p, [_row("a", "x", 0, "p", "edited")])
    with pytest.raises(ParseError):
        load_jsonl(p)


def test_boolean_label_is_parse_error(tmp_path):
    p = tmp_path / "d.jsonl"
    _write_lines(p, [_row("a", "x", True, "p", "original")])
    with pytest.raises(ParseError, match="label"):
        load_jsonl(p)


def _undecodable_reason(line: bytes) -> str:
    """The reason that decoding this line on its own gives."""
    with pytest.raises(UnicodeDecodeError) as exc:
        line.decode("utf-8")
    return exc.value.reason


def _good_line(id="a", sort_keys=False) -> bytes:
    # with sorted keys the line is what dump_jsonl writes
    return json.dumps(_row(id, "x y", 0, id, "original"), sort_keys=sort_keys).encode()


def test_a_non_utf8_line_is_reported_at_its_own_line(tmp_path):
    p = tmp_path / "d.jsonl"
    bad = b'{"id": "caf\xe9 noir"}'
    # a blank line and a CRLF line come before it
    p.write_bytes(_good_line("a") + b"\n\n" + _good_line("b") + b"\r\n" + bad + b"\n" + _good_line("c"))
    reason = _undecodable_reason(bad + b"\n")
    assert reason == "invalid continuation byte"
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert exc.value.line_no == 4
    assert str(exc.value) == f"{p}:4: not UTF-8 text: {reason}"


def test_lines_before_a_non_utf8_line_are_checked_first(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(_good_line() + b"\nnot json\n\n\xff\n")
    with pytest.raises(ParseError, match="invalid JSON") as exc:
        load_jsonl(p)
    assert exc.value.line_no == 2


def test_a_sequence_cut_off_at_end_of_file_is_reported_on_the_last_line(tmp_path):
    p = tmp_path / "d.jsonl"
    tail = '{"id": "\u20ac'.encode()[:-1]          # the euro sign's last byte is gone
    p.write_bytes(_good_line() + b"\n" + tail)
    assert _undecodable_reason(tail) == "unexpected end of data"
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert str(exc.value) == f"{p}:2: not UTF-8 text: unexpected end of data"


def test_a_line_with_a_utf8_bom_keeps_the_json_message(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(_good_line("a") + b"\n\xef\xbb\xbf" + _good_line("b") + b"\n")
    with pytest.raises(ParseError) as exc:
        load_jsonl(p)
    assert str(exc.value) == f"{p}:2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"


def test_whitespace_only_lines_are_skipped_but_counted(tmp_path):
    p = tmp_path / "d.jsonl"
    for sort_keys in (False, True):
        lines = [_good_line("a", sort_keys), b"   ", b"\t\x0c", _good_line("b", sort_keys), b" \r"]
        p.write_bytes(b"\n".join(lines) + b"\n")
        assert [ex.id for ex in load_jsonl(p)] == ["a", "b"]
        p.write_bytes(b"\n".join(lines + [b"[1]"]) + b"\n")
        with pytest.raises(ParseError, match="expected a JSON object") as exc:
            load_jsonl(p)
        assert exc.value.line_no == 6


@pytest.mark.parametrize("line, message", [
    ('{"id": "a"} {"id": "b"}', None),          # two objects: "Extra data"
    ('{"id": "a', None),                         # an unterminated string
    ('{"id": "a", "text": "x",}', None),         # a trailing comma
    ("}", None),
    ("null", "expected a JSON object"),
    ('"s"', "expected a JSON object"),
    ("NaN", "expected a JSON object"),
    # a missing field is reported before a bad variant
    ('{"id": "a", "text": "x", "pair_id": "p", "variant": "edited"}', "missing field 'label'"),
])
def test_a_bad_line_reports_json_loads_message_at_its_line(tmp_path, line, message):
    if message is None:
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads(line)
        message = f"invalid JSON: {decode.value.msg}"
    p = tmp_path / "d.jsonl"
    for sort_keys in (False, True):
        p.write_bytes(_good_line("a", sort_keys) + b"\n" + line.encode() + b"\n"
                      + _good_line("b", sort_keys) + b"\n")
        with pytest.raises(ParseError) as exc:
            load_jsonl(p)
        assert exc.value.line_no == 2
        assert str(exc.value) == f"{p}:2: {message}"


def _read_outcome(path):
    try:
        examples = data._read_jsonl(path)
        return examples, pair_examples(examples)
    except DataError as e:
        return type(e), str(e), getattr(e, "line_no", None)


def _outcome_and_per_line_outcome(path):
    """What _read_jsonl gives (its examples and their units, or the error), and
    what it gives when the one-pass path declines every file."""
    outcome = _read_outcome(path)
    with mock.patch.object(data, "_read_dumped", lambda text: None):
        return outcome, _read_outcome(path)


def _originals_and_counterfactual_tokens(field):
    tokens = st.lists(field, max_size=3).map(tuple)
    original = st.builds(Example, id=field, tokens=tokens, label=st.integers(0, 10 ** 30 - 1),
                         pair_id=field, variant=st.just("original"))
    return st.tuples(st.lists(original, max_size=5, unique_by=lambda ex: ex.pair_id),
                     st.lists(tokens, max_size=5))


_PLAIN = st.text("ab y_0", max_size=4)
# '"', '\\', control characters, non-ASCII and lone surrogates
_ANY = st.text(st.characters(exclude_categories=()), max_size=4)


# files of plain fields only, which take the one-pass path, and files of any fields
@settings(max_examples=300, deadline=None)
@given(records=_originals_and_counterfactual_tokens(_PLAIN)
       | _originals_and_counterfactual_tokens(_PLAIN | _ANY),
       rnd=st.randoms())
def test_a_dumped_file_reads_as_the_per_line_parse_reads_it(tmp_path_factory, records, rnd):
    # the first len(cf_tokens) originals get a counterfactual of another label;
    # the rest stay lone originals, which are units on both paths
    originals, cf_tokens = records
    records = originals + [ex._replace(id=f"{ex.id}'", tokens=toks, label=ex.label + 1,
                                       variant="counterfactual")
                           for ex, toks in zip(originals, cf_tokens)]
    rnd.shuffle(records)
    p = tmp_path_factory.mktemp("dumped") / "d.jsonl"
    dump_jsonl(records, p)
    outcome, per_line = _outcome_and_per_line_outcome(p)
    assert outcome == per_line
    if isinstance(outcome[0], list):
        assert all(type(ex) is Example for ex in outcome[0])


# each edits the second (or, for the final newline, the last) of three dump_jsonl lines
_NEAR_CANONICAL = {
    "label 01": (1, '"label": 1,', '"label": 01,'),
    "label -1": (1, '"label": 1,', '"label": -1,'),
    "label 1.0": (1, '"label": 1,', '"label": 1.0,'),
    "label true": (1, '"label": 1,', '"label": true,'),
    'label "1"': (1, '"label": 1,', '"label": "1",'),
    "a BOM": (1, "{", "\ufeff{"),
    "CRLF": (1, "}\n", "}\r\n"),
    "a trailing space": (1, "}\n", "} \n"),
    "an extra key": (1, "}\n", ', "groups": {"noise": ["z"]}}\n'),
    "reordered keys": (1, '"id": "b", "label": 1', '"label": 1, "id": "b"'),
    "a blank line": (1, "{", "\n{"),
    "no final newline": (2, "}\n", "}"),
}


@pytest.mark.parametrize("case", sorted(_NEAR_CANONICAL))
def test_a_near_canonical_line_reads_as_the_per_line_parse_reads_it(tmp_path, case):
    lines = [data._jsonl_line(Example(*fields)) for fields in (
        ("a", ("x", "y"), 0, "p", "original"), ("b", ("y", "z"), 1, "p", "counterfactual"),
        ("c", ("z",), 2, "q", "original"))]
    at, old, new = _NEAR_CANONICAL[case]
    assert old in lines[at]
    lines[at] = lines[at].replace(old, new)
    text = "".join(lines)
    p = tmp_path / "d.jsonl"
    p.write_bytes(text.encode())
    # only a file whose every line dump_jsonl could have written, with LF or
    # CRLF line ends, takes one pass
    assert (data._read_dumped(text) is None) == (case not in ("CRLF", "no final newline"))
    outcome, per_line = _outcome_and_per_line_outcome(p)
    assert outcome == per_line


def _too_long(digits):
    return (f"Exceeds the limit ({digits} digits) for integer string conversion: "
            f"value has {digits + 1} digits")


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "reordered_keys"])
def test_a_label_longer_than_int_converts_is_a_parse_error_at_its_line(tmp_path, canonical):
    # in dump_jsonl's format or in another key order, on both read paths
    digits = sys.get_int_max_str_digits()
    label = "9" * (digits + 1)
    line = (f'{{"id": "b", "label": {label}, "pair_id": "b", "text": "y", "variant": "original"}}'
            if canonical else
            f'{{"label": {label}, "id": "b", "pair_id": "b", "text": "y", "variant": "original"}}')
    p = tmp_path / "d.jsonl"
    p.write_bytes(_good_line("a", sort_keys=True) + b"\n" + line.encode() + b"\n")
    outcome, per_line = _outcome_and_per_line_outcome(p)
    assert outcome == per_line == (ParseError, f"{p}:2: {_too_long(digits)}", 2)


def test_a_crlf_copy_of_a_dumped_file_is_read_in_one_pass(tmp_path):
    write_dataset(generate_cad(GeneratorConfig(n_pairs=10, n_ood=12, seed=9)), tmp_path / "data")
    lf = tmp_path / "data" / "ood.jsonl"
    lines = lf.read_bytes().split(b"\n")
    p = tmp_path / "crlf.jsonl"
    p.write_bytes(b"\r\n".join(lines))
    assert data._read_dumped(p.read_bytes().decode()) == data._read_jsonl(lf)
    # one bad line sends the file through the per-line parse, which names it
    lines[2] = lines[2].replace(b'"variant": "original"', b'"variant": "edited"')
    p.write_bytes(b"\r\n".join(lines))
    outcome, per_line = _outcome_and_per_line_outcome(p)
    assert outcome == per_line == (ParseError, f"{p}:3: bad variant 'edited'", 3)


def test_the_one_pass_read_takes_a_label_of_at_most_18_digits(tmp_path):
    """Every 18-digit label fits an int64, so the one-pass read takes it; a
    longer label goes through the per-line parse, which takes labels up to
    2**63 - 1 and rejects a larger one at its line."""
    labels = [int("9" * 18), 2 ** 63 - 1, 2 ** 63]
    lines = [data._jsonl_line(Example(str(i), ("x",), label, str(i), "original"))
             for i, label in enumerate(labels)]
    assert [ex.label for ex in data._read_dumped(lines[0])] == labels[:1]
    assert data._read_dumped(lines[1]) is None
    p = tmp_path / "d.jsonl"
    p.write_text("".join(lines[:2]))
    assert [ex.label for ex in data._read_jsonl(p)] == labels[:2]
    p.write_text("".join(lines))
    outcome, per_line = _outcome_and_per_line_outcome(p)
    assert outcome == per_line == (
        ParseError, f"{p}:3: label must be at most 2**63 - 1, got {2 ** 63}", 3)


_AWKWARD = ["caf\u00e9 \u20ac", 'say "hi"', "back\\slash", "ctl\x00\x1f\x7f\t\r", "sep\u2028\u2029",
            "lone\ud800", "\U0001f600", ""]


def test_dump_jsonl_writes_what_json_dumps_writes(tmp_path):
    records = [Example(s, (s, "plain", s[::-1]), i, f"{s}/p", "original") for i, s in enumerate(_AWKWARD)]
    # fields that are not str are written as json.dumps writes them
    records += [Example(7, ("x",), 0, None, "original"), Example("a", (), 10 ** 30, "p", "counterfactual")]
    p = tmp_path / "d.jsonl"
    dump_jsonl(records, p)
    lines = p.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps({"id": ex.id, "text": " ".join(ex.tokens), "label": ex.label,
                                 "pair_id": ex.pair_id, "variant": ex.variant}, sort_keys=True)
                     for ex in records]
    assert all(line.isascii() for line in lines)


def test_dump_jsonl_keeps_the_behaviour_of_json_dumps_for_a_label_that_is_not_an_int(tmp_path):
    p = tmp_path / "d.jsonl"
    dump_jsonl([Example("a", ("x",), True, "p", "original")], p)
    assert p.read_text() == '{"id": "a", "label": true, "pair_id": "p", "text": "x", "variant": "original"}\n'
    with pytest.raises(TypeError, match="Object of type int64 is not JSON serializable"):
        dump_jsonl([Example("a", ("x",), np.int64(1), "p", "original")], p)


def test_pairing_an_evaluation_split_checks_it_as_grouping_does():
    originals = [Example(f"{i}", ("x",), 0, f"p{i}", "original") for i in range(3)]
    assert pair_examples(originals) == [PairedExample(ex) for ex in originals]
    with pytest.raises(PairingError, match="'p1': expected one original and one counterfactual"):
        pair_examples(originals + [originals[1]._replace(id="dup")])


def test_records_are_immutable_hashable_and_equal_field_by_field():
    ex = Example(id="a", tokens=("x", "y"), label=0, pair_id="p", variant="original")
    twin = Example(id="a", tokens=("x", "y"), label=0, pair_id="p", variant="original")
    cf = Example(id="b", tokens=("z",), label=1, pair_id="p", variant="counterfactual")
    assert ex == twin and ex is not twin and hash(ex) == hash(twin)
    assert ex != Example(id="a", tokens=("x", "y"), label=1, pair_id="p", variant="original")
    unit = PairedExample(ex, cf)
    assert unit == PairedExample(twin, cf) and hash(unit) == hash(PairedExample(twin, cf))
    assert len({unit, PairedExample(twin, cf), PairedExample(ex)}) == 2
    for record, name in ((ex, "label"), (ex, "extra"), (unit, "counterfactual"), (unit, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    alone = PairedExample(ex)
    assert alone.counterfactual is None
    assert alone.members() == (ex,)
    assert unit.members() == (ex, cf)


def test_roundtrip_identity(tmp_path):
    ds = generate_cad(GeneratorConfig(n_pairs=25, n_ood=10, seed=3))
    p = tmp_path / "train.jsonl"
    dump_jsonl(ds.train_examples(), p)
    loaded = load_jsonl(p)
    assert loaded == ds.train_examples()
    lines = [json.loads(line) for line in p.read_text().splitlines()]
    assert all(sorted(row) == ["id", "label", "pair_id", "text", "variant"] for row in lines)
    # older files carry a per-line "groups" key, which loading ignores
    legacy = tmp_path / "legacy.jsonl"
    _write_lines(legacy, [{**row, "groups": {"edited": row["text"].split()[:1]}} for row in lines])
    assert load_jsonl(legacy) == loaded


def _one_row(tokens, vocab):
    """featurize_matrix's row for one token sequence."""
    return featurize_matrix(TokenIds.from_tokens([tokens]), vocab)[0]


def test_featurize_counts_and_oov():
    vocab = Vocab(["a", "b"])
    x = _one_row(["a", "a", "b"], vocab)
    assert x.shape == (3,)
    ia, ib = vocab.index["a"], vocab.index["b"]
    assert x[ia] == pytest.approx(2 / 3)
    assert x[ib] == pytest.approx(1 / 3)
    assert x[vocab.oov_index] == 0.0

    assert _one_row([], vocab).tolist() == [0.0, 0.0, 0.0]

    x = _one_row(["q"], vocab)
    assert x[vocab.oov_index] == 1.0
    assert x.sum() == 1.0


def test_featurize_sparse_matches_dense():
    vocab = Vocab(["a", "b", "c"])
    for toks in (["a", "c", "c", "zz"], [], ["b"]):
        dense = _one_row(toks, vocab)
        sparse = featurize_sparse(toks, vocab)
        rebuilt = np.zeros_like(dense)
        for i, w in sparse:
            rebuilt[i] = w
        assert np.array_equal(dense, rebuilt)


def test_partition_environments():
    ds = generate_cad(GeneratorConfig(n_pairs=100, n_ood=2, seed=1))
    examples = ds.train_examples()
    envs = partition_environments(examples, alpha=1.0, mode="disjoint")
    assert len(envs["e_ori"]) == 100
    assert len(envs["e_cad"]) == 100

    envs = partition_environments(examples, alpha=1.0, mode="overlap")
    assert len(envs["e_ori"]) == 100
    assert len(envs["e_cad"]) == 200

    originals = [ex for ex in examples if ex.variant == "original"]
    with pytest.raises(EmptyEnvironmentError):
        partition_environments(originals, alpha=0.5)
    # ERM fallback: single environment accepted when the penalty is off
    envs = partition_environments(originals, alpha=0.0)
    assert list(envs) == ["e_ori"]

    with pytest.raises(ValueError):
        partition_environments(examples, alpha=0.0, mode="bogus")


def test_generator_structure_and_balance():
    cfg = GeneratorConfig(n_pairs=201, n_ood=51, seed=11)
    ds = generate_cad(cfg)
    assert len(ds.train_pairs) == 201
    assert len(ds.ood) == 51
    assert len(ds.ood_stress) == 51

    counts = collections.Counter(p.original.label for p in ds.train_pairs)
    assert abs(counts[0] - counts[1]) <= 1
    counts = collections.Counter(e.label for e in ds.ood)
    assert abs(counts[0] - counts[1]) <= 1

    for pair in ds.train_pairs:
        o, c = pair.original, pair.counterfactual
        assert o.label != c.label
        assert len(o.tokens) == len(c.tokens) == cfg.sentence_length
        # differs exactly at edited-causal positions
        for to, tc in zip(o.tokens, c.tokens):
            if to in ds.groups.edited_causal:
                assert tc in ds.groups.edited_causal
                assert tc != to or False  # replacement draws from the other class
            else:
                assert to == tc
        # kept (non-edited + correlated + noise) multisets are identical
        kept_o = collections.Counter(t for t in o.tokens if t not in ds.groups.edited_causal)
        kept_c = collections.Counter(t for t in c.tokens if t not in ds.groups.edited_causal)
        assert kept_o == kept_c


def test_generator_group_consistency():
    cfg = GeneratorConfig(n_pairs=60, n_ood=10, seed=5)
    ds = generate_cad(cfg)
    edited_by_class = {c: {f"edit{c}_{i}" for i in range(4)} for c in (0, 1)}
    non_by_class = {c: {f"non{c}_{i}" for i in range(4)} for c in (0, 1)}
    for pair in ds.train_pairs:
        o, c = pair.original, pair.counterfactual
        assert all(t in edited_by_class[o.label] for t in o.tokens if t in ds.groups.edited_causal)
        assert all(t in edited_by_class[c.label] for t in c.tokens if t in ds.groups.edited_causal)
        assert all(t in non_by_class[o.label] for t in o.tokens if t in ds.groups.nonedited_causal)
    for ex in ds.ood_stress:
        assert not any(t in ds.groups.edited_causal for t in ex.tokens)


def test_generator_kept_tokens_carry_no_label_signal():
    """The data property that C6 in test_acceptance.py fails for, on its
    acceptance config: every kept (non-edited, correlated, noise) token occurs
    equally often under both labels, and a class-c non-edited token carries
    label c in the originals and the other label in the counterfactuals
    (the environments e_ori and e_cad in disjoint mode). The training set then
    cannot tell a non-edited causal token from a rho=1 spurious one."""
    cfg = GeneratorConfig(n_pairs=2000, rho_train=0.9, edit_scope=0.5, n_ood=1000, seed=2024)
    ds = generate_cad(cfg)
    kept = ds.groups.nonedited_causal | ds.groups.correlated | ds.groups.noise
    counts = {c: collections.Counter() for c in range(cfg.n_classes)}
    labels_by_variant = collections.defaultdict(set)
    for ex in ds.train_examples():
        counts[ex.label].update(t for t in ex.tokens if t in kept)
        for t in ex.tokens:
            if t in ds.groups.nonedited_causal:
                labels_by_variant[t, ex.variant].add(ex.label)
    assert set(counts[0]) == kept
    assert counts[0] == counts[1]
    for c in range(cfg.n_classes):
        for i in range(cfg.tokens_per_group["nonedited"]):
            assert labels_by_variant[f"non{c}_{i}", "original"] == {c}
            assert labels_by_variant[f"non{c}_{i}", "counterfactual"] == {1 - c}


def test_generator_determinism(tmp_path):
    cfg = dict(n_pairs=40, n_ood=15, seed=42)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    write_dataset(generate_cad(GeneratorConfig(**cfg)), d1)
    write_dataset(generate_cad(GeneratorConfig(**cfg)), d2)
    for name in ("train.jsonl", "ood.jsonl", "ood_stress.jsonl", "groups.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# sha256 of each file write_dataset writes for two fixed configs: a
# reordered, extra or missing random draw changes them, while
# test_generator_determinism, which compares two runs of the same code,
# would still pass
GENERATOR_DIGESTS = {
    2: {
        "train": "8c99147da1cf84ae82ca66a6b8620fe89a460b06a84283eeb1572dd5d3aa47d0",
        "ood": "f3c93f94591fe8cef85aa32b3aae1d1d1f815e8b80f1fac0ba46c8944a465370",
        "ood_stress": "2d879e66c5a8e81be1511a01ac0855660793594aa2d28d7006e30d4a1ab38d09",
        "groups": "b9178e77482729a0e8aa0e23974708e88b41bf631a0868af6e66133924167ef7",
        "config": "ec2c793d6e40fb192a554c50997e76e7698400eac8a38d03c55603b394f89ff2",
    },
    3: {
        "train": "4cc9b6dd8e6b85dcecc2f435859b2ff09b4c398e761b663e76d2cb15bd2575a3",
        "ood": "4dd01d48fb72ebc1fd9ad5008eacd0ce0e085ca879317f9430d0e08a1d0efc86",
        "ood_stress": "db18f3cd3b36fae14c49867be96f08c12bc283a37662d1cf9f9abeba15fe9ad3",
        "groups": "2c74cbdcca208b476130f313c11cf273d7fcee9eca82958f3b9de76e34cd765a",
        "config": "b23fa7427aeda19b21f31f312887bfbdc1949464050e83aa35214eb4b67e693d",
    },
}


@pytest.mark.parametrize("n_classes", sorted(GENERATOR_DIGESTS))
def test_generator_output_bytes_are_pinned(tmp_path, n_classes):
    cfg = GeneratorConfig(n_pairs=40, n_ood=15, seed=42, n_classes=n_classes)
    paths = write_dataset(generate_cad(cfg), tmp_path)
    digests = {name: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == GENERATOR_DIGESTS[n_classes]


def _reference_generate_cad(cfg):
    """generate_cad as it was written with random.Random.choice and
    shuffle, kept as the oracle for the draw-for-draw generator."""
    rng = random.Random(cfg.seed)
    choice = rng.choice
    edited, nonedited, correlated, noise, groups = data._build_group_tokens(cfg)
    edited_causal = groups.edited_causal
    k_e = cfg.edited_per_sentence
    k_u = cfg.causal_per_sentence - k_e
    k_r = cfg.correlated_per_sentence
    k_n = cfg.sentence_length - cfg.causal_per_sentence - k_r
    others = [[c for c in range(cfg.n_classes) if c != y] for y in range(cfg.n_classes)]

    def sentence(label, rho):
        toks = [choice(edited[label]) for _ in range(k_e)]
        toks += [choice(nonedited[label]) for _ in range(k_u)]
        for _ in range(k_r):
            cls = label if rng.random() < rho else choice(others[label])
            toks.append(choice(correlated[cls]))
        toks += [choice(noise) for _ in range(k_n)]
        rng.shuffle(toks)
        return toks

    pairs = []
    for i in range(cfg.n_pairs):
        y = i % cfg.n_classes
        y_star = (y + 1) % cfg.n_classes
        toks = sentence(y, cfg.rho_train)
        cf_toks = [choice(edited[y_star]) if t in edited_causal else t for t in toks]
        pid = f"p{i:06d}"
        pairs.append(PairedExample(
            Example(f"{pid}o", tuple(toks), y, pid, "original"),
            Example(f"{pid}c", tuple(cf_toks), y_star, pid, "counterfactual")))

    ood = []
    ood_stress = []
    for i in range(cfg.n_ood):
        y = i % cfg.n_classes
        toks = sentence(y, cfg.rho_ood)
        pid = f"q{i:06d}"
        ood.append(Example(f"{pid}o", tuple(toks), y, pid, "original"))
        ood_stress.append(Example(f"{pid}s", tuple([t for t in toks if t not in edited_causal]),
                                  y, f"{pid}s", "original"))
    return data.GeneratedDataset(pairs, ood, ood_stress, groups, cfg)


@st.composite
def _generator_configs(draw):
    causal = draw(st.integers(2, 6))
    correlated = draw(st.integers(0, 3))
    # 0 and 1 make every correlated slot aligned or misaligned
    rho = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return GeneratorConfig(
        n_pairs=draw(st.integers(1, 30)), n_ood=draw(st.integers(0, 20)),
        n_classes=draw(st.integers(2, 5)),
        # sizes 1 to 9: one token, powers of two and the rest, each with its own rejection rate
        tokens_per_group={group: draw(st.integers(1, 9))
                          for group in ("edited", "nonedited", "correlated", "noise")},
        rho_train=draw(rho), rho_ood=draw(rho),
        edit_scope=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        sentence_length=causal + correlated + draw(st.integers(1, 8)),
        causal_per_sentence=causal, correlated_per_sentence=correlated,
        seed=draw(st.integers(0, 2 ** 64)))


@settings(max_examples=200, deadline=None)
@given(cfg=_generator_configs())
def test_generator_draws_what_choice_and_shuffle_drew(cfg):
    got, want = generate_cad(cfg), _reference_generate_cad(cfg)
    assert got.groups == want.groups
    assert got.train_pairs == want.train_pairs
    assert got.ood == want.ood
    assert got.ood_stress == want.ood_stress
    # tuple.__new__ builds the records: they must still be the record types
    assert all(type(u) is PairedExample for u in got.train_pairs)
    assert all(type(ex) is Example for ex in got.train_examples() + got.ood + got.ood_stress)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 600), seed=st.integers(0, 2 ** 70))
@example(n=600, seed=2 ** 64)
def test_shuffle_makes_the_draws_of_random_shuffle(n, seed):
    got, want = [f"t{i}" for i in range(n)], [f"t{i}" for i in range(n)]
    rng, reference = random.Random(seed), random.Random(seed)
    data._shuffle(rng.getrandbits, got)
    reference.shuffle(want)
    assert got == want
    assert rng.getstate() == reference.getstate()


def test_csv_text_writes_floats_as_their_repr_and_other_cells_as_str():
    floats = (math.nan, math.inf, -0.0, 5e-324, 0.1 + 0.2)
    others = (7, 2 ** 70, "x y", True, False)
    text = csv_text(["a", "b", "c", "d", "e"], [floats, others])
    header, float_line, other_line, end = text.split("\n")
    assert (header, end) == ("a,b,c,d,e", "")
    assert float_line == "nan,inf,-0.0,5e-324,0.30000000000000004"
    # repr tells -0.0 and nan apart, and round-trips every other float exactly
    assert [repr(float(cell)) for cell in float_line.split(",")] == list(map(repr, floats))
    assert other_line == "7,1180591620717411303424,x y,True,False"
    assert csv_text(["a", "b"], []) == "a,b\n"


def test_generator_rho_statistics():
    cfg = GeneratorConfig(n_pairs=2500, n_ood=10, rho_train=0.9, seed=17)
    ds = generate_cad(cfg)
    cor_by_class = {c: {f"cor{c}_{i}" for i in range(4)} for c in (0, 1)}
    aligned = 0
    for pair in ds.train_pairs:
        o = pair.original
        cors = [t for t in o.tokens if t in ds.groups.correlated]
        assert len(cors) == cfg.correlated_per_sentence
        if cors[0] in cor_by_class[o.label]:
            aligned += 1
    assert abs(aligned / len(ds.train_pairs) - 0.9) < 0.05


def test_generator_rho_one_is_fully_aligned():
    ds = generate_cad(GeneratorConfig(n_pairs=100, n_ood=5, rho_train=1.0, seed=2))
    cor_by_class = {c: {f"cor{c}_{i}" for i in range(4)} for c in (0, 1)}
    for pair in ds.train_pairs:
        o = pair.original
        for t in o.tokens:
            if t in ds.groups.correlated:
                assert t in cor_by_class[o.label]


def test_generator_config_validation():
    with pytest.raises(DataError):
        GeneratorConfig(n_pairs=0)
    with pytest.raises(DataError):
        GeneratorConfig(rho_train=1.5)
    with pytest.raises(DataError):
        GeneratorConfig(edit_scope=0.0)
    with pytest.raises(DataError):
        GeneratorConfig(edit_scope=1.0)
    with pytest.raises(DataError):
        GeneratorConfig(sentence_length=4)
    with pytest.raises(DataError):
        GeneratorConfig.from_dict({"n_pairs": 10, "bogus_key": 1})
    for bad in ({"n_pairs": 10.5}, {"n_ood": -1}, {"correlated_per_sentence": -3},
                {"seed": True}, {"seed": -1}, {"tokens_per_group": {"edited": 2.5, "nonedited": 4,
                                                                    "correlated": 4, "noise": 8}}):
        with pytest.raises(DataError):
            GeneratorConfig.from_dict(bad)
    for name in ("rho_train", "rho_ood", "edit_scope"):
        for value in (True, "0.5", math.nan, math.inf, [0.5]):
            with pytest.raises(DataError, match=f"{name} must be a finite number"):
                GeneratorConfig.from_dict({name: value})
    with pytest.raises(DataError, match=r"unknown tokens_per_group keys: \['typo'\]"):
        GeneratorConfig(tokens_per_group={"edited": 4, "nonedited": 4, "correlated": 4,
                                          "noise": 8, "typo": 3})
    # an int is a number, and rho_ood may be left to default
    assert GeneratorConfig(rho_train=1, rho_ood=None, edit_scope=0.5).rho_ood == 0.0
    cfg = GeneratorConfig(rho_train=0.8)
    assert cfg.rho_ood == pytest.approx(0.2)


# every field set to a value other than its default (optimizer has no other)
NON_DEFAULT_CONFIGS = [
    GeneratorConfig(n_pairs=7, n_classes=3, tokens_per_group={
                        "edited": 2, "nonedited": 3, "correlated": 5, "noise": 6},
                    rho_train=0.8, rho_ood=0.3, edit_scope=0.25, sentence_length=12,
                    causal_per_sentence=5, correlated_per_sentence=2, n_ood=9, seed=4),
    ModelConfig(vocab_size=11, n_classes=3, embed_dim=5),
    TrainConfig(alpha=0.7, beta=0.3, learning_rate=0.01, batch_pairs=5, epochs=3, seed=8,
                env_mode="overlap", embed_dim=6),
]


@pytest.mark.parametrize("config", NON_DEFAULT_CONFIGS, ids=lambda c: type(c).__name__)
def test_config_dict_round_trips_every_field(config):
    cls = type(config)
    for f in fields(cls):
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        assert f.name == "optimizer" or getattr(config, f.name) != default, f.name
    d = config.to_dict()
    assert list(d) == [f.name for f in fields(cls)]
    restored = cls.from_dict(json.loads(json.dumps(d)))
    assert restored == config
    # the dict holds copies: emptying its dicts leaves the config as it was
    for value in d.values():
        if isinstance(value, dict):
            value.clear()
    assert config == restored
    with pytest.raises(ValueError, match=r"unknown \w+ config keys: \['bogus'\]"):
        cls.from_dict({**config.to_dict(), "bogus": 1})


def test_dataset_directory_roundtrip(tmp_path):
    ds = generate_cad(GeneratorConfig(n_pairs=30, n_ood=12, seed=9))
    write_dataset(ds, tmp_path / "data")
    loaded = read_dataset(tmp_path / "data")
    assert loaded.train_examples() == ds.train_examples()
    assert loaded.ood == ds.ood
    assert loaded.ood_stress == ds.ood_stress
    assert loaded.groups == ds.groups
    assert loaded.config.to_dict() == ds.config.to_dict()


def test_read_dataset_groups_each_file_once(tmp_path, monkeypatch):
    ds = generate_cad(GeneratorConfig(n_pairs=6, n_ood=4, seed=9))
    write_dataset(ds, tmp_path / "data")
    calls = []

    def counting(examples):
        calls.append(len(examples))
        return pair_examples(examples)

    monkeypatch.setattr(data, "pair_examples", counting)
    assert read_dataset(tmp_path / "data").train_pairs == ds.train_pairs
    # train.jsonl; ood.jsonl and ood_stress.jsonl hold distinct originals, which need no units
    assert calls == [len(ds.train_examples())]


# an evaluation split of distinct originals, and one more example that makes it need pairing
NOT_DISTINCT_ORIGINALS = {
    "a lone counterfactual": (Example("c", ("y",), 1, "q", "counterfactual"),
                              "pair 'q': counterfactual without its original"),
    "a repeated pair_id": (Example("b2", ("y",), 1, "b", "original"),
                           "pair 'b': expected one original and one counterfactual, got ['original']"),
    "a pair of one label": (Example("b'", ("y",), 1, "b", "counterfactual"),
                            "pair 'b': paired labels must differ, both are 1"),
}


@pytest.mark.parametrize("case", sorted(NOT_DISTINCT_ORIGINALS))
def test_an_evaluation_split_that_needs_pairing_is_still_checked(tmp_path, case):
    extra, message = NOT_DISTINCT_ORIGINALS[case]
    originals = [Example("a", ("x",), 0, "a", "original"), Example("b", ("y",), 1, "b", "original")]
    p = tmp_path / "d.jsonl"
    dump_jsonl(originals + [extra], p)
    with pytest.raises(PairingError) as exc:
        load_jsonl(p)
    assert str(exc.value) == message


def test_read_dataset_reads_what_write_dataset_wrote_in_one_pass(tmp_path, monkeypatch):
    # a change to _jsonl_line's format that the one-pass pattern no longer
    # matches must fail here, not only slow every read down
    ds = generate_cad(GeneratorConfig(n_pairs=30, n_ood=12, seed=9))
    write_dataset(ds, tmp_path / "data")

    read_dumped = data._read_dumped

    def one_pass_only(text):
        examples = read_dumped(text)
        if examples is None:
            raise AssertionError("a dump_jsonl file went through the per-line parse")
        return examples

    # the per-line parse runs wherever _read_dumped gives None; json.loads cannot
    # be patched instead, since groups.json is read with it
    monkeypatch.setattr(data, "_read_dumped", one_pass_only)
    loaded = read_dataset(tmp_path / "data")
    assert (loaded.train_pairs, loaded.ood, loaded.ood_stress) == (ds.train_pairs, ds.ood, ds.ood_stress)


def test_feature_groups_disjointness_enforced():
    with pytest.raises(DataError):
        FeatureGroups(frozenset({"a"}), frozenset({"a"}), frozenset(), frozenset())


def _reference_featurize_matrix(examples, vocab, mask_tokens=None):
    """The per-example loop that featurize_matrix replaced, kept as the reference."""
    rows = np.zeros((len(examples), vocab.size), dtype=np.float64)
    for i, ex in enumerate(examples):
        toks = ex.tokens if mask_tokens is None else tuple(t for t in ex.tokens if t not in mask_tokens)
        x = np.zeros(vocab.size, dtype=np.float64)
        for t in toks:
            x[vocab.index.get(t, vocab.oov_index)] += 1.0
        total = x.sum()
        if total > 0.0:
            x /= total
        rows[i] = x
    return rows


def _bits(a):
    return a.view(np.uint64)


# vocabulary tokens, and tokens that are not in the vocabulary
_KNOWN = ["a", "b", "c", "d", "e"]
_UNKNOWN = ["x", "y", "z"]


@settings(max_examples=200, deadline=None)
@given(vocab_tokens=st.lists(st.sampled_from(_KNOWN), max_size=5),
       rows=st.lists(st.lists(st.sampled_from(_KNOWN + _UNKNOWN), max_size=12), max_size=8),
       mask=st.none() | st.frozensets(st.sampled_from(_KNOWN + _UNKNOWN + ["w"]), max_size=5))
def test_featurize_matrix_is_bit_identical_to_the_per_example_loop(vocab_tokens, rows, mask):
    # repeated tokens, empty rows, rows whose tokens are all masked, masked
    # tokens outside the vocabulary and in no row ("w"), and unknown tokens
    vocab = Vocab(vocab_tokens)
    examples = [Example(id=str(i), tokens=tuple(toks), label=0, pair_id=str(i),
                        variant="original") for i, toks in enumerate(rows)]
    expected = _reference_featurize_matrix(examples, vocab, mask)
    got = featurize_matrix(examples, vocab, mask_tokens=mask)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))
    ids = TokenIds.from_examples(examples)
    assert np.array_equal(_bits(featurize_matrix(ids, vocab, mask_tokens=mask)), _bits(expected))
    plain = _reference_featurize_matrix(examples, vocab)
    for toks, row in zip(rows, plain):
        assert np.array_equal(_bits(_one_row(toks, vocab)), _bits(row))
        sparse = featurize_sparse(toks, vocab)
        assert [j for j, _ in sparse] == np.flatnonzero(row).tolist()
        assert [w for _, w in sparse] == row[row != 0.0].tolist()
        assert all(type(j) is int and type(w) is float for j, w in sparse)


def test_featurize_matrix_masking_does_not_mutate():
    ds = generate_cad(GeneratorConfig(n_pairs=10, n_ood=8, seed=4))
    vocab = Vocab.from_examples(ds.train_examples())
    before = [ex.tokens for ex in ds.ood]
    masked = featurize_matrix(ds.ood, vocab, mask_tokens=ds.groups.edited_causal)
    assert [ex.tokens for ex in ds.ood] == before
    plain = featurize_matrix(ds.ood, vocab)
    assert masked.shape == plain.shape
    assert not np.array_equal(masked, plain)


@pytest.mark.parametrize("masked", [False, True])
def test_featurize_matrix_allocates_little_beside_its_result(masked):
    # the benchmark's data-eval OOD split: 2000 examples; numpy reports its
    # array buffers to tracemalloc
    ds = generate_cad(GeneratorConfig(n_pairs=500, n_ood=2000, seed=0, rho_train=0.9,
                                      edit_scope=0.5))
    vocab = Vocab.from_examples(ds.train_examples())
    ids = TokenIds.from_examples(ds.ood)
    mask = ds.groups.edited_causal if masked else None
    tracemalloc.start()
    try:
        result = featurize_matrix(ids, vocab, mask_tokens=mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ids) == 2000
    assert peak - result.nbytes <= 3 * 8 * len(ids.ids)
