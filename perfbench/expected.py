"""The expected output file of a workload, computed without the CLI.

The generated inputs are parsed here with the standard library, and every
score and statistic comes from a direct call to the library's public
functions (``posscore``, ``pwe``, ``ptlc``, ``bleu_n``, ``meteor``,
``embedding_average``, ``predictive_power``, ``paired_ttest``,
``kendall_tau``). The CSV layout is the one ``docs/formats.md`` documents
for ``score``, ``evaluate`` and ``correlate``. A timed run passes only if
its output file equals these bytes.
"""

from __future__ import annotations

import csv
import io
import json

from workloads import Inputs

_DEFAULT_TAGSET = "adj+adv+verb+propn+noun"
_BASELINE_CLASS = ("bleu1", "bleu2", "bleu3", "bleu4", "meteor", "ea")
_ROLES = ("ref", "a", "b")


def _corpus(inputs: Inputs):
    from posscore import EvaluationSet

    sets = []
    with open(inputs.corpus, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            (a, b) = obj["candidates"]
            sets.append(EvaluationSet(
                id=obj["id"], context=tuple(obj["context"]), reference=obj["reference"],
                candidate_a=a["text"], candidate_b=b["text"],
                human_a=float(a["human"]), human_b=float(b["human"]),
            ))
    return sets


def _tagged(inputs: Inputs, corpus) -> dict:
    from posscore import PosTag, TaggedSentence, Token, load_model, remap_aux_to_verb, tag, tokenize

    if inputs.shape.tag_source == "file":
        blocks = inputs.tags.read_text(encoding="utf-8").split("\n\n")
        sentences = [
            TaggedSentence(tuple(
                (Token(row.split("\t")[1]), PosTag[row.split("\t")[2]])
                for row in block.splitlines()
            ))
            for block in blocks
        ]
    else:
        model = load_model(inputs.model)
        sentences = [
            tag(model, tokenize(text))
            for ev in corpus
            for text in (ev.reference, ev.candidate_a, ev.candidate_b)
        ]
    return {
        (ev.id, role): remap_aux_to_verb(sentences[3 * i + k])
        for i, ev in enumerate(corpus)
        for k, role in enumerate(_ROLES)
    }


def _table(inputs: Inputs, vocab: set[str]):
    from posscore import EmbeddingTable

    vectors = {}
    with open(inputs.vec, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            token, _, values = line.partition(" ")
            token = token.casefold()
            if token in vocab and token not in vectors:
                vectors[token] = [float(v) for v in values.split()]
    return EmbeddingTable.from_dict(vectors)


def _scorers(metrics: str, table):
    """(metric id, tag set name, scorer(ref, cand)) for each requested metric."""
    from posscore import TagSet, bleu_n, embedding_average, meteor, posscore, ptlc, pwe

    tagset = TagSet.parse(_DEFAULT_TAGSET)

    def base(name):
        if name == "meteor":
            return lambda r, c: meteor(r.tokens, c.tokens).value
        if name == "ea":
            return lambda r, c: embedding_average(r.tokens, c.tokens, table).value
        return lambda r, c, n=int(name[-1]): bleu_n(r.tokens, c.tokens, n).value

    out = []
    for spec in metrics.split(","):
        head, _, b = spec.partition(":")
        if head == "posscore":
            out.append(("posscore", tagset.name, lambda r, c: posscore(r, c, tagset, table).value))
        elif head in ("pwe", "ptlc"):
            fn = pwe if head == "pwe" else ptlc
            out.append((f"{head}:{b}:{tagset.name}", tagset.name,
                        lambda r, c, fn=fn, b=b: fn(r, c, tagset, b, table).value))
        else:
            out.append((spec, "", base(spec)))
    return sorted(out)


def _csv(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def expected_output(inputs: Inputs) -> bytes:
    from posscore import TaggedSentence, kendall_tau, paired_ttest, predictive_power

    shape = inputs.shape
    corpus = _corpus(inputs)
    tagged = _tagged(inputs, corpus)
    if shape.duplicate_bad:
        for ev in corpus:
            bad = (ev.id, "b" if ev.good_slot == "a" else "a")
            tagged[bad] = TaggedSentence(tagged[bad].items + tagged[bad].items)
    vocab = {tok.norm for sent in tagged.values() for tok in sent.tokens}
    table = _table(inputs, vocab)
    scorers = _scorers(shape.metrics, table)
    scores = {
        mid: {
            ev.id: tuple(fn(tagged[(ev.id, "ref")], tagged[(ev.id, slot)]) for slot in "ab")
            for ev in corpus
        }
        for mid, _, fn in scorers
    }
    tagset_of = {mid: name for mid, name, _ in scorers}
    ids = sorted(scores)
    order = sorted(corpus, key=lambda ev: ev.id)

    if shape.command == "score":
        rows = [["set_id", "slot", "metric_id", "tagset", "score"]]
        for ev in order:
            for k, slot in enumerate("ab"):
                rows += [[ev.id, slot, mid, tagset_of[mid], repr(scores[mid][ev.id][k])] for mid in ids]
        return _csv(rows)

    if shape.command == "evaluate":
        power = {mid: predictive_power(corpus, scores[mid], mid) for mid in ids}
        baselines = [mid for mid in ids if mid in _BASELINE_CLASS]
        baseline = max(baselines, key=lambda mid: power[mid][0].power) if baselines else None
        rows = [["metric_id", "tagset", "power", "correct", "total", "p_vs_baseline"]]
        for mid in ids:
            result, vector = power[mid]
            p = repr(paired_ttest(vector, power[baseline][1])) if baseline else ""
            rows.append([mid, tagset_of[mid], repr(result.power), result.correct, result.total, p])
        return _csv(rows)

    if shape.command == "correlate":
        vectors = {mid: [s for ev in order for s in scores[mid][ev.id]] for mid in ids}
        rows = [["metric_id"] + ids]
        rows += [[mid] + [repr(kendall_tau(vectors[mid], vectors[o])) for o in ids] for mid in ids]
        return _csv(rows)

    raise ValueError(f"no expected output for command {shape.command!r}")
