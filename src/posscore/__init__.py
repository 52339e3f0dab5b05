"""POS-aware evaluation metrics for conversational search responses.

The library scores a candidate response against a reference using the POS
partition of each response (POSSCORE, PWE, PTLC), ships the classic
baselines (BLEU-1..4, METEOR, Embedding Average), and provides a
meta-evaluation harness that measures each metric's agreement with human
preferences.
"""

from .basemetrics import (
    MetricScore,
    PreparedTokens,
    SynonymLexicon,
    bleu_n,
    embedding_average,
    meteor,
)
from .core import (
    ADOPTED_TAGS,
    CANONICAL_TAG_SETS,
    DEFAULT_TAG_SET,
    FULL_TAG_SET,
    EvaluationSet,
    PosTag,
    TaggedSentence,
    TagSet,
    Token,
    tokenize,
)
from .embed import EmbeddingTable, SentenceVector, average_embedding, cosine, load_vec
from .ingest import (
    AnnotatedResponse,
    ForumAnswer,
    build_forum_sets,
    build_usr_sets,
    load_external_scores,
    load_forum_json,
    load_jsonl,
    load_usr_json,
    reservoir_sample,
    vote_gt_curve,
    write_jsonl,
)
from .metaeval import (
    AgreementVector,
    PowerResult,
    kendall_tau,
    paired_ttest,
    pos_distribution,
    predictive_power,
)
from .posmetrics import (
    Metric,
    PosSplit,
    pos_split,
    pos_weight,
    posscore,
    ptlc,
    pwe,
    score_sets,
)
from .postag import (
    TaggerModel,
    load_model,
    load_tagged,
    remap_aux_to_verb,
    save_model,
    tag,
    train,
    write_tagged,
)

__version__ = "0.1.0"

__all__ = [
    "ADOPTED_TAGS",
    "AgreementVector",
    "AnnotatedResponse",
    "CANONICAL_TAG_SETS",
    "DEFAULT_TAG_SET",
    "EmbeddingTable",
    "EvaluationSet",
    "FULL_TAG_SET",
    "ForumAnswer",
    "Metric",
    "MetricScore",
    "PosSplit",
    "PosTag",
    "PowerResult",
    "PreparedTokens",
    "SentenceVector",
    "SynonymLexicon",
    "TaggedSentence",
    "TaggerModel",
    "TagSet",
    "Token",
    "average_embedding",
    "bleu_n",
    "build_forum_sets",
    "build_usr_sets",
    "cosine",
    "embedding_average",
    "kendall_tau",
    "load_external_scores",
    "load_forum_json",
    "load_jsonl",
    "load_model",
    "load_tagged",
    "load_usr_json",
    "load_vec",
    "meteor",
    "paired_ttest",
    "pos_distribution",
    "pos_split",
    "pos_weight",
    "posscore",
    "predictive_power",
    "ptlc",
    "pwe",
    "remap_aux_to_verb",
    "reservoir_sample",
    "save_model",
    "score_sets",
    "tag",
    "tokenize",
    "train",
    "vote_gt_curve",
    "write_jsonl",
    "write_tagged",
]
