"""Corpus profiling and sentiment-analysis tool recommendation for software
engineering communication datasets."""

from .corpus import (
    CLASS_ORDER,
    DROP,
    ClassDistribution,
    Corpus,
    Document,
    IngestOptions,
    LabelMapping,
    PolarityLabel,
    class_distribution,
    load_corpus,
    load_labels,
    merge_corpora,
    save_corpus,
)
from .errors import (
    CorpusFormatError,
    EmptyCorpusError,
    EvaluationError,
    InputValueError,
    IntegrityError,
    KnowledgeBaseError,
    LabelMappingError,
    SamplingError,
    SentimatchError,
)
from .metrics import (
    AgreementResult,
    ClassificationReport,
    ClassMetrics,
    RatingMatrix,
    classification_report,
    evaluate_agreement,
    fleiss_kappa,
    landis_koch,
    raw_agreement,
)
from .profiles import (
    FEATURE_ORDER,
    PLATFORM_ORDER,
    AnswerOption,
    FeatureIntervalMap,
    KnowledgeBase,
    LinguisticFeature,
    Platform,
    PlatformLinguisticProfile,
    PlatformStatProfile,
    ToolPerformanceRecord,
    best_tool,
    derive_mapping,
    interval_of,
    load_knowledge_base,
)
from .recommender import (
    QuestionnaireAnswers,
    Recommendation,
    ScoreBoard,
    UserStatistics,
    auto_answers_from_corpus,
    recommend,
    score_linguistic,
    score_statistics,
)
from .sampling import (
    min_sample_size,
    sample_with_minority_retention,
    stratified_sample,
)
from .textstats import (
    STAT_FIELDS,
    Dictionary,
    DocCounts,
    EmoticonLexicon,
    TextStatistics,
    corpus_statistics,
    doc_counts,
    tokenize,
)

__version__ = "0.1.0"
