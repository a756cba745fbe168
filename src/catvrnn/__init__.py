"""Category-steered variational RNN: joint generation + classification
training, hidden-state initialization steering, corpus tooling, and the
category-accuracy / perplexity / BLEU evaluation suite."""

from .errors import ConfigurationError, DataError, NumericError
from .numeric import (
    GaussianParams,
    ParamStore,
    Rng,
    Tensor,
    check_gradient,
    kl_gaussians,
    mlp_forward,
    multi_output,
    no_grad,
    reparameterize,
    softmax,
    split,
)
from .model import (
    CatVrnnParams,
    CellWeights,
    LossBreakdown,
    ModelConfig,
    SequenceForward,
    Recurrent,
    cell_weights,
    forward_stepwise,
    forward_teacher,
    generate,
    init_hidden,
    init_hidden_adaptive,
    init_hidden_static,
    init_hidden_zero,
    joint_loss,
    parameter_count,
    recur_step,
    recurrence,
)
from .data import (
    Batch,
    LabeledCorpus,
    LabeledSentence,
    Vocabulary,
    build_icq_variant,
    build_ica_series,
    build_vocabulary,
    encode_batch,
    filter_by_length,
    load_corpus,
    make_synthetic_corpus,
    oracle_category_accuracy,
    save_corpus,
    word_membership_oracle,
)
from .training import (
    AdamState,
    Checkpoint,
    EpochStats,
    TrainPlan,
    adam_step,
    checkpoint_digest,
    load_checkpoint,
    run_training,
    save_checkpoint,
    train_epoch,
)
from .evaluation import (
    EvalClassifier,
    MetricsReport,
    bleu_corpus,
    bleu_harmonic,
    category_accuracy,
    eval_report,
    perplexity,
    sample_categories,
    score_samples,
    train_eval_classifier,
)

__version__ = "0.1.0"
