"""Cross-layer fusion transformer with a synthetic compositional benchmark."""

from .attention import (
    AttentionParams,
    MaskError,
    make_causal_mask,
    multi_head_attention,
    scaled_dot_attention,
)
from .compgen import (
    CorpusSpec,
    GenerationError,
    check_compound,
    cter,
    exact_match,
    example_to_triple,
    generate_corpus,
    load_corpus,
    triples,
    write_corpus,
)
from .fusion import (
    FusionError,
    accumulate_previous,
    fuse_attention,
    fuse_attention_core,
)
from .model import DecodeState, LayerCache, ModelConfig, Seq2SeqModel
from .tensor import (
    GradError,
    ShapeError,
    Tape,
    Tensor,
    backward,
    concat,
    cross_entropy,
    embedding_lookup,
    grad_check,
    layer_norm,
    no_grad,
    softmax,
)
from .training import (
    CheckpointError,
    TrainConfig,
    TrainingError,
    TrainState,
    eval_loss,
    extract_fuse_probs,
    greedy_decode,
    greedy_decode_batch,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    token_accuracy,
    train_loop,
    train_step,
)

__version__ = "0.1.0"
