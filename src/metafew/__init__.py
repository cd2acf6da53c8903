"""Few-shot meta-learning from unlabeled embeddings: partition-based task
construction, episodic meta-training (MAML / prototypical networks),
embedding baselines, and CI-reported evaluation."""

__version__ = "0.1.0"

from .data import (DataSet, SplitSpec, load_dataset, pca_whiten, save_dataset,
                   split_dataset, synth_mixture)
from .errors import (ConfigError, ContractError, DataError, InfeasibleError,
                     MetafewError, NumericError, ShapeError, TaskRejected)
from .evaluation import compare, evaluate, format_comparison
from .learners import make_learner
from .metalearn import (MetaConfig, build_maml_model, build_protonet_model,
                        maml_predict, meta_train, protonet_predict)
from .network import grad_through_adaptation
from .partition import (Hyperplane, generate_partitions, kmeans,
                        partition_from_labels, random_partition, signed_distance)
from .tasks import (TaskStreamConfig, make_supervised_task_stream,
                    make_task_stream, sample_eligible_attribute_task,
                    sample_task_from_partition, validate_task,
                    write_task_manifest)
