"""Few-shot meta-learning from unlabeled embeddings: partition-based task
construction, episodic meta-training (MAML / prototypical networks),
embedding baselines, and CI-reported evaluation."""

__version__ = "0.1.0"

from .baselines import (LinearModel, MLPModel, cluster_matching_classify,
                        cluster_membership, knn_classify, linear_fit,
                        linear_predict, mlp_dropout_fit, mlp_dropout_predict,
                        train_from_scratch)
from .data import (DataSet, SplitSpec, load_dataset, pca_whiten, save_dataset,
                   save_dataset_csv, split_dataset, synth_mixture)
from .errors import (ConfigError, ContractError, DataError, InfeasibleError,
                     MetafewError, NumericError, ShapeError, TaskRejected)
from .evaluation import (ComparisonRow, EvalReport, ci95_half_width, compare,
                         evaluate, format_comparison, per_task,
                         read_report_csv, task_set_fingerprint,
                         write_report_csv)
from .learners import make_learner
from .metalearn import (MetaConfig, build_maml_model, build_protonet_model,
                        maml_adapt, maml_predict, meta_train, protonet_classify,
                        protonet_embed, protonet_loss_grad, protonet_predict,
                        protonet_prototypes, prune_head)
from .network import (Layer, ModelParams, OptimizerState, apply_adam, apply_sgd,
                      forward, grad_through_adaptation, hvp_xent, init_adam,
                      init_mlp, load_checkpoint, save_checkpoint, xent_loss,
                      xent_loss_grad)
from .partition import (Hyperplane, Partition, generate_hyperplane_partitions,
                        generate_partitions, hyperplane_partition, kmeans,
                        load_partition, nearest_centroids,
                        partition_by_hyperplanes,
                        partition_from_labels, pixel_partition, random_partition,
                        sample_hyperplanes, save_partition, signed_distance)
from .tasks import (Task, TaskStreamConfig, eligible_clusters, make_task_stream,
                    make_supervised_task_stream, mix_task_streams,
                    read_task_manifest, sample_attribute_task,
                    sample_eligible_attribute_task, sample_supervised_task,
                    sample_task_from_partition, stack_tasks, validate_task,
                    write_task_manifest)
