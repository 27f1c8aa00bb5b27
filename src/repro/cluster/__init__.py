"""Read clustering: edit distance and cluster assignment.

After sequencing, reads must be grouped so that all noisy copies of one
original strand land in one cluster (the paper's Section 2.1, following
Rashtchian et al.). The simulation methodology (Section 6.1.2) uses
*perfect* clustering — each read is tagged with its source strand — to
isolate consensus behaviour from clustering errors; the greedy
edit-distance clusterer is provided as the realistic alternative.

The realistic path is columnar: :class:`BatchedGreedyClusterer` runs the
greedy scan straight off a :class:`~repro.channel.readbatch.ReadBatch`
buffer — signatures for the whole pool in one pass
(:mod:`repro.cluster.signatures`), one stacked banded edit-DP per
cluster round (:func:`banded_edit_distances_stack`) — with assignments
identical to the frozen sequential scan
(:class:`ReferenceGreedyClusterer`, :mod:`repro.cluster.reference`).
That is what opens the unlabeled-pool workload: ``sequence_store(...,
labeled=False)`` → cluster → ``DnaStore.read(ReadRequest(...,
pool=True))``.

For pools too large for the greedy scan's O(pool × clusters) candidate
set, :class:`LSHClusterer` (:mod:`repro.cluster.lsh`) generates
candidates from minhash-band bin collisions only and verifies every
collision with the exact banded DP — near-linear work, same
``assign``/``cluster_batch``/``cluster_pools`` surface, output clusters
still exact-edit-distance-verified.
"""

from repro.cluster.batched import BatchedGreedyClusterer
from repro.cluster.distance import (
    banded_edit_distance,
    banded_edit_distance_indices,
    banded_edit_distances_stack,
    edit_distance,
    edit_distance_indices,
)
from repro.cluster.lsh import LSHClusterer
from repro.cluster.metrics import pair_precision_recall
from repro.cluster.perfect import perfect_clusters
from repro.cluster.reference import ReferenceGreedyClusterer
from repro.cluster.signatures import (
    batch_signatures,
    batch_signatures_sparse,
    qgram_signature,
)

__all__ = [
    "edit_distance",
    "edit_distance_indices",
    "banded_edit_distance",
    "banded_edit_distance_indices",
    "banded_edit_distances_stack",
    "BatchedGreedyClusterer",
    "LSHClusterer",
    "ReferenceGreedyClusterer",
    "perfect_clusters",
    "pair_precision_recall",
    "batch_signatures",
    "batch_signatures_sparse",
    "qgram_signature",
]
