"""The benchmark's workloads: pipeline configuration and seeded scene specs.

Every recording comes from ``evrect.synth``.  A scene's generator seed is
``10_000 * seed + base``.  The held-out recordings use the run's
``--seed``; the training recordings and the pipeline's own seed (k-means
seeding, SVM shuffles) are always those of seed 0: the README scenes'
generator seeds (ring 7, bar 8) and the acceptance criterion-8 corpus.
So every run trains the same model and ``train_s`` times the same work:
k-means stops on a tolerance, and a seeded training set would change the
iteration count, and the training time with it, from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from evrect.detector import TruthWindow
from evrect.events import EventStream, write_csv
from evrect.pipeline import PipelineConfig
from evrect.rect import RectConfig
from evrect.synth import SceneSpec, synth_scene, write_truth_csv

TRAIN_SEED = 0

# README walkthrough settings: 2000-event FIFO, 3x3 pooling, 7x7 patch.
README_RECT = RectConfig(s=2_000, p=3, q=3, w=7)

# criterion-8 training trajectories, one start offset per index
CORPUS_VELOCITIES = (
    (5.0, 0.0), (-5.0, 0.0), (0.0, 5.0), (0.0, -5.0),
    (5.0, 5.0), (-5.0, -5.0), (5.0, -5.0), (-5.0, 5.0),
)


@dataclass(frozen=True)
class Scene:
    name: str     # file stem under the work directory
    label: str    # true class
    spec: SceneSpec
    base: int     # generator seed at --seed 0

    def generate(self, seed: int) -> tuple[EventStream, list[TruthWindow]]:
        return synth_scene(self.spec, seed=10_000 * seed + self.base)


@dataclass(frozen=True)
class Workload:
    name: str
    config: PipelineConfig
    train: tuple[Scene, ...]
    heldout: tuple[Scene, ...]   # every held-out scene is classified
    target: str                  # detection target; detected on held-out scenes of this class

    @property
    def detect_scenes(self) -> tuple[Scene, ...]:
        return tuple(s for s in self.heldout if s.label == self.target)


def _two_shape(noise: float, ring_us: int, bar_us: int) -> tuple[tuple[Scene, ...], tuple[Scene, ...]]:
    train = (
        Scene("train_ring", "ring", SceneSpec(shape="ring", vx=4.0, vy=2.0,
              duration_us=3_000_000, noise_rate=noise), 7),
        Scene("train_bar", "bar", SceneSpec(shape="bar", vy=5.0,
              duration_us=3_000_000, noise_rate=noise), 8),
    )
    heldout = (
        Scene("test_ring", "ring", SceneSpec(shape="ring", vx=3.0, vy=1.0,
              duration_us=ring_us, noise_rate=noise), 11),
        Scene("test_bar", "bar", SceneSpec(shape="bar", vx=-2.0, vy=4.0,
              duration_us=bar_us, noise_rate=noise), 12),
    )
    return train, heldout


def _corpus() -> tuple[tuple[Scene, ...], tuple[Scene, ...]]:
    train = []
    heldout = []
    for ci, shape in enumerate(("bar", "cross", "ring")):
        for i, (vx, vy) in enumerate(CORPUS_VELOCITIES):
            spec = SceneSpec(shape=shape, start_x=100.0 + 5.0 * i, start_y=80.0 + 2.0 * i,
                             vx=vx, vy=vy, duration_us=2_000_000,
                             event_rate=20_000.0, noise_rate=2_000.0)
            train.append(Scene(f"train_{shape}_{i}", shape, spec, 1000 * ci + i))
        for j, (vx, vy) in enumerate(((3.0, 2.0), (-3.0, -2.0))):
            spec = SceneSpec(shape=shape, vx=vx, vy=vy, duration_us=5_000_000,
                             event_rate=20_000.0, noise_rate=2_000.0)
            heldout.append(Scene(f"test_{shape}_{j}", shape, spec, 9000 + 10 * ci + j))
    return tuple(train), tuple(heldout)


def _build() -> dict[str, Workload]:
    nh_train, nh_test = _two_shape(60_000.0, 5_000_000, 3_000_000)
    tc_train, tc_test = _corpus()
    return {
        "noisy-hardware": Workload(
            "noisy-hardware",
            PipelineConfig(rect_cfg=README_RECT, k=16, s_window=5_000, n_landmarks=4,
                           sample_cap=20_000, svm_epochs=50, profile="hardware"),
            nh_train, nh_test, "ring",
        ),
        "train-corpus": Workload(
            "train-corpus",
            PipelineConfig(pca_mode="vpca", k=150, s_window=10_000, n_landmarks=20,
                           sample_cap=40_000),
            tc_train, tc_test, "ring",
        ),
    }


WORKLOADS = _build()


def csv_path(workdir: Path, scene: Scene) -> Path:
    return workdir / f"{scene.name}.csv"


def truth_path(workdir: Path, scene: Scene) -> Path:
    return workdir / f"{scene.name}_truth.csv"


def prepare(workload: Workload, seed: int, workdir: Path) -> int:
    """Write every recording as the CLI's CSV input, and the held-out truth
    boxes as ``evrect detect --truth`` reads them; returns the event count."""
    total = 0
    for scene in workload.train:
        stream, _ = scene.generate(TRAIN_SEED)
        csv_path(workdir, scene).write_text(write_csv(stream))
        total += len(stream)
    for scene in workload.heldout:
        stream, truth = scene.generate(seed)
        csv_path(workdir, scene).write_text(write_csv(stream))
        truth_path(workdir, scene).write_text(write_truth_csv(truth))
        total += len(stream)
    return total
