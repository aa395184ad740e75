import pytest

from aced import cli, gradcore

# Small-everything config used by the CLI tests: 16x16 scenes, K=4, tiny
# widths, a handful of iterations.
TINY_SETS = [
    "num_scenes=16",
    "holdout=4",
    "image_h=16",
    "image_w=16",
    "k=4",
    "base_width=2",
    "fusion_width=4",
    "max_iter=6",
    "batch_size=4",
]


def tiny_config(seed=3, extra=()):
    return cli.load_config(sets=TINY_SETS + list(extra), seed=seed)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """(config, manifest_path) for a 16-scene 16x16 dataset."""
    cfg = tiny_config()
    out = tmp_path_factory.mktemp("tiny_data")
    manifest = cli.cmd_gen_data(cfg, out)
    return cfg, manifest


class RecordingTape(gradcore.Tape):
    """Tape that also keeps the name of every node it records."""

    def __init__(self):
        super().__init__()
        self.names = []

    def record(self, name, inputs, output, backward_fn):
        self.names.append(name)
        super().record(name, inputs, output, backward_fn)
