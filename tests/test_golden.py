"""Golden digests: the CLI's outputs, byte for byte, pinned by sha256,
and the effort floor's result by the digest of its repr.

A refactor that claims to leave behaviour unchanged must leave these digests
unchanged.  The loss tables are pinned by the digest of their repr.  The training and compare outputs pass through BLAS matrix
products, so their digests hold for the environment they were pinned in:
numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64.  The clip, codec, contest and
search outputs and the effort floor use no BLAS.
"""

import hashlib

import pytest

from conftest import _openblas_core
from posecontest.cli import main as cli_main
from posecontest.config import RunConfig, build_scenario
from posecontest.oracle import exhaustive_effort_search
from test_acceptance import SMALL, SMALL_INI

# The training digests below hold on the OpenBLAS kernels the README's Tests
# section lists; kernels without FMA round the learner's products differently.
BLAS_KERNEL = (
    f"this run's OpenBLAS core (conftest._openblas_core()) is {_openblas_core()}; the "
    "training digests were checked on the kernels listed in the README's Tests section"
)


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_small_training_outputs(tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    assert cli_main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert cli_main(["compare", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "history.csv") == (
        "95e9b584afbedfc6e04c35fa3c86c2c6fde8a1d0a2e966f37efcea90a16a4fd8"
    ), BLAS_KERNEL
    assert digest(tmp_path / "policy.bin") == (
        "0320fd022cf3d8bba80abb99d14ed444c16ed5dfb5e426338c77514fd4d7e560"
    ), BLAS_KERNEL
    assert digest(tmp_path / "compare.csv") == (
        "f64ef20eb841e40ce21cc23fc49fc5ed74cd9e2dc5b95d886f4ab95c00e59730"
    ), BLAS_KERNEL


def test_small_training_after_buffer_wraps(tmp_path):
    # 40 x 30 = 1,200 pushes into 500 slots: the replay buffer wraps twice, so
    # the later samples draw from overwritten slots.  The greedy rollouts pick
    # the same moves as with the default capacity, so history.csv matches the
    # golden above; the weights do not.
    ini = tmp_path / "wrap.ini"
    ini.write_text(SMALL_INI + "buffer_capacity = 500\n")
    assert cli_main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "history.csv") == (
        "95e9b584afbedfc6e04c35fa3c86c2c6fde8a1d0a2e966f37efcea90a16a4fd8"
    ), BLAS_KERNEL
    assert digest(tmp_path / "policy.bin") == (
        "45a9b5222022672571648e136685e45590d8e134e42bde471c8b65644991f723"
    ), BLAS_KERNEL


def test_default_search_ledger(tmp_path):
    assert cli_main(["search", "--out", str(tmp_path)]) == 0
    assert digest(tmp_path / "search.csv") == (
        "545a47ed443d282c8a2506de92125b583b265faf2a3102942d611ec86d7f0417"
    )


@pytest.mark.parametrize(
    "mode, expected",
    [
        ("net", "c53985ef0deb19fd1cb266f0c56bb05ae57207e5c51a99ba769fb6ef4bdb338b"),
        ("payment", "67a232307f31687386d481794ff2641b01365037473bae9cc4b3eefe2be0fc58"),
    ],
)
def test_default_step1_search_ledger(tmp_path, mode, expected):
    # The default scenario's full step-1 lattice: 8,037 prize vectors.
    ini = tmp_path / "step1.ini"
    ini.write_text(f"[scenario]\nselection_mode = {mode}\n\n[search]\nstep = 1\n")
    assert cli_main(["search", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "search.csv").read_text().count("\n") == 1 + 8037
    assert digest(tmp_path / "search.csv") == expected


@pytest.mark.parametrize(
    "awards, expected",
    [
        (None, "bfa7e137acfc3e7675db0111054aa0421f3544fe1344fca99bbae119ff6d251c"),
        ("50,50,0,0", "fed2062f25d753d649e61910683db1b52bd8fb231eb9922d6040596e8a50445d"),
    ],
)
def test_contest_report(tmp_path, awards, expected):
    argv = ["contest", "--out", str(tmp_path)]
    if awards is not None:
        argv += ["--awards", awards]
    assert cli_main(argv) == 0
    assert digest(tmp_path / "contest.csv") == expected


GEN_DIGESTS = {
    "csv": (
        "144f987464650a9f67fc49dbf4e5b8b4404a423cad65cff396087cb9388591ac",
        "9c8306d6808009e1ca8afab0db4f5c222d5c7b7cb6f9855ded98a0d44fb316df",
        "b9ba5033947ac367f1d77780a7b573064614826c7a2bef1e66e3c182bcea0f12",
        "7ab452421c60257f99321d9ad3568140c303abfe1bea00daaf2228a724a65e4c",
    ),
    "json": (
        "772b59b36ef7a9c17a9d7c6777d7a94344075c311c7f896a8cd3aa2129443555",
        "8d2c537f89cf202706d6fb08b164652c0ccc745c48c979f921d3f4729c0d2533",
        "a6c384910efa3aecab964a668e65bd0feb348f318bd56320e4efa3917ba6fbbf",
        "ee4dbf38f0771992f8e9233f544ced0b2262e458cc4c1d985838bef5560722e6",
    ),
}


@pytest.mark.parametrize("fmt", sorted(GEN_DIGESTS))
def test_generated_clips(tmp_path, fmt):
    assert cli_main(["gen", "--format", fmt, "--out", str(tmp_path)]) == 0
    got = tuple(digest(tmp_path / f"user{i}.{fmt}") for i in range(1, 5))
    assert got == GEN_DIGESTS[fmt]


def test_generated_clips_six_joints(tmp_path):
    # Off the 17-joint pose, and the wave user moves joint 5 alone: joints 0-4 hold still.
    ini = tmp_path / "six.ini"
    ini.write_text("[scenario]\njoint_count = 6\n")
    assert cli_main(["gen", "--config", str(ini), "--out", str(tmp_path)]) == 0
    assert tuple(digest(tmp_path / f"user{i}.csv") for i in range(1, 5)) == (
        "a78b5cda3cecf46b009e31df83206a25f9897260ea4bfa36f9aba84c51408a95",
        "000ce656f82ed513324ed00dce6e69fcc4ebc176b81155d7dbee1d1d32a400fb",
        "994071fe76f3b7fec3b4ba12a43e545fc458fe19adb146e46f07e254e0af97c0",
        "a167e04a5f7d7d2ceabe73ab3f8864a9b3c54e9b1b2985764cc7c056db51d9b0",
    )


# Every default field's period divides its 300 frames; these fields also end on a
# partial period, are shorter than most periods, hold inactive joints or blend.
@pytest.mark.parametrize(
    "cfg, expected",
    [
        (RunConfig(frame_count=301), "318b8c0c9dc9a8aa6f273e1bf2b42c160a17089210580dc9b2791c863217eb81"),
        (RunConfig(frame_count=7), "f11305d539489c6e2ac68d80975fffc0397b52f7e293bb9f56a29aa482f78870"),
        (RunConfig(joint_count=6), "c161d571ab4334833f4c16b87fd4ef8637121418f556a0589506d275e6a3ee01"),
        (RunConfig(render_method="linear"), "47c3b4fd31194abd88b8bf3d53ab57905d287af2b45103bd9823d9f0584412e3"),
    ],
    ids=["301-frames", "7-frames", "6-joints", "linear"],
)
def test_loss_tables(cfg, expected):
    tables = repr([c.loss_table for c in build_scenario(cfg).contestants])
    assert hashlib.sha256(tables.encode("utf-8")).hexdigest() == expected


@pytest.mark.parametrize(
    "source, payload, error_line",
    [
        (
            None,
            "c1fda2bb5ad4acdd4dfe6176b3b4677d399bb2d1a4cbd0662b592e6982121b11",
            "max quantization error 0.00783582072128658 (half-step bound 0.00784313725490196)",
        ),
        (
            "user2.csv",
            "cc309f5baadb713a973b704450fe095f9ee442233c332af1bbcc28061f49dc91",
            "max quantization error 0.00784077278861739 (half-step bound 0.00784313725490196)",
        ),
    ],
)
def test_codec_payload(tmp_path, capsys, source, payload, error_line):
    argv = ["codec", "--out", str(tmp_path / "codec")]
    if source is not None:
        assert cli_main(["gen", "--out", str(tmp_path)]) == 0
        argv += ["--input", str(tmp_path / source)]
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert digest(tmp_path / "codec" / "payload.bin") == payload
    assert error_line in capsys.readouterr().out.splitlines()


# The effort floor is the exact minimum, but among equal losses it must also
# keep the same rate profile and the same float, so repr() is pinned.
FIVE_USERS = RunConfig(
    users=5, budget=150, pool=125.0, profiles=("run", "dance", "wave", "stand", "run")
)


@pytest.mark.parametrize(
    "cfg, expected",
    [
        (RunConfig(seed=0), "9a5a7f352b50c1626df024931c6a3a00e5cb6c07181dbd3d5e9eceb5e047910a"),
        (RunConfig(seed=1), "6c4e033e078ee4fa6412623236e64db170da32c6c1113a61a3aa4e017ac480ec"),
        (RunConfig(seed=2), "cd56a612a6e9ca304ffe54d16a1994bee2f7a8fac197b0469da0d183b978c541"),
        (SMALL, "dfe2d48295e0fabc603ba26e0171d7a64d33705a0911b4bfc4f01de64679582d"),
        (FIVE_USERS, "ca1cc1ebc44c92d7f14589f11761e709f1354347cf8d08f861f4ad5dc8c800f3"),
    ],
    ids=["default-seed0", "default-seed1", "default-seed2", "small", "five-users"],
)
def test_effort_floor(cfg, expected):
    floor = repr(exhaustive_effort_search(build_scenario(cfg)))
    assert hashlib.sha256(floor.encode("utf-8")).hexdigest() == expected
