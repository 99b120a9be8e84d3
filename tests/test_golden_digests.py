"""Golden digests: two small fixed experiments reproduce every exported byte.

Each test runs all eight variants (both algorithms x both encodings x greedy
off/on) for seed 1, 4 generations and population 10 on one shipped scenario,
and compares the SHA-256 of every file in the tree with the literals below.
The tree is the one that

    scripts/run_comparison.py --scenario <name> --seeds 1 --generations 4 --population 10

writes. A change that moves an exported value on purpose updates the
literals and says so in CHANGES.md.

The literals were recorded with numpy 2.4.6 on CPython 3.11 (x86-64). Another
numpy version may round differently, so the check runs only under the
recorded one, which CI pins.
"""
import hashlib
from pathlib import Path

import numpy as np
import pytest

from bwopt.experiment import ExperimentPlan, VariantSpec, resolve_scenario, run_experiment
from bwopt.geometry import Encoding

RECORDED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests were recorded with numpy {RECORDED_NUMPY}, this is numpy {np.__version__}",
)

GOLDEN = {
    "sochi_like": {
        "de_angular/convergence.csv": "fef61f8bad8437f983f17731a85a88c330a5173f88d482ecfe7f81c8bed0eb5d",
        "de_angular/fronts_2d.csv": "ae69fc1f08a376bc54eaf47c4bfe5d0a968dabafcff1723c23c1031967388b32",
        "de_angular/seed_1/final_front.csv": "f9c279c57a29f3d6b76a877c9be03b57522bf534553e59288b93b897396808f3",
        "de_angular/seed_1/final_front.json": "1543bfbf2b1d8d78e642fcee28529f1a08214d848a1475e1c11e87fde3195e00",
        "de_angular/seed_1/history.json": "7ddb61d557603cdb3debbcdc752ea7e3aa396aa315e113cd06741865d214d10e",
        "de_angular/seed_1/snapshots.csv": "072db6147ede1f700801b873f53d6c0e46489058a442b4cae189431c6f303a01",
        "de_angular_greedy/convergence.csv": "d56e58c2324060d10e9c2606f633900c7d77436cb7c4a16f09cefc6216acfe29",
        "de_angular_greedy/fronts_2d.csv": "28e208b231dd39b7f7e017ab50f8e9a396d13277baea4f795a8a2f152236a23a",
        "de_angular_greedy/seed_1/final_front.csv": "cdfae695a6575ebeb06da74ef22523487db25e849c6c8515a12a47e545a0f7b2",
        "de_angular_greedy/seed_1/final_front.json": "eccd50aa158b3e4c348764c67002af86f9700930d6ef21ffdc438f15cb3d959f",
        "de_angular_greedy/seed_1/history.json": "5a96a9af29872c5ba34a5527286b1561014de04c1a3373e626321d21d81913c4",
        "de_angular_greedy/seed_1/snapshots.csv": "fd19cdfbf82d6788fd27f22df9f580e2ecf58cb3435f34c046d154960b50f4c6",
        "de_cartesian/convergence.csv": "3772b80d7a54f158a6661d5f01b64a37d7f82e962183359e552049f7ccd845d4",
        "de_cartesian/fronts_2d.csv": "ab706d7978449d51aeb4038a7dfef1e3aba1f8d407d355617f818b779a273c79",
        "de_cartesian/seed_1/final_front.csv": "fd4dcb0147a97198cf5b06bdfc0924bf8902dbc937f1162e5e2b6123c0170b67",
        "de_cartesian/seed_1/final_front.json": "559599a9b6da1f2a58d5040188f53da9da48aad9fb7c4e380e89354ec66151da",
        "de_cartesian/seed_1/history.json": "3c8cf0d07629c6ef4bb695007f1781190844a19d3be0a93869d8fe2653942a73",
        "de_cartesian/seed_1/snapshots.csv": "8c6924c7651a136aba7fa0e429682c6f15386e553546a85e535a57fcf3be881e",
        "de_cartesian_greedy/convergence.csv": "3772b80d7a54f158a6661d5f01b64a37d7f82e962183359e552049f7ccd845d4",
        "de_cartesian_greedy/fronts_2d.csv": "ab706d7978449d51aeb4038a7dfef1e3aba1f8d407d355617f818b779a273c79",
        "de_cartesian_greedy/seed_1/final_front.csv": "fd4dcb0147a97198cf5b06bdfc0924bf8902dbc937f1162e5e2b6123c0170b67",
        "de_cartesian_greedy/seed_1/final_front.json": "90ac3f22d0feabab39e10a39a4cadc17cb7fa7811e575178059591b9a68feedb",
        "de_cartesian_greedy/seed_1/history.json": "1115da7147bab409617ccb7ad827359d1c22c87537f93eb3459592662d7302f4",
        "de_cartesian_greedy/seed_1/snapshots.csv": "b3bb8057eb7518cbb83f4a695cd73fb8847c879b67f3ca1656916edcbc29fca5",
        "metrics.json": "66c72316878b21311f16b7d19f57cf66f1e4b87cc1fe75e03fa904f7f08bbeb7",
        "plan.json": "c7bac297b85bb0a3dcf1045fc310e17bc7525854e7d434f3c4e6c7e5e1d130e6",
        "scenario.json": "2b00049742753b2eb1cb5519e90ba1b47bcc3b438d567a5065f86dfe91623e96",
        "spea2_angular/convergence.csv": "093dca36a6721479bacaed421bb32f077e9ab26fa41d025fc757455ccaffeaad",
        "spea2_angular/fronts_2d.csv": "4f308ad0eb270996b511ad98f1de2090b4fecddc06f1b4fda7b2f0198f8a2fda",
        "spea2_angular/seed_1/final_front.csv": "8c502780e49052c742e3f992cc57e561f62dc935982787dba91d9ae003a9f860",
        "spea2_angular/seed_1/final_front.json": "a7228fcf2a2796a44c1b96ec3f7995386866f9fbeee797438e14b128da9c8528",
        "spea2_angular/seed_1/history.json": "fed18b50a72fc15c050c13e4d5d28dea896f5495ce0129d0e016f11bac1be317",
        "spea2_angular/seed_1/snapshots.csv": "8bf81d963ec885a185355d741b953b0b34e23e841e8d4990d4bcb76d754ee267",
        "spea2_angular_greedy/convergence.csv": "c7f0c466180a877132aec581d737e43a893de66e5402c893de222656a4cd2089",
        "spea2_angular_greedy/fronts_2d.csv": "c33f38403eb7ccd7e734f3ceb1df5780b0cd92b27d07efe518a5f2fa4b267b52",
        "spea2_angular_greedy/seed_1/final_front.csv": "72b9a852ddf7b559b17b11feda8f8c53fe97d44744c5139fc5c5fec259eb9fbd",
        "spea2_angular_greedy/seed_1/final_front.json": "6fbf86a2ba6ff9b8c5d888e37b8c1b7323d8480506603c363a1bd74215b39042",
        "spea2_angular_greedy/seed_1/history.json": "f3996fb4b7091fee4312065a6712e526e1d133d502c50dbe8b0c2a3fa3d0c137",
        "spea2_angular_greedy/seed_1/snapshots.csv": "079b0ed82fec27652cb07c2f561cab55e121d0541028e940057b8a5e0898b4eb",
        "spea2_cartesian/convergence.csv": "3772b80d7a54f158a6661d5f01b64a37d7f82e962183359e552049f7ccd845d4",
        "spea2_cartesian/fronts_2d.csv": "ab706d7978449d51aeb4038a7dfef1e3aba1f8d407d355617f818b779a273c79",
        "spea2_cartesian/seed_1/final_front.csv": "fd4dcb0147a97198cf5b06bdfc0924bf8902dbc937f1162e5e2b6123c0170b67",
        "spea2_cartesian/seed_1/final_front.json": "37439b92a775d51a67b4a881716432313b0523d3829c7d71f77b70db96414bca",
        "spea2_cartesian/seed_1/history.json": "710c716892ac3b27195f2da0d1933a7c39d8a68e73a166ad6ed6e15314f266ce",
        "spea2_cartesian/seed_1/snapshots.csv": "b2b05f240561bf4ca9f0c2b9b8e5d6d4e4f5c8ff1a6f234ea49f0bcc4e8d1698",
        "spea2_cartesian_greedy/convergence.csv": "3772b80d7a54f158a6661d5f01b64a37d7f82e962183359e552049f7ccd845d4",
        "spea2_cartesian_greedy/fronts_2d.csv": "ab706d7978449d51aeb4038a7dfef1e3aba1f8d407d355617f818b779a273c79",
        "spea2_cartesian_greedy/seed_1/final_front.csv": "fd4dcb0147a97198cf5b06bdfc0924bf8902dbc937f1162e5e2b6123c0170b67",
        "spea2_cartesian_greedy/seed_1/final_front.json": "f410ec0ae05bf4e5458d00d45534f0275c5eae17c2c7171b89bcac87d9c6f775",
        "spea2_cartesian_greedy/seed_1/history.json": "ce8088d8d24b171c4db5b30f8a07719fbcada313a6c60d6095f2ea3f04e3f078",
        "spea2_cartesian_greedy/seed_1/snapshots.csv": "d46b17994be1565462b1cf7fd3749d03829d9150b4dde255f17d5d85fbdfc9d8",
        "summary.csv": "91ff1eb4b56fb3233079801ff11a8bf0db773a84cde23197f5832b0e81dc0c18",
    },
    "tiny_discrete": {
        "de_angular/convergence.csv": "bd2f1b53d95b8bc2556bc40085cb537f904a7dcd5ce9aeb84a177eb92965050d",
        "de_angular/fronts_2d.csv": "156ba8350939ce727b4a18b6fbbbc0c2a140e90ee9d551d9b09a3908c581aa84",
        "de_angular/seed_1/final_front.csv": "e7bde705d86e0c0df9a398af89f78b7c83d45101d34bafc9efe9361f8437279f",
        "de_angular/seed_1/final_front.json": "a3c0f92dea09c853405ec19cfc42df1df000c77a17a9881e62238f25f72d6403",
        "de_angular/seed_1/history.json": "a0c641f8a11a41b29507ea6915352e34a595e1a1fa213c979e5a7b5760c6cb08",
        "de_angular/seed_1/snapshots.csv": "37ed744530c3b55a50c74ee7ecb74430fe3045a44fecb88f1f7933ef91d0a9fc",
        "de_angular_greedy/convergence.csv": "bd2f1b53d95b8bc2556bc40085cb537f904a7dcd5ce9aeb84a177eb92965050d",
        "de_angular_greedy/fronts_2d.csv": "156ba8350939ce727b4a18b6fbbbc0c2a140e90ee9d551d9b09a3908c581aa84",
        "de_angular_greedy/seed_1/final_front.csv": "e7bde705d86e0c0df9a398af89f78b7c83d45101d34bafc9efe9361f8437279f",
        "de_angular_greedy/seed_1/final_front.json": "2c77d4796f8175f3388ee47c36fa416aa41eae438ab0e64db0d57c8b4cbfa107",
        "de_angular_greedy/seed_1/history.json": "516dfc4ba493f9a938cc94ad50cd15d605406b29ca9a83bf87bd6e0217645c95",
        "de_angular_greedy/seed_1/snapshots.csv": "37ed744530c3b55a50c74ee7ecb74430fe3045a44fecb88f1f7933ef91d0a9fc",
        "de_cartesian/convergence.csv": "056f65da407d440741d9f829103f7af051560ebaad6f81bb7d9f0f2280992922",
        "de_cartesian/fronts_2d.csv": "ba0e6d9514c84f95bf9ae7a1ec8244edebec3dbb1a00a1f191787151ddce3977",
        "de_cartesian/seed_1/final_front.csv": "be39a8f9583d099871bfa5e66656ca724925f59ee9970ab0bb714b203389a448",
        "de_cartesian/seed_1/final_front.json": "043674d79d2b09c821c2f03b3d1f4236adefe4a3fe4245973d481bb15ad37599",
        "de_cartesian/seed_1/history.json": "e3129ca73104b4585163820595bba42103fd0af17bce0063cbbccee6e9d9c5ff",
        "de_cartesian/seed_1/snapshots.csv": "a0935d2b574ce47ef77b2ec67102fb9b3bb15838f59ef879f3dde9d1a2961fbc",
        "de_cartesian_greedy/convergence.csv": "056f65da407d440741d9f829103f7af051560ebaad6f81bb7d9f0f2280992922",
        "de_cartesian_greedy/fronts_2d.csv": "ba0e6d9514c84f95bf9ae7a1ec8244edebec3dbb1a00a1f191787151ddce3977",
        "de_cartesian_greedy/seed_1/final_front.csv": "be39a8f9583d099871bfa5e66656ca724925f59ee9970ab0bb714b203389a448",
        "de_cartesian_greedy/seed_1/final_front.json": "e74195b0cea0306990423ec75a6b3d0be92eae91c39d35de8bd227347b7a04f2",
        "de_cartesian_greedy/seed_1/history.json": "826fc04b5b661ee2a2261a02c415cfe24591be274719815f9bced36ddf2bfe26",
        "de_cartesian_greedy/seed_1/snapshots.csv": "a0935d2b574ce47ef77b2ec67102fb9b3bb15838f59ef879f3dde9d1a2961fbc",
        "metrics.json": "78fb0995124e28e70a702a62ffeb78de06290fcc10cc86d58d1147081d6dd280",
        "plan.json": "e18cb9d3d5b861cec3cb6c382f4edcb6525670447c872aaa58357cbca8941345",
        "scenario.json": "ac3a33769274c620335e4961f9776c54d9d97f166665042ced227a957682db80",
        "spea2_angular/convergence.csv": "57b4c83ab3692d068d96172daf418516ae2ee04becafbe1521c17dfb12ab8934",
        "spea2_angular/fronts_2d.csv": "a93dc554f693fcb3a4fe9fb7bd9584a6be2ceae9eb9cdf1d5240143a5a001043",
        "spea2_angular/seed_1/final_front.csv": "0b94b7219b1bef0429efba9c59ec73cc547b3d9fc374b5f98804f2cca4e7b364",
        "spea2_angular/seed_1/final_front.json": "17919506b30a2ba93e82b7b8fb7a33024bdabd08991a47a22a82f72c6cd84787",
        "spea2_angular/seed_1/history.json": "b2cebf3d28582ab8c4043acf72aba277cda0ca5e24703146d14a7a29582c759b",
        "spea2_angular/seed_1/snapshots.csv": "91723afe7c310f6e2ad9db392df6ae448ad273f0f5e6f51d2fc69754f4b61247",
        "spea2_angular_greedy/convergence.csv": "d30186833069ba6485c9d3231086d8c13c3b785dd7465d7327ade8811c0f0bea",
        "spea2_angular_greedy/fronts_2d.csv": "ee2b60536639fe5e291a4516254929df74c3653c0ef6f44bc0481a28e8848310",
        "spea2_angular_greedy/seed_1/final_front.csv": "fc1b7deecdaeb2a177ab7fd07e6b9e6cc49c108fe8b739ff5ad483b6fbbf7613",
        "spea2_angular_greedy/seed_1/final_front.json": "95cea0a7b5ea75187d5744b21a83a98511bda4475df3dca120df5499684c2874",
        "spea2_angular_greedy/seed_1/history.json": "5a482f63f58fdc55faa2dec24759dfeb3970e58cdb83405254fec63ea76f60cc",
        "spea2_angular_greedy/seed_1/snapshots.csv": "c654a754e6de53419cc6ab23abca09c4f311d6715cfc34786e5b38b7977f7c49",
        "spea2_cartesian/convergence.csv": "4334c9bf7d1472909a422cda3271d68f5f231f349186f0d78234da78fc366b6a",
        "spea2_cartesian/fronts_2d.csv": "4b5b0a11ed295ad55bed1436d4386b727af6e7e5046cf19a93d58e9e7fced1db",
        "spea2_cartesian/seed_1/final_front.csv": "607cac4b27acc5cb503957cbf482015d9a19ea7a0dd90140e2e5e41bb7305a65",
        "spea2_cartesian/seed_1/final_front.json": "fe1917111ce944c83be0c7de1a51d8d4ed1e8088cbb7a45762e3b53c456c1f34",
        "spea2_cartesian/seed_1/history.json": "d41bd15fdf2b5f187416c668d40e2c047599da26e3ce29b7b7f16128584d3075",
        "spea2_cartesian/seed_1/snapshots.csv": "404c9a3730bc97da7096290b521fb42ec1985330acc0d496ac87f09f174f7726",
        "spea2_cartesian_greedy/convergence.csv": "354ac727c2894733324434c7a56ca256e5db6d9d4de08582ec96a1795e14cfaa",
        "spea2_cartesian_greedy/fronts_2d.csv": "93096d9300ac6c30f89501f750bafea8126aaada5b74a46c708f315656ab4555",
        "spea2_cartesian_greedy/seed_1/final_front.csv": "795912b81329d4f6f4833d6b6113a82956351cafb90bc85a8e009f35bb263213",
        "spea2_cartesian_greedy/seed_1/final_front.json": "9bd29bf8d6c2edbb6b0113810addf7b20ad221abd99832db31f4c25454012d05",
        "spea2_cartesian_greedy/seed_1/history.json": "aa61af027bc8063d31ebe6269725b66d0ac131b72d9c4a189be2a90065856978",
        "spea2_cartesian_greedy/seed_1/snapshots.csv": "211f94c801d659dcf7f2af009d3e42385906358c306812fcc3d89be3a0bf6d4d",
        "summary.csv": "08e7ec88bd46117e01c1773e3a3deb730ab1be95718d15d9969d8922f9b6aa98",
    },
}


def golden_plan(scenario: str) -> ExperimentPlan:
    return ExperimentPlan(
        variants=[
            VariantSpec(algorithm, Encoding(encoding), greedy)
            for algorithm in ("spea2", "de")
            for encoding in ("angular", "cartesian")
            for greedy in (False, True)
        ],
        seeds=[1],
        generations=4,
        population_size=10,
        archive_size=10,
        scenario=scenario,
        name="comparison",
    )


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# tiny_discrete's search space holds a +100 % cost layout, which warns by
# design (test_objectives checks the warning); here only the bytes matter
@pytest.mark.filterwarnings("ignore::bwopt.objectives.EvaluationWarning")
@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_experiment_tree_matches_golden_digests(tmp_path, scenario):
    run_experiment(golden_plan(scenario), resolve_scenario(scenario), tmp_path)
    digests = tree_digests(tmp_path)
    expected = GOLDEN[scenario]
    assert sorted(digests) == sorted(expected), "the tree's file list changed"
    differ = [path for path in expected if digests[path] != expected[path]]
    assert not differ, f"{len(differ)} files differ from their recorded digests: {differ}"
