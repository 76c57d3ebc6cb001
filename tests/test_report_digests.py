"""Exact reports stay byte for byte what they were.

Each digest is the SHA-256 of a JSON report with its ``config`` removed,
dumped with sorted keys. ``generate`` runs for n = 4..8 and ``centers`` on
the same instances for n = 4, 5, 6 and 8, with the true a as ``--center``
for n = 5 and 6. n = 7 is left out: its float fields depend on the LAPACK
build.
"""

import hashlib
import json

import pytest

from centersvar.cli import main

DIGESTS = {
    "generate n=4 seed=0": "1582b8c27e6cb8f5442c084b97378baeece344eb126f45f04762aa0f62f0b254",
    "centers n=4 seed=0": "63f0b4495509ce74532c77d955dbc3fbdf4477b5d870bb8b23032c4efca2be06",
    "generate n=4 seed=1": "dfd69e9d148d7037843e0c04d730421ab550e75368984b6ddddb8a46c6235165",
    "centers n=4 seed=1": "94f8f5a6768ae4c1ebcdecc84a6c09f937657b99db156d6ef96c9c7adaaf83a5",
    "generate n=4 seed=2": "37dde108195aa054d9071184a409274ef8d0394ee81b1a712fe70448f3a0ca4b",
    "centers n=4 seed=2": "f64ca1b0a73f43a9725d00e92835fc7df7c3621f37c7c006ffb521fc71b8d888",
    "generate n=5 seed=0": "1ec081ddf3f5c388343fc65580cab42bb848a693d99bb00e1473fd17312ea333",
    "centers n=5 seed=0": "00d1fdb6aebc6221e212e71d35ac4f960eff2620e2af13f14d733cb12d9c3b2f",
    "generate n=5 seed=1": "0ee765544229227dff5bb14635e344c40a9e00b3119915726d0f1bf4ca07bcde",
    "centers n=5 seed=1": "f9978a67fd5788d4586f80cafdbb1bd831d4b543821dc05b5f69f03ef42671de",
    "generate n=5 seed=2": "29434caebd79d2d36de7ae3e920a75e6a1b44b0c8aeb3a40c745c52981eab355",
    "centers n=5 seed=2": "73bf822dc70a9287ab1c4cfd55908cf21ea608c95f3bac24b19813796c7fecef",
    "generate n=6 seed=0": "328d3f5d76322cb3c3e00646c6448bb85fda6d4349f5d21b1dcc02de06fb2f15",
    "centers n=6 seed=0": "0e149397a6bd925bdc9bc1fcceed5c6228ef2ab6db1ce32dd5e835a0c788288a",
    "generate n=6 seed=1": "cfa73199621d5b56610b365f9d22711e179717f128cb27b462e89a1a8d0b5583",
    "centers n=6 seed=1": "62fed491c10a50c7e3452a21c24003843065d9a9e14c67376f0854d8e881711d",
    "generate n=6 seed=2": "13d04daa139509e17dcfab489b9cd950ffac6b68f2c3a93109e0cac39b01dea9",
    "centers n=6 seed=2": "20e5f63ead28096b28e178173cc2aeb5a76d0585e760d6f7daf9bb88f8bb8939",
    "generate n=7 seed=0": "ade910d7e7981b05521507419e813e68217e84f0765b0be7df1c5f91ddded2a1",
    "generate n=7 seed=1": "fc5ad892c883a85e5647030b7a8d79913f0696799930bbf39cce12755d44df87",
    "generate n=7 seed=2": "6db171dbb9f7eb5ee217ba61dc620da9191c6b9c05884f875a126389f6581830",
    "generate n=8 seed=0": "618b2652db370f2052af07c4bf2d52beaf7b31db8489d5b41b234238179dac47",
    "centers n=8 seed=0": "d318acae696704a5980a58f32e877b168ceaac9f5fbf1db9a908ebcd8d3ae441",
    "generate n=8 seed=1": "d3e2da5cb7477e22ae898e2231f5386f25a97f22b09e28678cafb9e24518705d",
    "centers n=8 seed=1": "f7bbd47a867323f8762d809251680788833750baa040aa74b80ac85fd9b301a1",
    "generate n=8 seed=2": "294d4f9a4ffbe93815a64e7811a4ee944928a20ea944e5216aed79112a890a4e",
    "centers n=8 seed=2": "5976627019c4e895aa4a8b076f7476235a64eede8c582e89c78db594703db8ca",
}


def digest(path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("config")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def reports(tmp_path, n, seed):
    """(label, report path) of the generate report and, but for n = 7, the
    centers report on its instance."""
    inst = tmp_path / "inst.json"
    assert main(["generate", "--n", str(n), "--seed", str(seed), "-o", str(inst)]) == 0
    yield f"generate n={n} seed={seed}", inst
    if n == 7:
        return
    doc = json.loads(inst.read_text())
    files = {}
    for key, value in (("X", doc["X"]), ("Y", doc["Y"]), ("a", doc["ground_truth"]["a"])):
        files[key] = tmp_path / f"{key}.json"
        files[key].write_text(json.dumps(value))
    argv = ["centers", "-i", str(files["X"]), "-j", str(files["Y"])]
    if n in (5, 6):
        argv += ["--center", str(files["a"])]
    out = tmp_path / "centers.json"
    assert main(argv + ["-o", str(out)]) == 0
    yield f"centers n={n} seed={seed}", out


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("seed", range(3))
def test_reports_match_their_pinned_digests(tmp_path, monkeypatch, n, seed):
    monkeypatch.delenv("CENTERSVAR_SEED", raising=False)
    for label, path in reports(tmp_path, n, seed):
        assert digest(path) == DIGESTS[label], label
