"""Golden SHA-256 hashes of experiment CSVs, reports, measures, edge sets and IO.

These hashes guard byte-identical refactors: a change that is meant to keep
every output unchanged must keep every hash below.  They were recorded with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on x86-64 and are tied to that
numpy build; another build may round differently in the last digit, and then
the hashes are re-recorded from the unchanged code before any refactor.
``python3 tests/test_golden.py`` prints every dict below as the current code
computes it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hiercomp.attachment import MECHANISMS, add_edges, edge_weights
from hiercomp.complexity import complexity_report, hc_global, nhc_alt_sqrtk, nhc_global
from hiercomp.experiments import RunManifest, run_experiment
from hiercomp.generators import ModelSpec, child_seed, gen_config, gen_er, gen_rgg, gen_rhgg, generate
from hiercomp.graph import build_graph
from hiercomp.workbench import read_edgelist, write_edgelist

P3 = [(0, 1), (1, 2)]

MANIFESTS = {
    "fig2": RunManifest(experiment="fig2", seed=0, realisations=2, n_range=(30, 80)),
    "fig4": RunManifest(experiment="fig4", seed=0, realisations=3, n=120),
    "fig5": RunManifest(
        experiment="fig5", seed=0, n=120, base_count=1, base_density=0.05,
        fractions=(0.0, 0.01, 0.02), mechanisms=MECHANISMS,
    ),
}

GOLDEN_CSV = {
    "fig2.csv": "0fd9ac4715a84a37acb7bdd7e678fb60614871dd719f35f4c2997934cc9212bb",
    "fig4.csv": "010a9e63dfe1e629514aaf9d35c27f1e68e07acd684ea63cb4bba451a01cf625",
    "fig4_profile.csv": "1e5c5d82db3002490feb4b3a3ca56a02db6e693c282ebf3c6eae2093441e0681",
    "fig5.csv": "79682d6c5a635552fc476bbbd3f755cda1251a0d9b410c2e7cd09f9b1ed0e821",
}

GOLDEN_REPORTS = {
    "sixnode": "04eab8d8f2048adb1a3506b0bd60fa94e186676d525d120ec3e804d2582b9475",
    "er-40": "7f7f4b5264df97e749f488e20444b2d14b6443c1c3c26fb3584a205376275e08",
    "er-90": "87cd82b10fabe488269b7625145af4d0cd3b6c27cf2524dc5384079ed426c825",
    "rgg-40": "fbe15be0b5fa393b40adac1ace1ac41489ec047ae8fffd5ed8f1ae16e1ffb580",
    "rgg-90": "2d817c467f5d7f37e33d28c1f288633f57115280efedcab1d38316ede7914b91",
    "rhgg-40": "4c8d3ddac023ccde09577235e7e213da37158337851bf41cc621952a136dacad",
    "rhgg-90": "c5e775fc31af7bc779872016dc6ba8b0887a6c9eec4ac505655fde2f68fd7f34",
    "rhg-40": "50c0118ba2fff1178e95fef2965bb361392414b24205b1221c7a8d51f452d8ea",
    "rhg-90": "72ce46988b6dec3fac5a6e99ff6f0c883f8ac6844bbba031c2f88e6f8f1e3bee",
}

# repr of [hc_global, nhc_global, sqrt-k, sqrt-k sqrt-m] at ddof 0, then ddof 1
GOLDEN_MEASURES = {
    "sixnode": "6d986254b973d5daf586f32358c7c1ef499f1a3d28ae5a4833a8993122577ccc",
    "er-40": "af13551ee52111e1d62d266343e2753e0658d2984725ec3066982027d29f7242",
    "er-90": "a678d880e5ae86a461e1d3de1421bdde3099639fabb217b16a0a9cffdef2fb1a",
    "rgg-40": "48b4d8f8e26aac0d620af818dfb18bca6e54a1051ccdbda079b321226121eaf1",
    "rgg-90": "082d0618d7f5b408cdc82eed645468681f25d4cf6e8ad35bdf03198ba849cb95",
    "rhgg-40": "9ea63192d4229659f9290fb0a496be51ddb07070ab3a16a7a8d0e7bf63e69643",
    "rhgg-90": "3c8d1300250bfe6b99e55a73e2c55b32e04981cfda57e86455a4950ff3ef261a",
    "rhg-40": "75ffe86b85bfbcd82c2ee4ee48812625c869794291e3601caabce56f5c1f4a3c",
    "rhg-90": "933322399e39b53b751a2043144472a8eccab63835ed4ca54921276a8ecae8aa",
}

GOLDEN_EDGES = {
    "p3-similarity": "7c575f13e65aaedbd8f53c4d08b1c19f84acf7e0f139ef55a790c6bf2ec9146b",
    "p3-combined": "02b1a41cfe305bf071d7e902c9b3b576b6addcb74717d0deae6a74c6680dc036",
    "rgg40-similarity": "1e84ca0cab420a64a1b52b9a762c91b5ffbe34061a5def9599675542e632bb8e",
    "rgg40-combined": "d8068d6d18bff5d884ab41250e76fed5a5ee50b34bf58758cb7b972016e5d378",
}


# SHA-256 of n, m, indptr, indices, degrees and edge_array() (dtype and bytes),
# and of the bytes of a written edge-list file
GOLDEN_CSR = {
    "sixnode": "72720157212519546556bebc6ccb9a52025c80071f4f28b19f1f892df78257b2",
    "er-40": "ad518f51638bf93d4bb3db79826eccdb54b70cebfa02cafc646c08b33aa05b3b",
    "er-90": "9377d52d2f33053c0bf38346b09e79c78f5558865daf09ba4fe10de185185b4e",
    "rgg-40": "96fb82d64d064e42a2ff9ae74c519e7c9aca15059edbe70cc90dc10a6057a126",
    "rgg-90": "948315c08cc58015a5f7629f62f301cf4d33c232a00a8fd604afcc3b04933a08",
    "rhgg-40": "ed377680d70ba9ceb2cbcab459448618147d0361be59d9e8a734698c5cf09c07",
    "rhgg-90": "532ffa7f56d4122675c5fff94f764ff983b75e9704580f6225d221ab6a8ff440",
    "rhg-40": "5d4febab0f306dbf9b491039876ffb4b231db2273f59d5c32f730c0c70b41056",
    "rhg-90": "d26387760dac14318304e18c64002d484c939cef7ff6a15d402b43598fac8c9e",
    "rhg-60-dense": "e6905c00d25bbb345266468101663b34ac154e2f2114bbd1050c419dcc722510",
    "er-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "rgg-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "rhgg-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "er-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "rgg-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "rhgg-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "config-zeros": "2a48c30ef732845458e5584712134ce33f6afb38e19e18e25a7e7b3497aa1e40",
    "build-messy": "c6760f155660a4f335a0131bfe83e9150ce84caffdb387454db19ef7a2b6c9a2",
    "rgg90-add-random": "9ea5cfac0bbe7ff2b641725531f19cb95f68e9f263fc5db7d3e18c0059ef4cc6",
    "rgg90-add-hierarchical": "fc2255d5b334f0b7a28dd84840da78680c85853b4e2362e688af3905dd9ca3de",
    "rgg90-add-similarity": "68460aaa6a320dbb1847696ec4edb26de54f0509f182e3a65a768b2195f9531b",
    "rgg90-add-combined": "0a31189309f29303cd435e03c61a20c74113e475d2ad2d582843eedfcea1f961",
    "k2-200-hierarchical": "dd9ae44ac827350d92f1de398d05919ec059d8defbf9cd00bf8b55a76420e414",
    "rhgg-90-file": "d210a15a0b414db3a2f94015f99b117ec9751d3f239525dd894e387fbdc12791",
    "rhgg-90-reread": "5f165fb0fb7fa84b27260faef6d7e11ea7cda40b82b4c64d141a464d7da2ea49",
}

# add_edges above n = 8192, where random and hierarchical sample by rejection
GOLDEN_LARGE = {
    "er9000-random": "4f3b4d1e2828b587fa6f0a487563c7a93fa5021f6e38502050da5af25046d46b",
    "er9000-hierarchical": "918582e9e97401dbe242f3defa30a13571a0ce981f78dba40fd1c1898b6fae30",
    "er9000-similarity": "cf8a76f0efc40119dd25cb55df2e99f59728d09a0478ab442ef183d306351a9c",
    "er9000-combined": "0119b808f4d164acc5185a710610d8d54609a8b65249b5f64294c658559e63f4",
    "empty9000-hierarchical": "e79fc7269319f93c6f068af92227193651123f5e7be844819bf0a913a5d0831b",
    "disjoint9001-similarity": "ff6102c94a6a5d6b395dea61ce76c44b769c8c01cdfa38281072f4b80756dc4f",
    "disjoint9001-combined": "ff6102c94a6a5d6b395dea61ce76c44b769c8c01cdfa38281072f4b80756dc4f",
    "p3pad9001-similarity": "3c55403240f923051c5711f7663981c1f472001b4deae5c872e4b497a1a3aa7d",
    "p3pad9001-combined": "3c55403240f923051c5711f7663981c1f472001b4deae5c872e4b497a1a3aa7d",
    "k2pad9001-hierarchical": "808b52e2c3af4901eaf652aa9fa5cf57fecee5348582391b854f5fa0741265d0",
}

# read_edgelist (CSR, n and labels), write_edgelist bytes, build_graph on
# 100k shuffled, duplicated, reversed and self-loop pairs
GOLDEN_IO = {
    "mm-banner-values": "fb863d3290d87b8449d5ae37e34e3943e63e0823924e3e739beb8f007dbfe36f",
    "labels-comments-hint": "70694274518da951cdacb9ed8cc97acbcc3df2dd80935b5838f5095bf005052f",
    "mm-hint-no-banner": "e0de29b4f1c24dc663526fc644ce2a1d88a835bb6ea702e1cebdea60e76c651f",
    "write-trailing-isolated": "d6e665863a82fc6c40fd53bb2798bac793e5fcfd5cd34766d6ebfd0d2390eed5",
    "write-empty": "80fee807df30e94469ed313133ee32f8404749847c0f464c75e3804babf6add1",
    "build-100k-shuffled": "5d5e885f09a4a7804ef5157ece48732b6102caba8fcb993a9a0416873bebab38",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csr_sha(g) -> str:
    """Hash of n, m and the dtype and bytes of the CSR arrays and edge array."""
    h = hashlib.sha256(f"{g.n} {g.m}".encode())
    for a in (g.indptr, g.indices, g.degrees, g.edge_array()):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _graphs(sixnode):
    yield "sixnode", sixnode
    for i, family in enumerate(("er", "rgg", "rhgg", "rhg")):
        for j, (n, target) in enumerate(((40, 0.15), (90, 0.05))):
            spec = ModelSpec(family=family, n=n, target=target, seed=child_seed(7, i, j))
            yield f"{family}-{n}", generate(spec)


def _widening_cases():
    # candidate sets (shared-neighbour pairs) smaller than the batch
    yield "p3-similarity", build_graph(P3, n_hint=4), "similarity", 3, 5
    yield "p3-combined", build_graph(P3, n_hint=4), "combined", 2, 9
    sparse = generate(ModelSpec(family="rgg", n=40, target=0.03, seed=child_seed(7, 9)))
    yield "rgg40-similarity", sparse, "similarity", 60, 3
    yield "rgg40-combined", sparse, "combined", 30, 4


def _edge_set_cases(sixnode):
    yield from _graphs(sixnode)
    # d > 1/2: gen_config pairs the complement and inverts it
    yield "rhg-60-dense", generate(ModelSpec(family="rhg", n=60, target=0.9, seed=child_seed(7, 8)))
    for n in (1, 5):
        yield f"er-{n}-empty", gen_er(n, 0.0, 3)
        yield f"rgg-{n}-empty", gen_rgg(n, 0.0, 3)
        yield f"rhgg-{n}-empty", gen_rhgg(n, 0.0, 3)
    yield "config-zeros", gen_config([0, 0, 0], seed=0)
    messy = [(4, 1), (1, 4), (2, 2), (0, 3), (3, 0), (1, 0), (4, 1), (0, 2)]
    yield "build-messy", build_graph(messy, n_hint=7)
    base = dict(_graphs(sixnode))["rgg-90"]
    for mechanism in MECHANISMS:
        yield f"rgg90-add-{mechanism}", add_edges(base, mechanism, 40, 5)
    # hierarchical weights run out: tops up uniformly among the isolated pairs
    yield "k2-200-hierarchical", add_edges(build_graph([(0, 1)], n_hint=200), "hierarchical", 400, 6)


def _large_cases():
    base = gen_er(9000, 0.0003, child_seed(0, 900))
    for mechanism in MECHANISMS:
        yield f"er9000-{mechanism}", add_edges(base, mechanism, 40, 3)
    yield "empty9000-hierarchical", add_edges(build_graph([], n_hint=9000), "hierarchical", 5, 1)
    disjoint = build_graph([(0, 1), (2, 3)], n_hint=9001)
    for mechanism in ("similarity", "combined"):
        yield f"disjoint9001-{mechanism}", add_edges(disjoint, mechanism, 5, 1)
    # too few positive-weight pairs: take them all, then top up uniformly
    p3 = build_graph(P3, n_hint=9001)
    for mechanism in ("similarity", "combined"):
        yield f"p3pad9001-{mechanism}", add_edges(p3, mechanism, 3, 5)
    k2 = build_graph([(0, 1)], n_hint=9001)
    yield "k2pad9001-hierarchical", add_edges(k2, "hierarchical", 18000, 2)


def _io_files():
    """(name, format_hint, text) of edge-list files covering every reader rule."""
    rng = np.random.default_rng(61)
    rows = [f"{u} {v} {w!r}" if k % 3 else f"{u} {v}"
            for k, (u, v, w) in enumerate(zip(
                rng.integers(1, 121, 400).tolist(), rng.integers(1, 121, 400).tolist(),
                rng.random(400).round(4).tolist()))]
    yield "mm-banner-values", None, (
        "%%MatrixMarket matrix coordinate real symmetric\n% generated\n"
        "120 120 400\n" + "\n".join(rows) + "\n")
    words = [f"w{i}" for i in rng.permutation(90).tolist()] + ["alpha", "b-2", "Z.z"]
    lines = ["# nodes: 40 (superseded)", "% a percent comment", ""]
    for k in range(600):
        a, b = (words[i] for i in rng.integers(0, len(words), 2).tolist())
        if k % 7 == 0:
            b = a  # self-loop
        lines.append(f"  {b} {a}" if k % 5 == 0 else f"{a}\t {b}  ")
        if k % 11 == 0:
            lines.append(lines[-1])  # duplicate pair
        if k % 97 == 0:
            lines += ["", "   ", "#   nodes: 150", "% not a hint"]
    yield "labels-comments-hint", None, "\n".join(lines) + "\n"
    body = [f"{u} {v}" if k % 2 else f"{u} {v} 1.5"
            for k, (u, v) in enumerate(zip(rng.integers(1, 60, 200).tolist(),
                                           rng.integers(1, 60, 200).tolist()))]
    yield "mm-hint-no-banner", "matrixmarket", "% no banner\n59 59 200\n" + "\n".join(body) + "\n"


def io_hashes(tmp_path) -> dict[str, str]:
    out = {}
    for name, hint, text in _io_files():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        g = read_edgelist(path, format_hint=hint)
        out[name] = _sha(f"{_csr_sha(g)} {g.n} {g.labels!r}".encode())
    rng = np.random.default_rng(62)
    pairs = rng.integers(0, 4000, size=(30_000, 2))
    pairs = np.concatenate((pairs, pairs[:, ::-1], pairs[:20_000], pairs[:20_000, :1].repeat(2, 1)))
    for name, g in (
        ("write-trailing-isolated", build_graph(pairs[:300] % 50, n_hint=80)),
        ("write-empty", build_graph([], n_hint=4)),
    ):
        path = tmp_path / f"{name}.txt"
        write_edgelist(g, path)
        out[name] = _sha(path.read_bytes())
    out["build-100k-shuffled"] = _csr_sha(build_graph(rng.permutation(pairs), n_hint=4500))
    return out


def large_hashes() -> dict[str, str]:
    return {name: _csr_sha(g) for name, g in _large_cases()}


def csr_hashes(sixnode, tmp_path) -> dict[str, str]:
    out = {name: _csr_sha(g) for name, g in _edge_set_cases(sixnode)}
    path = tmp_path / "rhgg-90.txt"
    write_edgelist(dict(_graphs(sixnode))["rhgg-90"], path)
    out["rhgg-90-file"] = _sha(path.read_bytes())
    out["rhgg-90-reread"] = _csr_sha(read_edgelist(path))
    return out


def csv_hashes(tmp_path) -> dict[str, str]:
    out = {}
    for name, manifest in MANIFESTS.items():
        for path in run_experiment(manifest, tmp_path / name):
            if path.suffix == ".csv":
                out[path.name] = _sha(path.read_bytes())
    return out


def report_hashes(sixnode) -> dict[str, str]:
    return {
        name: _sha(json.dumps(complexity_report(g).to_dict(), sort_keys=True).encode())
        for name, g in _graphs(sixnode)
    }


def measure_hashes(sixnode) -> dict[str, str]:
    out = {}
    for name, g in _graphs(sixnode):
        values = []
        for ddof in (0, 1):
            values += [
                hc_global(g, ddof=ddof),
                nhc_global(g, ddof=ddof),
                nhc_alt_sqrtk(g, sqrt_m=False, ddof=ddof),
                nhc_alt_sqrtk(g, sqrt_m=True, ddof=ddof),
            ]
        out[name] = _sha(repr(values).encode())
    return out


def edge_hashes() -> dict[str, str]:
    out = {}
    for name, g, mechanism, count, seed in _widening_cases():
        assert edge_weights(g, mechanism).codes.size < count, name
        h = add_edges(g, mechanism, count, seed)
        out[name] = _sha(np.ascontiguousarray(h.edge_array(), dtype=np.int64).tobytes())
    return out


def test_experiment_csvs_are_golden(tmp_path):
    assert csv_hashes(tmp_path) == GOLDEN_CSV


def test_complexity_reports_are_golden(sixnode):
    assert report_hashes(sixnode) == GOLDEN_REPORTS


def test_global_measures_are_golden(sixnode):
    assert measure_hashes(sixnode) == GOLDEN_MEASURES


def test_widened_attachment_edges_are_golden():
    assert edge_hashes() == GOLDEN_EDGES


def test_edge_sets_are_golden(sixnode, tmp_path):
    assert csr_hashes(sixnode, tmp_path) == GOLDEN_CSR


def test_large_attachment_is_golden():
    assert large_hashes() == GOLDEN_LARGE


def test_edge_list_io_is_golden(tmp_path):
    assert io_hashes(tmp_path) == GOLDEN_IO


def _print_dict(name: str, hashes: dict[str, str]) -> None:
    print(f"{name} = {{")
    for key, value in hashes.items():
        print(f"    {key!r}: {value!r},".replace("'", '"'))
    print("}\n")


if __name__ == "__main__":
    # Print every GOLDEN_* dict as the current code computes it, ready to paste
    # above when a change re-keys an output on purpose.
    six = read_edgelist(Path(__file__).parent / "fixtures" / "sixnode.txt")
    with tempfile.TemporaryDirectory() as tmp:
        _print_dict("GOLDEN_CSV", csv_hashes(Path(tmp)))
        _print_dict("GOLDEN_REPORTS", report_hashes(six))
        _print_dict("GOLDEN_MEASURES", measure_hashes(six))
        _print_dict("GOLDEN_EDGES", edge_hashes())
        _print_dict("GOLDEN_CSR", csr_hashes(six, Path(tmp)))
        _print_dict("GOLDEN_LARGE", large_hashes())
        _print_dict("GOLDEN_IO", io_hashes(Path(tmp)))
