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

import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hiercomp.attachment import MECHANISMS, add_edges, edge_weights, non_edge_count
from hiercomp.cli import main
from hiercomp.complexity import complexity_report, nhc_alt_sqrtk, nhc_global
from hiercomp.experiments import RunManifest, run_experiment
from hiercomp.generators import ModelSpec, child_seed, gen_config, gen_er, gen_rgg, gen_rhgg, generate
from hiercomp.graph import build_graph
from hiercomp.workbench import read_edgelist, write_edgelist

P3 = [(0, 1), (1, 2)]

MANIFESTS = {
    "fig2": RunManifest(experiment="fig2", seed=0, realisations=2, n_range=(30, 80)),
    # er on both sides of the dense switch at p = 1/2
    "fig3": RunManifest(experiment="fig3", seed=0, grid=((40, 0.7), (120, 0.05), (300, 0.01)),
                        seeds_per_point=3),
    "fig4": RunManifest(experiment="fig4", seed=0, realisations=3, n=120),
    "fig5": RunManifest(
        experiment="fig5", seed=0, n=120, base_count=1, base_density=0.05,
        fractions=(0.0, 0.01, 0.02), mechanisms=MECHANISMS,
    ),
}

# criterion 8's fig5 manifest with one base: non-edges listed over many blocks
FIG5_N1000 = RunManifest(experiment="fig5", seed=0, n=1000, base_count=1)
# criterion 8's fig5 manifest as the acceptance suite runs it
FIG5_CRITERION8 = RunManifest(experiment="fig5", seed=0)
# coarse fractions: steps of up to 30% of m0 on a denser base, so new edges
# share endpoints, and a 150% step on a sparse base, which runs out of
# shared-neighbour candidates and tops up uniformly
FIG5_COARSE = RunManifest(
    experiment="fig5", seed=0, n=300, base_count=1, base_density=0.05,
    fractions=(0.0, 0.05, 0.2, 0.5), mechanisms=("similarity", "combined"),
)
FIG5_COARSE_SPARSE = RunManifest(
    experiment="fig5", seed=0, n=300, base_count=1, base_density=0.005,
    fractions=(0.0, 0.05, 0.2, 0.5, 2.0), mechanisms=("similarity", "combined"),
)

GOLDEN_CSV = {
    "fig2.csv": "b3a1477f9b08173e7318c72b16837b652344be3e1fecc159d03eacefad1646d8",
    "fig3.csv": "8f0bc10c094a762dabb161d2cf5eed635453ceaca823bdea7169ede7106a19a9",
    "fig4.csv": "010a9e63dfe1e629514aaf9d35c27f1e68e07acd684ea63cb4bba451a01cf625",
    "fig4_profile.csv": "1e5c5d82db3002490feb4b3a3ca56a02db6e693c282ebf3c6eae2093441e0681",
    "fig5.csv": "4e5a7d2532d2bb0754b63ae5e26b7f5bbb7e9a77554463b71f3d63fec4bf32df",
}

GOLDEN_REPORTS = {
    "sixnode": "04eab8d8f2048adb1a3506b0bd60fa94e186676d525d120ec3e804d2582b9475",
    "er-40": "a32cb8a9ac6be73d7f0ce3679606b3c563bfb8da4a1663fa8410cb9bd6960001",
    "er-90": "3d69b292f86d9ebcd98478c7547540f18d27d9fffca51c7395f51ec0763f8241",
    "rgg-40": "fbe15be0b5fa393b40adac1ace1ac41489ec047ae8fffd5ed8f1ae16e1ffb580",
    "rgg-90": "2d817c467f5d7f37e33d28c1f288633f57115280efedcab1d38316ede7914b91",
    "rhgg-40": "4c8d3ddac023ccde09577235e7e213da37158337851bf41cc621952a136dacad",
    "rhgg-90": "c5e775fc31af7bc779872016dc6ba8b0887a6c9eec4ac505655fde2f68fd7f34",
    "rhg-40": "71fe57e21a1431204ac8aead53915c01fd5cd543a25e908f1c9581c5aae10edb",
    "rhg-90": "d43053a3607ddce844070e1dd352d82e0f4219d8370d5fc76692e91561bd9a71",
}

# repr of [R, nhc_global, sqrt-k, sqrt-k sqrt-m]
GOLDEN_MEASURES = {
    "sixnode": "6a947695a6f52aeb0b4247c8fdf38dcbea10da499e49cfc06cb8588bc0eee13c",
    "er-40": "d28e12acc9124b5f0ba14057c627e5185619fdfee21fd2e9d10047226bbed79d",
    "er-90": "3512030e67ef60a9a71d077ca918db5d757313cfd28512c5519da1fbdd9bcc56",
    "rgg-40": "5c85acf7cd73910077efcaf085ea0e17d00e2ea380b581ee04f094fe6de8fde3",
    "rgg-90": "9ddd8ca147882e97a8b648a3079e80823e63eb952fba9a24ec47ae73deade792",
    "rhgg-40": "061dae6a97ee6229b4087f2a6c11550c7de367841a4e5870d91854a20e29526d",
    "rhgg-90": "83cb7967ec73ea1119bcfc9765d5993023c2c26fb99922d1597f947ccba2c2a3",
    "rhg-40": "33c0ae20e0cde2815f2bde0ef5fa4f5b0690ff492e947c2a43afbf5ffa8445e1",
    "rhg-90": "6154fc875ef3a963e6288a399f4402cf3cc8a01df431a87d5f752d2113e0229b",
}

# fig2's three measures in fig2's order, then in reverse order, then
# complexity_report, all on one graph object
GOLDEN_MEASURE_ORDER = {
    "sixnode": "aeed742dcf5122303c48021df55f2dc7bca5b652a4493d5d727fee955dab48d4",
    "er-40": "96ed2e4302df8085023afc7b835073d3bde6bd020f834a7334caf65ff8b094e5",
    "er-90": "f7d6c2d98d776604273ccb83a3406bf7e310a52eb22bba30c5017314f1550dbb",
    "rgg-40": "81f5313008d44bd8c19e2a2d84a831314f53773661e33d903cfb0bd5096d05a3",
    "rgg-90": "56c45b53dd8821b0988de31bbc9c968226799327a07e936d1be0e845be954fe5",
    "rhgg-40": "cfeda2ee11f210baf9b872b2bd7c9121464b1532a5598d466981b1ff4ac3dd3e",
    "rhgg-90": "adab13b939ad823c647a5547bd5bb6ed2835fbbe1d0195a6400f4450b3908177",
    "rhg-40": "90c9794fe639c787d2672c732bc8b165dd79ff32db69cca6d1ed079c29b86d69",
    "rhg-90": "37da6bc16b698f2ee7753226b10d9ad6b676088a387f073bb1a4d43d3c263073",
}

# `hiercomp rank` CSV and `hiercomp analyze` JSON on one directory (cli_hashes)
GOLDEN_CLI = {
    "rank": "c6d6ca47a2cc89deac0739604b1cebc179a23dd830c21d7e27930875c08e4c33",
    "analyze-er-60": "d1e0802b3ef2c982b838a1f53a1194bf01c0eefd8aa34aa703ab47b1b5125e7d",
    "analyze-rgg-80": "70dc64eb52e22867c82359e5ab5ed6aa179943023e57a91c3c6cb3f7c5fe3485",
    "analyze-rhgg-100": "711b62762f1bb3fde7bcb76d70926231276aa25816fdceccc66a01586d514b03",
    "analyze-sixnode": "af28e2232412843d260da88f3dfbb3005c02c13389c74aa298045f407c50fce2",
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
    "er-40": "a5c11026f4bbcf1df4f17b3c4ac4b2a941db1aa040b291f73f2e3112bd338f7f",
    "er-90": "53daf31dc2da0f7ab1a9ccbe4e5063e63389fb789d2d12b4684170748d8c26bd",
    "rgg-40": "96fb82d64d064e42a2ff9ae74c519e7c9aca15059edbe70cc90dc10a6057a126",
    "rgg-90": "948315c08cc58015a5f7629f62f301cf4d33c232a00a8fd604afcc3b04933a08",
    "rhgg-40": "ed377680d70ba9ceb2cbcab459448618147d0361be59d9e8a734698c5cf09c07",
    "rhgg-90": "532ffa7f56d4122675c5fff94f764ff983b75e9704580f6225d221ab6a8ff440",
    "rhg-40": "9e202394a13c4684736093f90aacf3a940fafe2009382a88ad9063cba6f0c761",
    "rhg-90": "c749bce45a4a6365c9b9f570122bd18f8f8a90fa7d23fd303d5f98f6f52abd3a",
    "rhg-60-dense": "330e582d76448e711007d4551d62cf3d1e3e755ff2b5c03e8083f3b2dc28bba2",
    "er-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "rgg-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "rhgg-1-empty": "ee98473907d559bbf6be6036bfbf44343e765064ec7fb35ed86c4fd44b4fe4ea",
    "er-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "rgg-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "rhgg-5-empty": "bbd98bcc1a6d5001cfccf0a8ec6a2afb1200019fb22777aa70a21565ec2ede4f",
    "config-zeros": "2a48c30ef732845458e5584712134ce33f6afb38e19e18e25a7e7b3497aa1e40",
    "build-messy": "c6760f155660a4f335a0131bfe83e9150ce84caffdb387454db19ef7a2b6c9a2",
    "rgg90-add-random": "2fffaa0ac96588c236be8dfbfe8b8593d4babf297db422c159c41a6dc0b0d932",
    "rgg90-add-hierarchical": "67c470e7cf0d76e7e70238381cf2e997b82102e7a03565468af7f3c2aa798b9e",
    "rgg90-add-similarity": "68460aaa6a320dbb1847696ec4edb26de54f0509f182e3a65a768b2195f9531b",
    "rgg90-add-combined": "0a31189309f29303cd435e03c61a20c74113e475d2ad2d582843eedfcea1f961",
    "k2-200-hierarchical": "3ddd965618b0512ba59ce0ff217f2fcaa3ff540030e0b4ad730e72e8b5ff6943",
    "rhgg-90-file": "d210a15a0b414db3a2f94015f99b117ec9751d3f239525dd894e387fbdc12791",
    "rhgg-90-reread": "5f165fb0fb7fa84b27260faef6d7e11ea7cda40b82b4c64d141a464d7da2ea49",
}

# add_edges above n = 8192 (the draws do not depend on n; these pin the same
# paths on graphs too large to list every non-edge)
GOLDEN_LARGE = {
    "er9000-random": "d8d939f5c8dcbbf7c75e0b94e79f3b1e3eb607dd689800183c13d66b1d5a2a50",
    "er9000-hierarchical": "5296f45c49157da70e7925c838bd2927fcb6286e353841845d281b0f59665ab8",
    "er9000-similarity": "04dd0494f4916c18bf23798ee290db5300b3798adf2ca1c9697be20e0cfb4d77",
    "er9000-combined": "5f295b0f901e76956301a585325851990af3a274fcb27fd3441aa175a49e7b2e",
    "empty9000-hierarchical": "890089bd718c84bfa55da25de23e996f37243686c3a2cebb838bc60c5744438f",
    "disjoint9001-similarity": "7d567798a369e2e4cf3d7c773d7e13672a1d873467fd379e984e086d3a01af0d",
    "disjoint9001-combined": "7d567798a369e2e4cf3d7c773d7e13672a1d873467fd379e984e086d3a01af0d",
    "p3pad9001-similarity": "903b831d9b6fc4fe51b85e45e18285b3f501736652537aacab66dcafdfb671c6",
    "p3pad9001-combined": "903b831d9b6fc4fe51b85e45e18285b3f501736652537aacab66dcafdfb671c6",
    "k2pad9001-hierarchical": "be7c9874ba93c70988f837a95e48b3a7a85a1a3b2e452118ed441fcbf2b48a6f",
}

# read_edgelist (CSR, n and labels) over every ASCII line end and separator
# and over labels that share bytes or are not ASCII, write_edgelist bytes
# (one write spans many row blocks and every digit width), build_graph on
# 100k shuffled, duplicated, reversed and self-loop pairs
GOLDEN_IO = {
    "mm-banner-values": "fb863d3290d87b8449d5ae37e34e3943e63e0823924e3e739beb8f007dbfe36f",
    "labels-comments-hint": "70694274518da951cdacb9ed8cc97acbcc3df2dd80935b5838f5095bf005052f",
    "line-ends-separators": "f3c2c415fcdfe2f52b99c8dfe382e26acb76d29859566cb41a3791b132cc6948",
    "labels-prefix-length-utf8": "5fdb14bf47fa36ed6373eb60bee95c028cc3abff1fb454a1577c7237e9405e92",
    "write-trailing-isolated": "d6e665863a82fc6c40fd53bb2798bac793e5fcfd5cd34766d6ebfd0d2390eed5",
    "write-empty": "80fee807df30e94469ed313133ee32f8404749847c0f464c75e3804babf6add1",
    "write-row-blocks-digit-widths": "1819fbccab99522b2b27e2365f94f856c8db153dc839ed19e87e937ee1b34290",
    "build-100k-shuffled": "5d5e885f09a4a7804ef5157ece48732b6102caba8fcb993a9a0416873bebab38",
}


# gen_rgg / gen_rhgg over n x density x sigma x dims: one entry per (family,
# n, dims) hashes the _csr_sha of every (density, sigma) point in order
GOLDEN_GEOMETRIC = {
    "rgg-1-1d": "7bb6a840b579e458aee601848a7269483c7d2c02c91469e4d93dfb69800d1065",
    "rhgg-1-1d": "8d77cb6ee47aa804ab45b556762654cf3a6b45d77a90861df1c585a246d0a7f0",
    "rgg-1-2d": "7bb6a840b579e458aee601848a7269483c7d2c02c91469e4d93dfb69800d1065",
    "rhgg-1-2d": "8d77cb6ee47aa804ab45b556762654cf3a6b45d77a90861df1c585a246d0a7f0",
    "rgg-1-3d": "7bb6a840b579e458aee601848a7269483c7d2c02c91469e4d93dfb69800d1065",
    "rhgg-1-3d": "8d77cb6ee47aa804ab45b556762654cf3a6b45d77a90861df1c585a246d0a7f0",
    "rgg-1-4d": "7bb6a840b579e458aee601848a7269483c7d2c02c91469e4d93dfb69800d1065",
    "rhgg-1-4d": "8d77cb6ee47aa804ab45b556762654cf3a6b45d77a90861df1c585a246d0a7f0",
    "rgg-2-1d": "48903e03baa892beb40fbe77ff631c45d985e0de6bd6e1a5ee6a2c3042b7b618",
    "rhgg-2-1d": "a2ef9f7241613ddbb61a4b7bea7f963640bc8d3f42948e035b0d7d663aefebe9",
    "rgg-2-2d": "48903e03baa892beb40fbe77ff631c45d985e0de6bd6e1a5ee6a2c3042b7b618",
    "rhgg-2-2d": "a2ef9f7241613ddbb61a4b7bea7f963640bc8d3f42948e035b0d7d663aefebe9",
    "rgg-2-3d": "48903e03baa892beb40fbe77ff631c45d985e0de6bd6e1a5ee6a2c3042b7b618",
    "rhgg-2-3d": "a2ef9f7241613ddbb61a4b7bea7f963640bc8d3f42948e035b0d7d663aefebe9",
    "rgg-2-4d": "48903e03baa892beb40fbe77ff631c45d985e0de6bd6e1a5ee6a2c3042b7b618",
    "rhgg-2-4d": "a2ef9f7241613ddbb61a4b7bea7f963640bc8d3f42948e035b0d7d663aefebe9",
    "rgg-5-1d": "d03548b2142c7c7aad842a9f7e78fd67a3d1dac15125e7b01e61bc6db1e71e4a",
    "rhgg-5-1d": "ca77ff56593c2dc46dc377a147d6872519189fafb9758a7464b2ada2e0630af7",
    "rgg-5-2d": "88ee6eaf7a29bb5333f36bbd922fcaccd17e10b58b5533ee3ca98837ef8c6ca0",
    "rhgg-5-2d": "81723030ae4a66ff5a81de65b45abab932157d7a96ba226956657a8b394db3c6",
    "rgg-5-3d": "601d9c20eb6c07737b8e5a5d9a8dfaaadb1e9050db380c0883d284eb6febc7ab",
    "rhgg-5-3d": "d174a69024e7550418135ffa72336fde765713d528cf1f2cfd51ca52066470fd",
    "rgg-5-4d": "7850c8a28c4148e641fec4d7967b9414ef928d568dedac48d71ee7c68c0d862d",
    "rhgg-5-4d": "e544aea40a6e149907035f17d772f607300f48993fb90b7215e9237a232e4200",
    "rgg-60-1d": "a024c2669f146bf59848caaddc8e0d5d9138e1e3ea4d78ae3919760a0ae183e7",
    "rhgg-60-1d": "483ace1de9b08d57733ff02ec7152a9160d475952254f9f3b90aa303dbbf5a70",
    "rgg-60-2d": "ea8b254cfcb91a810faac9fa20182fa285def56085a80b6e35b9a650ec429daf",
    "rhgg-60-2d": "bdc51a09f08fa595c212c82aa45edf8b5c5e801c9be8b3a6254ca0082baedf1c",
    "rgg-60-3d": "5a07235c18a91eb61fa74311ea1ad3cdde7dfce6c440bc2cfed5dbe67b1902e1",
    "rhgg-60-3d": "7dc58f76a995fe38bea2a949a8d26ce8b43fef2b3b7c026e59ae2fae09172cc6",
    "rgg-60-4d": "131f5839d9cb5cfe270ec94fe4b0662e296426b44655060d57ab8bbc75c77e20",
    "rhgg-60-4d": "238092bfa5d2ffd90eb4f035bfe9852ad24278d2adad7dc3303bf6005d9bacbd",
    "rgg-600-1d": "43aefa27ef2add9e7a64a28e7cad4af7b08dca2b5d0e03d1e1bc1197a3197518",
    "rhgg-600-1d": "3466ea54000be79dfb2926419c94af294a63079e72c6604388cb5f7ecd083cfa",
    "rgg-600-2d": "20b9fd9deb6ea4c6dc064e85bd4efbd4077894e530ed1fdad4c3ff7827fee79b",
    "rhgg-600-2d": "5ebf7579a8d526d49c367eb812488f0b74bffcde076e937c35a3dbd7e396a28a",
    "rgg-600-3d": "50860454a8b1a78e48f7dd2c9ad768f65971b57f081c7cd92ca5050f5fe86e1f",
    "rhgg-600-3d": "8effb001306249f1726227ca3ac53d89a411c61d6de4c3e4ef54cc2feea6485a",
    "rgg-600-4d": "1863ce37ee3c2366f817e7e1a8c1142d2f42d2767989ee50643a9a9ce9aa38ba",
    "rhgg-600-4d": "c1d4141e5f8b9734310e615424ad0001490dec0a7127aba1975bca24877d6914",
    "rgg-2000-1d": "c697166c34b37841b8f414352d6a9f94022e7efb11248a70c9740c2b4e4c6359",
    "rhgg-2000-1d": "0963f2cd27722f12a45e6d36767553ed254fd28f96225ab4ea1a3c874545a2eb",
    "rgg-2000-2d": "b34fa014dba94e5bb042d018c69c52acf26d250e7c6b3d2124628bc2a4eb2fd3",
    "rhgg-2000-2d": "eb4bcc50a3fb47674c05536c8cdfa654dc1b43fc7c7601e71c1c131916d0a109",
    "rgg-2000-3d": "debc69958a8a23edcf4141335390d0db2f8bbc31d58e26691f139ec5d9edd2b2",
    "rhgg-2000-3d": "6929e5171662fcbbd01d5afcd54a36d8fe1770f03a8abe69f40f2908e4c59616",
    "rgg-2000-4d": "6068ab067cd227f09b8e1cf79be791bbc9f674a08396182b6bb472c805a7813f",
    "rhgg-2000-4d": "4e9d239c6b2c3a8dc4827ad40958b65bd2b085af3f63e88049be79cd88f1fec2",
    "rhgg-600-mu-sigma0.0": "c702cacfe3cec5fd9af3f9ee97f97deb68a594daa8115c7cf836317dfe508415",
    "rhgg-600-mu-sigma0.3": "88234e27892e0df290d48309c299d008f8cba691cc2b278065c8b391627356f8",
    "rhgg-600-mu-sigma1.0": "b6842d840b033bbf80a47096afc7a8bcc6ed99c1859e8e55f173aa97e6b0d14d",
}

# add_edges on graphs whose non-edges span many row blocks of the complement,
# with top-ups among isolated nodes and uniform fallbacks
GOLDEN_BLOCKS = {
    "rhgg1000-random": "d132c9031b94a52a9981ee65101c1b6014fdc0aa9853c90ebc3ff0814d3a0e96",
    "rhgg1000-hierarchical": "2937465d6683dd3b844e6b857f5be5229a2514d4996b4ece38adcf6a7ef1af80",
    "er3000-random": "2112029fd577f28d3ebe20cabbe6cc12018e593255c717dcbf86d58389722e8d",
    "er3000-hierarchical": "31bf95c048b8cd6a65ab1130a4af5fba9f7ff08eec3c009096bdb7073c729bd8",
    "rhgg1000-random-all": "2957d94084e46c6b5cfcda8209a8888107ebc3cd721a8d6297e70e6213987054",
    "path30pad1000-hierarchical": "2facc4c8fde9b43dda6cd90e063916cbc499461e344edb9570637690ca339f6e",
    "path30pad1000-similarity": "e55783d47dcb7958a0fd4ef22bf5ee4beb8d4fe78d32f5dd3513eb9d8639da46",
    "path5pad3000-hierarchical": "5a172582c07d9871fbb1308d7dc7c504a9c2efe3a6d5ac997613814156a1b40e",
    "path5pad3000-similarity": "d139a28d653c3c6a686b68315277ce34ffc5d40c60395754ba425ba165f98271",
    "empty1000-hierarchical": "6a4748f09d99f32701695b8d241020d325e580b8b9ca1819b74b85a6a623de65",
    "empty3000-hierarchical": "c2ced13ebcc79e9dcf9158bc9cd7e25975c5dfa3d7647f75d81ea69527a2f737",
    "matching1000-similarity": "04036679daea0dc13a3fc489b1ad0ae98c5257a3cae094bbeda18fdee7bb5883",
    "matching1000-combined": "04036679daea0dc13a3fc489b1ad0ae98c5257a3cae094bbeda18fdee7bb5883",
    "fig5-n1000.csv": "a1cfa3d76ac10e7faada53672cb045c54c772061d598c999b567a2e781e47bd7",
}

# the similarity and combined rows (header excluded) of fig5 at MANIFESTS'
# manifest, at criterion 8's and at the two FIG5_COARSE manifests
GOLDEN_FIG5_SHARED = {
    "fig5-tiny-similarity-combined": "4d05edac0533aee2130e06cb25aad7776fc1f26831463e362e8454652458060e",
    "fig5-criterion8-similarity-combined": "b3beffe0e3f0647f395a74d649eeeb8b3ca1ee37fd40daab10b589111e302392",
    "fig5-coarse-similarity-combined": "a463d8ad98a7e84dbfccb47aa6b858055e40f7552fd673acb0b7d8af71ebe49a",
    "fig5-coarse-sparse-similarity-combined": "b01dc1f338884c17d4b1ab6c21ee2964a52203c760f0af32467b1d9c75067363",
}

# gen_config's stub pairing and swap repair: the benchmark's model_sweep rhg
# points at seed REPAIR_SEED, (600, 0.45) sparse and (600, 0.7) through the
# complement; two seeds whose shuffle leaves PCG64's spare 32-bit half unset
# and set; one edge; and the exact text of a repair that gives up
REPAIR_SEED = 5
REPAIR_GRID = ((2000, 0.01), (1000, 0.1), (600, 0.45), (600, 0.7))
REPAIR_SPARE_SEEDS = {"no-spare": 0, "spare": 2}
GOLDEN_REPAIR = {
    "model-sweep-rhg-2000-0.01": "e7efe7ba63694c01f741f36496e93b6982fc8da8fd722267a68a8796b6afae75",
    "model-sweep-rhg-1000-0.1": "9f93068a1fbd1b6fdd68a671558d137acb29ee7795eee5cc0b1f16e2bc94ed6f",
    "model-sweep-rhg-600-0.45": "63e3c583a84b184b92100c96f38f27ad4bdd7f015aba638ef0897a68c42cbf8b",
    "model-sweep-rhg-600-0.7": "bffc5c5cc0baf162c18dd6462afca5dda5ae844c24f7e1d1e88b3242cf11d840",
    "rhgg200-no-spare": "d91ed32a09e69e408c0b8e0fcbd284fc7e89d15fef088ede4c6f3d960de4603b",
    "rhgg200-spare": "ff20742caf385b9ca8a0d3d0c451475d3300d865dfd9d19b307df74b5488ef5d",
    "one-edge": "9fb71faf6eb822a716f340219250f0930621c9bdee1ffea2aabeb8ca359fd6c8",
    "give-up-text": ("degree sequence is graphical, but the double-edge-swap repair gave up after "
                     "900 attempts (cap: 100 per edge); another seed may realise it"),
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


GEOMETRIC_N = (1, 2, 5, 60, 600, 2000)
GEOMETRIC_SIGMAS = (0.0, 0.3, 1.0)


def _geometric_densities(n: int) -> tuple[float, ...]:
    pairs = n * (n - 1) // 2
    return (0.0, 1.0 / pairs if pairs else 0.0, 0.005, 0.1, 0.45, 0.7, 1.0)


def geometric_hashes() -> dict[str, str]:
    out = {}
    for n in GEOMETRIC_N:
        for dims in (1, 2, 3, 4):
            seed = child_seed(11, n, dims)
            densities = _geometric_densities(n)
            rgg = [_csr_sha(gen_rgg(n, d, seed, dims=dims)) for d in densities]
            out[f"rgg-{n}-{dims}d"] = _sha(" ".join(rgg).encode())
            rhgg = [_csr_sha(gen_rhgg(n, d, seed, dims=dims, lognormal_sigma=s))
                    for d in densities for s in GEOMETRIC_SIGMAS]
            out[f"rhgg-{n}-{dims}d"] = _sha(" ".join(rhgg).encode())
    for s in GEOMETRIC_SIGMAS:
        out[f"rhgg-600-mu-sigma{s}"] = _csr_sha(
            gen_rhgg(600, 0.005, 12, lognormal_mu=-1.3, lognormal_sigma=s))
    return out


def _block_cases():
    rhgg = gen_rhgg(1000, 0.01, child_seed(13, 0), lognormal_sigma=0.5)
    er = gen_er(3000, 0.002, child_seed(13, 1))
    for name, g in (("rhgg1000", rhgg), ("er3000", er)):
        for mechanism in ("random", "hierarchical"):
            yield f"{name}-{mechanism}", add_edges(g, mechanism, 700, 4)
    yield "rhgg1000-random-all", add_edges(rhgg, "random", non_edge_count(rhgg), 4)
    # few non-isolated nodes: hierarchical takes every weighted pair, then
    # tops up among the isolated pairs; similarity tops up the same way
    for n, k in ((1000, 30), (3000, 5)):
        g = build_graph([(i, i + 1) for i in range(k - 1)], n_hint=n)
        weighted = non_edge_count(g) - (n - k) * (n - k - 1) // 2
        yield f"path{k}pad{n}-hierarchical", add_edges(g, "hierarchical", weighted + 900, 7)
        yield f"path{k}pad{n}-similarity", add_edges(g, "similarity", 2 * k, 7)
    # no positive weight at all: uniform over every non-edge
    for n in (1000, 3000):
        yield f"empty{n}-hierarchical", add_edges(build_graph([], n_hint=n), "hierarchical", 800, 8)
    matching = build_graph([(2 * i, 2 * i + 1) for i in range(500)], n_hint=1000)
    for mechanism in ("similarity", "combined"):
        yield f"matching1000-{mechanism}", add_edges(matching, mechanism, 800, 9)


def block_hashes(tmp_path) -> dict[str, str]:
    out = {name: _csr_sha(g) for name, g in _block_cases()}
    (path,) = [p for p in run_experiment(FIG5_N1000, tmp_path / "fig5-n1000") if p.suffix == ".csv"]
    out["fig5-n1000.csv"] = _sha(path.read_bytes())
    return out


def _io_files():
    """(name, text) of edge-list files covering every reader rule."""
    rng = np.random.default_rng(61)
    rows = [f"{u} {v} {w!r}" if k % 3 else f"{u} {v}"
            for k, (u, v, w) in enumerate(zip(
                rng.integers(1, 121, 400).tolist(), rng.integers(1, 121, 400).tolist(),
                rng.random(400).round(4).tolist()))]
    yield "mm-banner-values", (
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
    yield "labels-comments-hint", "\n".join(lines) + "\n"
    # two draws that no case reads, so that the cases below keep their recorded streams
    rng.integers(1, 60, 200), rng.integers(1, 60, 200)
    # every ASCII line end, \x1f and tabs inside lines, no trailing newline
    ends = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\n\r", "\r\r\n"]
    seps = [" ", "\t", "\x1f", " \x1f\t"]
    text = "# nodes: 70\r\n%%not a banner\r"
    for k, (u, v) in enumerate(zip(rng.integers(0, 60, 300).tolist(), rng.integers(0, 60, 300).tolist())):
        text += seps[k % 4][::-1] * (k % 3 == 0) + f"{u}{seps[k % 4]}{v}" + ends[k % 10]
        if k % 41 == 0:
            text += "# nodes: 65" + ends[(k + 3) % 10] + "\x1f\t" + ends[k % 10]
    yield "line-ends-separators", text + "58\x1f59"
    labels = ["1234567", "12345678", "123456789", "7", "007", "abcdefgh", "abcdefgh1",
              "abcdefgh2", "abcdefghijklmnop", "abcdefghijklmnopq", "ab", "ab\x00", "naïve",
              "東京", "ü", "\U0001f600", "ÿÿÿÿÿÿÿÿ", "#b", "%c", "a#"]
    lines = ["% labels that share bytes, differ in length, or are not ASCII"]
    heads = [lab for lab in labels if lab[0] not in "#%"]  # a second token may start with '#'
    for a, b in zip(rng.integers(0, len(heads), 500).tolist(), rng.integers(0, len(labels), 500).tolist()):
        lines.append(f"{heads[a]} {labels[b]}")
    yield "labels-prefix-length-utf8", "\n".join(lines) + "\n"


def _digit_width_graph(rng):
    """About 180k edges on 12000 nodes: ids on both sides of every digit
    boundary, isolated rows inside and at the end, and a hub row of 11889
    neighbours."""
    keep = np.setdiff1d(np.arange(11990), np.arange(5000, 5100))
    pairs = keep[rng.integers(0, keep.size, size=(170_000, 2))]
    edges = [(b - 1, b) for b in (10, 100, 1000, 10000)] + [(0, 9999), (9, 11989)]
    hub = np.column_stack((np.full(keep.size, 9999), keep))
    return build_graph(np.concatenate((pairs, edges, hub)), n_hint=12000)


def io_hashes(tmp_path) -> dict[str, str]:
    out = {}
    for name, text in _io_files():
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text.encode())
        g = read_edgelist(path)
        out[name] = _sha(f"{_csr_sha(g)} {g.n} {g.labels!r}".encode())
    rng = np.random.default_rng(62)
    pairs = rng.integers(0, 4000, size=(30_000, 2))
    pairs = np.concatenate((pairs, pairs[:, ::-1], pairs[:20_000], pairs[:20_000, :1].repeat(2, 1)))
    for name, g in (
        ("write-trailing-isolated", build_graph(pairs[:300] % 50, n_hint=80)),
        ("write-empty", build_graph([], n_hint=4)),
        ("write-row-blocks-digit-widths", _digit_width_graph(rng)),
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


def fig5_shared_hashes(tmp_path) -> dict[str, str]:
    out = {}
    for name, manifest in (("tiny", MANIFESTS["fig5"]), ("criterion8", FIG5_CRITERION8),
                           ("coarse", FIG5_COARSE), ("coarse-sparse", FIG5_COARSE_SPARSE)):
        (path,) = [p for p in run_experiment(manifest, tmp_path / f"fig5-{name}") if p.suffix == ".csv"]
        rows = [row for row in path.read_text().splitlines()
                if row.split(",")[1] in ("similarity", "combined")]
        out[f"fig5-{name}-similarity-combined"] = _sha("\n".join(rows).encode())
    return out


def _spare_after_shuffle(deg, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    rng.shuffle(np.repeat(np.arange(len(deg), dtype=np.int64), deg))
    return bool(rng.bit_generator.state["has_uint32"])


def repair_hashes() -> dict[str, str]:
    out = {}
    for p, (n, d) in enumerate(REPAIR_GRID):
        spec = ModelSpec(family="rhg", n=n, target=d, seed=child_seed(REPAIR_SEED, 3, p))
        out[f"model-sweep-rhg-{n}-{d}"] = _csr_sha(generate(spec))
    deg = gen_rhgg(200, 0.05, seed=17).degrees
    for name, seed in REPAIR_SPARE_SEEDS.items():
        assert _spare_after_shuffle(deg, seed) == (name == "spare"), name
        out[f"rhgg200-{name}"] = _csr_sha(gen_config(deg, seed))
    out["one-edge"] = _csr_sha(gen_config([1, 0, 1], seed=0))
    try:
        gen_config([1, 1, 1, 1, 1, 1, 2, 2, 8], seed=3)
    except ValueError as exc:
        out["give-up-text"] = str(exc)
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
        values = [complexity_report(g).global_unnormalised, nhc_global(g),
                  nhc_alt_sqrtk(g, sqrt_m=False), nhc_alt_sqrtk(g, sqrt_m=True)]
        out[name] = _sha(repr(values).encode())
    return out


def measure_order_hashes(sixnode) -> dict[str, str]:
    out = {}
    for name, g in _graphs(sixnode):
        fig2 = [lambda: nhc_global(g), lambda: nhc_alt_sqrtk(g, sqrt_m=False),
                lambda: nhc_alt_sqrtk(g, sqrt_m=True)]
        values = [call() for call in fig2 + fig2[::-1]] + [complexity_report(g).to_dict()]
        out[name] = _sha(repr(values).encode())
    return out


def cli_hashes(sixnode_path: Path, tmp_path: Path) -> dict[str, str]:
    """The bytes of ``hiercomp rank`` and of each ``hiercomp analyze`` on a
    directory of sixnode.txt and three generated graphs, run from its parent
    so that analyze's ``source_path`` is the relative ``nets/<file>``."""
    nets = tmp_path / "nets"
    nets.mkdir()
    shutil.copy(sixnode_path, nets / "sixnode.txt")
    for i, (family, n, target) in enumerate((("er", 60, 0.1), ("rgg", 80, 0.08), ("rhgg", 100, 0.06))):
        spec = ModelSpec(family=family, n=n, target=target, seed=child_seed(11, i))
        write_edgelist(generate(spec), nets / f"{family}-{n}.txt")
    out = {}
    with contextlib.chdir(tmp_path):
        assert main(["rank", "nets", "--output", "rank.csv"]) == 0
        out["rank"] = _sha(Path("rank.csv").read_bytes())
        for path in sorted(nets.iterdir()):
            assert main(["analyze", f"nets/{path.name}", "--output", f"{path.stem}.json"]) == 0
            out[f"analyze-{path.stem}"] = _sha(Path(f"{path.stem}.json").read_bytes())
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


def test_measures_in_any_order_on_one_graph_are_golden(sixnode):
    assert measure_order_hashes(sixnode) == GOLDEN_MEASURE_ORDER


def test_rank_and_analyze_output_is_golden(sixnode_path, tmp_path):
    assert cli_hashes(sixnode_path, tmp_path) == GOLDEN_CLI


def test_widened_attachment_edges_are_golden():
    assert edge_hashes() == GOLDEN_EDGES


def test_edge_sets_are_golden(sixnode, tmp_path):
    assert csr_hashes(sixnode, tmp_path) == GOLDEN_CSR


def test_large_attachment_is_golden():
    assert large_hashes() == GOLDEN_LARGE


def test_edge_list_io_is_golden(tmp_path):
    assert io_hashes(tmp_path) == GOLDEN_IO


def test_geometric_edge_sets_are_golden():
    assert geometric_hashes() == GOLDEN_GEOMETRIC


def test_attachment_over_many_blocks_is_golden(tmp_path):
    assert block_hashes(tmp_path) == GOLDEN_BLOCKS


def test_fig5_shared_neighbour_rows_are_golden(tmp_path):
    assert fig5_shared_hashes(tmp_path) == GOLDEN_FIG5_SHARED


def test_config_repair_is_golden():
    assert repair_hashes() == GOLDEN_REPAIR


def _print_dict(name: str, hashes: dict[str, str]) -> None:
    print(f"{name} = {{")
    for key, value in hashes.items():
        print(f"    {key!r}: {value!r},".replace("'", '"'))
    print("}\n")


if __name__ == "__main__":
    # Print every GOLDEN_* dict as the current code computes it, ready to paste
    # above when a change re-keys an output on purpose.
    six_path = Path(__file__).parent / "fixtures" / "sixnode.txt"
    six = read_edgelist(six_path)
    with tempfile.TemporaryDirectory() as tmp:
        _print_dict("GOLDEN_CSV", csv_hashes(Path(tmp)))
        _print_dict("GOLDEN_REPORTS", report_hashes(six))
        _print_dict("GOLDEN_MEASURES", measure_hashes(six))
        _print_dict("GOLDEN_MEASURE_ORDER", measure_order_hashes(six))
    with tempfile.TemporaryDirectory() as tmp:
        _print_dict("GOLDEN_CLI", cli_hashes(six_path, Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        _print_dict("GOLDEN_EDGES", edge_hashes())
        _print_dict("GOLDEN_CSR", csr_hashes(six, Path(tmp)))
        _print_dict("GOLDEN_LARGE", large_hashes())
        _print_dict("GOLDEN_IO", io_hashes(Path(tmp)))
        _print_dict("GOLDEN_GEOMETRIC", geometric_hashes())
        _print_dict("GOLDEN_BLOCKS", block_hashes(Path(tmp)))
        _print_dict("GOLDEN_FIG5_SHARED", fig5_shared_hashes(Path(tmp)))
    _print_dict("GOLDEN_REPAIR", repair_hashes())
