"""Golden digests: fixed-seed reports and exact distributions, byte for byte.

Each digest is the sha256 of a canonical JSON dump.  A refactor must leave
every digest as it is; a change that means to alter output regenerates the
tables with ``PYTHONPATH=src python tests/test_golden.py`` and names the
fields that moved.
"""

import hashlib
import json

from pwtree.harness import estimate_distortion, sample_rng
from pwtree.pathwidth import composed_metric_graph
from pwtree.pw2 import draw_coins, embed_pathwidth2, enumerate_pw2_distribution
from pwtree.pwk import draw_prefixes, embed_pathwidthk, enumerate_pwk_distribution
from test_acceptance import SEED, build_corpus, criterion_07_cases

NUM_SAMPLES = 200


def _sha(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def report_digests(tally_draws=False):
    """Per corpus instance, algorithm and pairs mode: digest of to_json().

    With `tally_draws` the harness tallies each sampler's draws, as
    `pwtree embed` does, instead of its samples; the digests are the same."""
    out = {}
    for name, g, seq in build_corpus():
        metric = composed_metric_graph(g, seq)
        algos = {"pwk": (lambda rng: embed_pathwidthk(seq, metric, rng),
                         lambda rng: draw_prefixes(seq, metric, rng))}
        if seq.k == 2:
            algos["pw2"] = (lambda rng: embed_pathwidth2(seq, metric, rng),
                            lambda rng: draw_coins(seq, metric, rng))
        for algo, (embedder, draw) in algos.items():
            for pairs in ("all", "edges"):
                report = estimate_distortion(g, embedder, NUM_SAMPLES, SEED, pairs=pairs,
                                             outcome=draw if tally_draws else None)
                out[f"{name}:{algo}:{pairs}"] = _sha(report.to_json())
    return out


ENUMERATORS = {"pw2": enumerate_pw2_distribution, "pwk": enumerate_pwk_distribution}
SAMPLERS = {"pw2": embed_pathwidth2, "pwk": embed_pathwidthk}


def corpus_cases():
    """(name, graph, sequence, algorithm) for every corpus instance and each
    algorithm that applies to it."""
    return [(name, g, seq, algo) for name, g, seq in build_corpus()
            for algo in (("pwk", "pw2") if seq.k == 2 else ("pwk",))]


def distribution_digests():
    """Per criterion-07 case and corpus instance: digest of
    [(sorted tree edges, "num/den")]."""
    out = {}
    for name, g, seq, algo in criterion_07_cases() + corpus_cases():
        dist = ENUMERATORS[algo](seq, composed_metric_graph(g, seq))
        out[f"{name}:{algo}"] = _sha([
            [sorted(t.edge_keys()), f"{p.numerator}/{p.denominator}"] for t, p in dist
        ])
    return out


REPORT_DIGESTS = {
    "cycle-3:pwk:all":
        "ee83eca30e1c5197a55073af4426b3c08875b31008c47a2e24a50628ecfa0ee6",
    "cycle-3:pwk:edges":
        "366a1773730a2f1d73cd3fb9c2573dbfe709759de7a900673334aec71b632a10",
    "cycle-3:pw2:all":
        "ee83eca30e1c5197a55073af4426b3c08875b31008c47a2e24a50628ecfa0ee6",
    "cycle-3:pw2:edges":
        "366a1773730a2f1d73cd3fb9c2573dbfe709759de7a900673334aec71b632a10",
    "cycle-4:pwk:all":
        "5a5c0fc1595e806f891d071de7cfa7e9f618c91357984875308ab106a3394173",
    "cycle-4:pwk:edges":
        "92276124e72022afc5049fb770496dfaee4fb1ee249158f74949fb0d496fd1b1",
    "cycle-4:pw2:all":
        "5695a7aa0b83ec4795cfc812d58061ce9cda4aa891aaf9e4c3d2444896767204",
    "cycle-4:pw2:edges":
        "4d7915d5307a9ca7b732b7aa5793d83df6a279dec2a5c56aa2c92c638f063696",
    "cycle-5:pwk:all":
        "97275db5580b29d17ae315935b87c21d972281c4c12c40011be538043a967d18",
    "cycle-5:pwk:edges":
        "53cf548a2503236bc1dbc2a7da470d63bfbb64cf26530a99f0c847a11eaa63d4",
    "cycle-5:pw2:all":
        "077c3b3b060e706ee4e13199de51dd046a468fdb3786e43772f28e2d3e1d0f4d",
    "cycle-5:pw2:edges":
        "ac0a8564c7dc42cfd0b76fcc8103f356cc13a6fe00cbbbb3bfda0a9c8f47e59d",
    "cycle-6:pwk:all":
        "9b7391de47e2c0372d39e6519aa2711300afae1554d170c7ffd1d7499fcf2612",
    "cycle-6:pwk:edges":
        "b70276a6036cde5a800c26ecc95ce14be24129b6e141e8a269f1b57079714cc5",
    "cycle-6:pw2:all":
        "3554bbbd1b7d40aea78353024db95c2c5884bfdd76cc55659bbd689bf2966d61",
    "cycle-6:pw2:edges":
        "d719b6596ff5d7b7fcc384229345d8ce4c14bdb282da1fadd0a11261e0b943d0",
    "cycle-7:pwk:all":
        "62080553b64e12ae7d3d28756483a99ebaaebcfecb9fe58988f91b216f7262a4",
    "cycle-7:pwk:edges":
        "14c9b94a346c84a6ea7c579863642a2dfd0575c1a3c3ec884415b01d3ce8535d",
    "cycle-7:pw2:all":
        "5d8a176497ff9a0d03634d20251bdff12fabfac73f4e8bc73e379bd68d194629",
    "cycle-7:pw2:edges":
        "5af497a7a5f7d1f27f95445d751437bb1d055fef891b146be39f0ebca33db48e",
    "cycle-8:pwk:all":
        "6912e165673858bcf7041f4bc61b562047e5562491e4e7ed477e399d746a27fa",
    "cycle-8:pwk:edges":
        "6b0ea53d2836196556f5528c70d347685745c8c0dfee683f291fae1f5d7cd35a",
    "cycle-8:pw2:all":
        "f8cee241eed66dc13bcd99ae24c4878da14afe757cfa1bc46778c95fcd074547",
    "cycle-8:pw2:edges":
        "8c6d49338880bc9cc5b0e72c3ec0a397fa91d0f2e13f9dc94d480729f195f6f2",
    "cycle-9:pwk:all":
        "87c841390f2df224cb44dd75c08501058d391b11adef150bdccddacfbebfecab",
    "cycle-9:pwk:edges":
        "1c871655fea0d12f202894d293a76c992abc84b79fe3fc419ec71d48648855ff",
    "cycle-9:pw2:all":
        "82f7108d2f688e616aa1ce3fbc5e2100774f11b0e1348e98f585db16c04e0808",
    "cycle-9:pw2:edges":
        "c335cd9a1a15b84e9f26c41ebc8215be4cbbce2656fa9f085447581b9afa6b72",
    "cycle-10:pwk:all":
        "5d6772a12df36558243d18c06cd23830a01758203f511892ccbc636a4c501d25",
    "cycle-10:pwk:edges":
        "bb6aa7ee5201158797377ce762629ba7b11ca3370208357352e68c6ba1c8b6b6",
    "cycle-10:pw2:all":
        "0c1849f256987195af9aedd2c0bf7fa941627b0db0f81cc431eed674b953ea19",
    "cycle-10:pw2:edges":
        "c9b1561badc133a02124bddb7db5b532795689d9ba563d03263f74e971c48d51",
    "cycle-11:pwk:all":
        "17f76fa40d59ea3ad070712cc558debc3c0c330e152d895ce569b8a69feb1c4f",
    "cycle-11:pwk:edges":
        "892fb9cb09fbe52183dce480911a582e986e165607610147b3f73d377ff8da36",
    "cycle-11:pw2:all":
        "9d91e80b480ea62446136751013009a2d3d66353c9618d8944f19e5402dbfedb",
    "cycle-11:pw2:edges":
        "8a1a4f68f904e4855094d74de71c7de2464ebc1e03ba3ed07e487d3e82e0f079",
    "cycle-12:pwk:all":
        "c5b01b2c526327348c567269698859c7641c65f1b5df1346066a2e027a1e2554",
    "cycle-12:pwk:edges":
        "ccbb5d79d325b77bebd1f264bcbdad6d4366355125ee72ee4900dfd19cc41e35",
    "cycle-12:pw2:all":
        "758789502e6382b59ca24fac437e9583e6317c14d5ffc37107e5082da525685d",
    "cycle-12:pw2:edges":
        "4480dc387ac75a664780e9c028e742257504581770fcd2202e40c970d680631b",
    "random-k2-n32:pwk:all":
        "405c6a118b179f3c6cf50ef6b58f1a1f36f44fcb17bba543cbd029b489bf25df",
    "random-k2-n32:pwk:edges":
        "d5a9fca613b5a27adf844da260d8ff4ecd92e331c44d2e7266680b8ea7e5d991",
    "random-k2-n32:pw2:all":
        "78cd60aec347eec8e60961d82f5622258ffb6280758448b5434b99341fe37e07",
    "random-k2-n32:pw2:edges":
        "0e0a34967f42b1f3a039b307c3f39180c1bd4045b3f056e26be3e9b6b6fb524a",
    "random-k3-n24:pwk:all":
        "448b60db04b86324da4dbd6c50c47ced43045ce6bf629bf3a4054720b337f227",
    "random-k3-n24:pwk:edges":
        "927dbe9ae01f83a06d3cd3edab5edc71ee1ee92657a1c17f552f551b80c31f59",
    "random-k4-n16:pwk:all":
        "a8e0015ed0f3898b78e815f2d3d89cf6e5c865afface1397d2bd314693cbc6f3",
    "random-k4-n16:pwk:edges":
        "29a2932b8857943684bbe9e08c4718a10f0003a12c1419194ce3b0c0d857399a",
    "psi-1-9:pwk:all":
        "d5c594e450c90b6d0b9a41b89ac6d01c89b678baa707f9e9e90a3f2102619ca1",
    "psi-1-9:pwk:edges":
        "45b66aec9ff3abd8fb70bf95b98e6af3e19682636117b86178d79dda3b1852b8",
    "psi-1-9:pw2:all":
        "5dad9f3f7bd40b6604a8a8cee6833493ef07601d9edff1e545c5b61c76141255",
    "psi-1-9:pw2:edges":
        "5149000f53744f986942b6c687e6a1ae9f21bc7b20b041dcdacbd3d1e05cbb16",
    "psi-2-81-trunc2:pwk:all":
        "91f266d7110e63a33d086f8860f367964dc984665c8b1d56566889e5182a6d1a",
    "psi-2-81-trunc2:pwk:edges":
        "dd00114606e5fbade4f2a2d15216fed425bd5150400c712a78baa0b258735beb",
    "psi-2-81-trunc2:pw2:all":
        "a4d00537b598794db327ce09625ac0a6c0d6ccb19312f01855a5b521efbde696",
    "psi-2-81-trunc2:pw2:edges":
        "8ba6bd7c9bdcb8dfff6583487a93a6e37ef04f58d39f6c4104b615405f5ae5b5",
}

DISTRIBUTION_DIGESTS = {
    "tri-w2:pw2":
        "a1787abbb8323db947ef6c784a74f5377d7afd310b7cdbf0970c0a2d64dcef97",
    "cycle-4-w2:pw2":
        "48cb8e90dc61e2086f55c698f29075927b0cc65676cc5a0691af88f8b586558b",
    "cycle-4-wk:pwk":
        "b303d0173ee8ae656a0ee9962514d06e441a997a266293e410215cc8f21c02c3",
    "cycle-5-w2:pw2":
        "b72192151706daac20fb5d1b391c2d162b9fb6fb34d0d64718ad6bae9183bf38",
    "cycle-5-wk:pwk":
        "7a64981f66a9203036d18d41260b95df9eeeedf3ca4cfc2f5e289775be79765d",
    "cycle-6-w2:pw2":
        "ffd398ae9d19402e8be658f4439c3b29b7bf4ff04b60859c00b9bb6f2a5c41b8",
    "cycle-6-wk:pwk":
        "f2ba65f9b2d6c1d3f405a7010e87ef3090f8490693186f8bb42099d0ea01870a",
    "rand-0:pwk":
        "7b4c24e7a0809759cf5f0787003e2eeef1bcf7979bb55e68bf1bbbc49ee2aaf8",
    "rand-1:pwk":
        "980f7bda6a99f15068fe453946a0b6a9d6dd896e3f0e640025a3a2672e474e3f",
    "rand-2:pwk":
        "9523fafa622e5ac9470f3a176be2679ef67f93eeef021c86b2e59e8b81dbebca",
    "cycle-3:pwk":
        "d601a64e080887dea0423aeefe995ccba86b83622b63663a752e99a5d52dbf81",
    "cycle-3:pw2":
        "d601a64e080887dea0423aeefe995ccba86b83622b63663a752e99a5d52dbf81",
    "cycle-4:pwk":
        "b303d0173ee8ae656a0ee9962514d06e441a997a266293e410215cc8f21c02c3",
    "cycle-4:pw2":
        "48cb8e90dc61e2086f55c698f29075927b0cc65676cc5a0691af88f8b586558b",
    "cycle-5:pwk":
        "7a64981f66a9203036d18d41260b95df9eeeedf3ca4cfc2f5e289775be79765d",
    "cycle-5:pw2":
        "b72192151706daac20fb5d1b391c2d162b9fb6fb34d0d64718ad6bae9183bf38",
    "cycle-6:pwk":
        "f2ba65f9b2d6c1d3f405a7010e87ef3090f8490693186f8bb42099d0ea01870a",
    "cycle-6:pw2":
        "ffd398ae9d19402e8be658f4439c3b29b7bf4ff04b60859c00b9bb6f2a5c41b8",
    "cycle-7:pwk":
        "7e3f1ce2607da428a5e4c6ad78a06f7c9b17bfa5164801d13123081a506ab2b4",
    "cycle-7:pw2":
        "ce8e729e46887856588f801fe5b40f081091aaba4c867e27f51fc2ce914d76b6",
    "cycle-8:pwk":
        "a6431158ab389f0df515a2bce8fbd99291a45130264f492fd68f8394f985e05e",
    "cycle-8:pw2":
        "00b6566ba226db9bc0a457d619d9eb4121a42bcf6f407bd0619355bd3fbee3d1",
    "cycle-9:pwk":
        "76f5db95ed7351a2c0e7cf2bb3dcd3b337ea6be804f0e71be3f7cc99db6b5c26",
    "cycle-9:pw2":
        "37ef42e6590813cd861f68c861e8cbe5086aa62a5d71447235a6ee93ea98a407",
    "cycle-10:pwk":
        "73258bd557f327a3ae78b7554ecb70a91727be27d35bf743171e55a7f47c9d86",
    "cycle-10:pw2":
        "b4d62019805077df5e86712167bdf40ff9693e4699ec3c860319835e702096fc",
    "cycle-11:pwk":
        "dc610716f64a07efe75c54145daccc326719b2fd2a412c7656da96271b3c2826",
    "cycle-11:pw2":
        "3a3f7e798123d0d7bb8396ef2db6716ee7b130100255c59f6369b058a3c6381f",
    "cycle-12:pwk":
        "1391b96244748c0b97078a8e05f4c1a48d7a4bb4a28ff159b84e970df643b3bf",
    "cycle-12:pw2":
        "8e4b0c623b75f1bfdc9bc82b6dbcf2f77572e0569dc0071199ee28a7c014271d",
    "random-k2-n32:pwk":
        "efb8ddc1dfbb9ed8c512b1972daa280c86265400d4df1fd95dca05eff2f70769",
    "random-k2-n32:pw2":
        "2fcb27937f4f391d87111cf846471e50fe1f0c1f33f25138de0f709ccf62635c",
    "random-k3-n24:pwk":
        "75b0e2c9b0ca96ebd26cedd93fb2fdcaebd2085846ad5645edfa4d35c0a7352a",
    "random-k4-n16:pwk":
        "6793500eb6437a40aea542cb20422feb1c016771dc399fa1f8a0fe2ebd5a3a18",
    "psi-1-9:pwk":
        "5b8ea3475d3adc2ebc910788a339ec5b35d34e4d8698904a7b66259b6df06488",
    "psi-1-9:pw2":
        "0bca389244745f4c40b7a4846d45fdf760680b8fc857e631cfe527855f6c8a25",
    "psi-2-81-trunc2:pwk":
        "e3b26e9e2a3ef6b083c59a25ea36546b1d04d93efcc5ae06d0bcbb487299bc11",
    "psi-2-81-trunc2:pw2":
        "3deeceb079dde291b1aa32b32e8342890e3d143c40e2d35e3de1ff9ce50a7af8",
}


def test_report_digests():
    assert report_digests() == REPORT_DIGESTS


def test_report_digests_from_draw_tallies():
    assert report_digests(tally_draws=True) == REPORT_DIGESTS


def test_distribution_digests():
    assert distribution_digests() == DISTRIBUTION_DIGESTS


def test_corpus_samples_lie_in_the_enumerated_support():
    # every corpus instance enumerates at the default limit, and the
    # sampler never leaves the enumerated support
    for name, g, seq, algo in corpus_cases():
        metric = composed_metric_graph(g, seq)
        support = {frozenset(t.edge_keys()) for t, _ in ENUMERATORS[algo](seq, metric)}
        for i in range(NUM_SAMPLES):
            tree = SAMPLERS[algo](seq, metric, sample_rng(SEED, i))
            assert frozenset(tree.edge_keys()) in support, (name, algo, i)


if __name__ == "__main__":
    for title, table in (("REPORT_DIGESTS", report_digests()),
                         ("DISTRIBUTION_DIGESTS", distribution_digests())):
        print(f"{title} = {{")
        for key, digest in table.items():
            print(f'    "{key}":\n        "{digest}",')
        print("}\n")
