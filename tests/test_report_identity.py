"""Reports that must stay byte-identical when their code paths are reworked.

Each entry pairs the command's exit code with the SHA-256 of its stdout.
The marriage entries were recorded before the domain certifications and
the rule search moved to profile indices; the college-market entries and
the `manipulate --all` entry before both markets shared one product domain;
the `solve --rule spda` entries before untraced SPDA moved onto seats; the
coalition-scanner entries (marriage `manipulate` at cap 4, `theorem1`,
`corollary-dubins`, `prop-unmatched`) before the scanner became
exhaustive-only; the marriage `solve` entries before documents were parsed
and traces written through per-market name tables; the `--help` entries
(argparse exits through SystemExit, and wraps lines at COLUMNS=80) before
the parser's suite list and budget default moved into `core`; the
off-2x2 `lemma-c1` entries before the rule search moved to per-agent
stability bitmasks; the off-2x2 `theorem2`, `theorem3` and
`prop-gsp-existence` entries before certifications built their whole
outcome table ahead of the first scan; the off-2x2 `theorem3` and
`lemma-c2` entries before certification, the DA outcome memo and the rule
search read one shape record from `core`; the `example2 --trials 1000`
entry, which runs 1,000 scans of one college domain, before that domain
kept SPDA's market record; the `prop-welfare`, `example1` and
`blocking-lemma` entries and the `check-domain` entries other than `utp`
before rankings kept their ranks only in index form; the entries on
generated markets (`GENERATED`, named in an argv by "<name>"), before
rankings were built from index tuples and traces written from the
engine's index steps.
"""

import hashlib
import json
import random
from pathlib import Path

from matchlab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}{k}" for k in range(1, n + 1)]


def _market(seed: int, n: int, master: str = "") -> dict:
    """A seeded n-by-n market document of complete lists, written without
    the package; the side named by ``master`` shares one ranking."""
    rng = random.Random(seed)
    shared = {"m": _names("w", n), "w": _names("m", n)}
    for ranking in shared.values():
        rng.shuffle(ranking)
    prefs = {}
    for own in "mw":
        for name in _names(own, n):
            ranking = list(shared[own]) if own == master else rng.sample(shared[own], n)
            prefs[name] = ranking + ["@"]
    return {"schema": "matchlab/1", "kind": "market", "men": n, "women": n, "preferences": prefs}


GENERATED = {
    "master-100": lambda: _market(100, 100, master="m"),
    "random-300": lambda: _market(300, 300),
}

REPORT_DIGESTS = {
    ("verify", "--suite", "prop-gsp-existence", "--json"):
        (0, "68b6d9f74d9109736ecbf7faf18c2d5a1ca4d4f5c4cf31992854ddd9bb10d6a9"),
    ("verify", "--suite", "theorem2", "--json"):
        (0, "99ea07785afc419f8628acd3a123604648affbe87c6c5a60c0483918c23b31dd"),
    ("verify", "--suite", "lemma-c1", "--json"):
        (0, "36d2809d6ee94228cadb33201dbe9ed9373062a9c85812311813dae8399592f9"),
    ("verify", "--suite", "lemma-c1", "--men", "2", "--women", "3", "--json"):
        (0, "ec0663f4bf977e1f75c03d5de6850b6e77b36641e87f42bec32e4cd123a5618b"),
    ("verify", "--suite", "lemma-c1", "--men", "3", "--women", "2", "--json"):
        (0, "3d1ba5e08a50b85ee12faee6b537a1b0d143f78205ac66c035bac9a4eb73de38"),
    ("verify", "--suite", "prop-gsp-existence", "--men", "2", "--women", "3", "--json"):
        (0, "ac1276ca680b6783295ee3c6b11a23097639b71c96c266b4b0af037d002adca6"),
    ("verify", "--suite", "prop-gsp-existence", "--men", "3", "--women", "2", "--json"):
        (0, "cfad88592b6f881873ecad6a8b8fe6cf73806bf6372ec1c4a2b9e9e0ad7b20f0"),
    ("verify", "--suite", "theorem2", "--men", "2", "--women", "3", "--json"):
        (0, "87047cf676aa538f6b91dc040692ebe5712e45e2ec2546dfd98558522ae551a4"),
    ("verify", "--suite", "theorem2", "--men", "3", "--women", "2", "--json"):
        (0, "e071457884e9d70f3e877f660bb16efc01a9e9057b946d918da30922602e8107"),
    ("verify", "--suite", "theorem3", "--men", "2", "--women", "3", "--json"):
        (0, "8eb59f15e477278fa248a69ef16f28fc3666f3fb633895e8662da9c3cb47be91"),
    ("verify", "--suite", "lemma-c2", "--json"):
        (0, "8492bfc9c6ca34ec49da0d007146e0af53aa64b9fcdc6fbd3bddd6c44c41764b"),
    ("verify", "--suite", "theorem3", "--men", "3", "--women", "2", "--json"):
        (0, "ec0374b02c7974875e9474dedb16f0bf336e7446933887adf1e77c2da6bf2767"),
    ("verify", "--suite", "lemma-c2", "--men", "2", "--women", "3", "--json"):
        (0, "8c8d35a3a70d2d204ae2040bf0fea305b560a7d8316974375612123ea91a5c18"),
    ("verify", "--suite", "lemma-c2", "--men", "3", "--women", "2", "--json"):
        (0, "97d50af4d71b079b63d6aaea9e23e5ffb8090eac97a010ce24d61f1b99b2c237"),
    ("verify", "--suite", "theorem3", "--json"):
        (0, "ca40f5481b30209ea8b19c04bd8010cbeed979bacccd3a6b5df2319a641acd46"),
    ("verify", "--suite", "prop4", "--json"):
        (0, "153966157e2e74c1a99bcc669a8e19c2f3e8c5d0cca175862869a367696ab16a"),
    ("stable-set", str(FIXTURES / "example1_p1.json")):
        (0, "ad3efca636ddaaa385dee0b2baa497cfad8ba90d918264a57a2f0f37b5e152af"),
    ("check-domain", "--property", "utp", "--json", str(FIXTURES / "full_2x2_domain.json")):
        (0, "e1567bc42e8e046b90ec766fcca6994b55b80a69988e7c0fbfc188c0c69a4edc"),
    ("verify", "--suite", "example2", "--json"):
        (0, "0ac8abbd758d117b3791e9b041560ff6404a9a24eed001471b217c4197651ca4"),
    ("manipulate", str(FIXTURES / "example2_mto.json"), str(FIXTURES / "example2_domain.json"),
     "--rule", "spda", "--max-coalition", "1", "--json"):
        (1, "b9ca9244fa4639a7ad1b0be4d9ffbf905e7ddea75162e98611b5f0f6f1e168a8"),
    ("manipulate", str(FIXTURES / "example2_mto.json"), str(FIXTURES / "example2_domain.json"),
     "--rule", "spda", "--max-coalition", "1", "--text"):
        (1, "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"),
    ("manipulate", str(FIXTURES / "example2_mto.json"), str(FIXTURES / "example2_domain.json"),
     "--rule", "spda", "--max-coalition", "2", "--json"):
        (0, "f20d6d5d7616360a55772baddee05a858ee2908b7a4056d2a0a8b49c6ebda2f4"),
    ("manipulate", str(FIXTURES / "example2_mto.json"), str(FIXTURES / "example2_domain.json"),
     "--rule", "spda", "--max-coalition", "2", "--text"):
        (0, "7a08cc935801bc5bf3885bc7a34cae7232225beb6cb32b85eecbf713b3be384d"),
    ("manipulate", str(FIXTURES / "example1_p1.json"), str(FIXTURES / "full_2x2_domain.json"),
     "--rule", "mpda", "--all", "--max-coalition", "2"):
        (0, "465491698fc0d792f2eddc60cb1b902cbe7b56ab498cb9c16cdf6f4b7cdd753b"),
    ("manipulate", str(FIXTURES / "example1_p1.json"), str(FIXTURES / "full_2x2_domain.json"),
     "--rule", "wpda", "--all", "--max-coalition", "4", "--json"):
        (0, "2a79dba72ee5598fc1790322574c301fec1cb99658bd74d6e60ae959ac1358f5"),
    ("manipulate", str(FIXTURES / "example1_p1.json"), str(FIXTURES / "full_2x2_domain.json"),
     "--rule", "mpda", "--max-coalition", "4", "--text"):
        (0, "9582240da58fa3fa83f0084761b2634e89b44cdb0d2518575dc26ccc9155e7ea"),
    ("verify", "--suite", "theorem1", "--json"):
        (0, "5b7a23af5bc054877bbddfbc89c5d7d3a426722762de19c231e071f49095f415"),
    ("verify", "--suite", "corollary-dubins", "--json"):
        (0, "7a1284a9644e6ac44402a6ae1fb8e0f39dbb4b6aa4b935424d492846421bca38"),
    ("verify", "--suite", "prop-unmatched", "--men", "3", "--women", "3", "--trials", "20", "--json"):
        (0, "15b12370cd059a9d2b5197bd91739d3c41baa170ca47d174558549487c36a160"),
    ("solve", "--rule", "spda", "--json", str(FIXTURES / "example2_mto.json")):
        (0, "e5237b28c935868d633fa79a6aae7ad12f2fddf875a24a0363fb01a84fe21a58"),
    ("solve", "--rule", "spda", "--text", str(FIXTURES / "example2_mto.json")):
        (0, "c795d570b312a86a776e59338bc6bc02d8150a9adecb6816709d983f1f7e8b1b"),
    ("solve", "--rule", "spda", "--trace", "--json", str(FIXTURES / "example2_mto.json")):
        (0, "321a4f5a14caaefc1679ef1f99246bc9ec3f53858087f0981fed85b98914b9c9"),
    ("solve", "--rule", "spda", "--trace", "--text", str(FIXTURES / "example2_mto.json")):
        (0, "07ec50a2104b60207da130519a265a1d11d4b8b48e1c5fd8bbed260e8175eb0f"),
    ("solve", "--rule", "mpda", "--json", str(FIXTURES / "example1_p1.json")):
        (0, "7d4120bb697595dc88d23b3b31f56337fc81d0576eb711360552fa99309c8ddf"),
    ("solve", "--rule", "mpda", "--text", str(FIXTURES / "example1_p1.json")):
        (0, "3a12a9500d23cc879110944fd9de2711f708cd63bb2d19ff2ce50deb0d48060d"),
    ("solve", "--rule", "mpda", "--trace", "--json", str(FIXTURES / "example1_p1.json")):
        (0, "30bec384503c9ec56e95d608f29b6d5643847f1733a14a9f99cd4c410341a48c"),
    ("solve", "--rule", "mpda", "--trace", "--text", str(FIXTURES / "example1_p1.json")):
        (0, "648244059a991b79e3a9daecdff06073eaa769e0339c9d770ef63c9ac612d92b"),
    ("solve", "--rule", "wpda", "--json", str(FIXTURES / "example1_p1.json")):
        (0, "875d2d54fc01195961c54ab7af2b65b9720a4a16a6e03ef78393395aff6a2d4a"),
    ("solve", "--rule", "wpda", "--text", str(FIXTURES / "example1_p1.json")):
        (0, "11e2914d37e5faff1e06aa358c483c27421b7951b27bc37107cf4c4775765b2b"),
    ("solve", "--rule", "wpda", "--trace", "--json", str(FIXTURES / "example1_p1.json")):
        (0, "8705ac7020170f2db0d551d49a3c6e02fb80ddbf53473bafda4824deaa8a0d3e"),
    ("solve", "--rule", "wpda", "--trace", "--text", str(FIXTURES / "example1_p1.json")):
        (0, "831d7d07dc20ed32c02bdacc2eca688c0dda1ebf4d9731bc09dcd636a2e699de"),
    ("verify", "--suite", "example2", "--trials", "1000", "--json"):
        (0, "b0430f8e6b9cd5d836204f73cdd37c4c152def3c1df37c5b1880154ef2435527"),
    ("verify", "--suite", "prop-welfare", "--json"):
        (0, "dae9c2aaf32f61202662f8b611c159342c49239a472630fdc62eed34784851a3"),
    ("verify", "--suite", "example1", "--json"):
        (0, "d9a9430c24ec2059b87a0c87e105e24e05203829d785e242c6df61bf396e2882"),
    ("verify", "--suite", "blocking-lemma", "--json"):
        (0, "5a6770f97f2bc1e8662f479140c3d4198df9939843a492ee553efa392a232556"),
    ("verify", "--suite", "blocking-lemma", "--men", "3", "--women", "3", "--trials", "200", "--json"):
        (0, "d28f7d4dd021bcba9591e4f41d681ab0637742b12ac8a521427939132b2c8192"),
    ("check-domain", "--property", "top-dominance", "--json", str(FIXTURES / "full_2x2_domain.json")):
        (1, "50c90320284fde6b5745268b3b5fd2da90c322bb90b91f6b281aa4724a366c34"),
    ("check-domain", "--property", "cyclical-inclusion", "--json", str(FIXTURES / "full_2x2_domain.json")):
        (0, "a7ba61f931dc1dfb71b68730f783531eba0e2494cb9694f54682c0af509705f2"),
    ("check-domain", "--property", "anonymity", "--json", str(FIXTURES / "full_2x2_domain.json")):
        (0, "9ee4a3c522af1f29230816b9b773f9fdf98308c309a8e99afa9574f1ed112ceb"),
    ("check-domain", "--property", "single-peaked", "--orderings", str(FIXTURES / "orderings_2x2.json"),
     "--json", str(FIXTURES / "full_2x2_domain.json")):
        (0, "8d4b1358e24d563bec17161d8b2f2b7f36b39f767a855f2c6754d39edd39328a"),
    ("solve", "--rule", "mpda", "--trace", "<master-100>"):
        (0, "b36ed894eb43c514facda4558cc0c7b311d43054da30b83038bb0f19c0f713dc"),
    ("solve", "--rule", "wpda", "--trace", "<master-100>"):
        (0, "5fc81984931bd7074d38dd8bd8aedd066a98a66473e2ab5d25a188ab60ac4f02"),
    ("solve", "--rule", "mpda", "--json", "<random-300>"):
        (0, "e5209a19ce444b52492c8dbbc674ab98c647dd931a170edf93cd87edb517a687"),
    ("--help",):
        (0, "6469445df552bfa4cd1cf6d99ea698b00057fc7ca3ff81dec9c1649be0df4fc4"),
    ("solve", "--help"):
        (0, "2a39762b38dff8702e3b80751c02554fddff74c5febf0e4ad0e6b5f723e51fd6"),
    ("stable-set", "--help"):
        (0, "5c75bb785390a5edd1f330acce1727c90d609149c2c5fe06ccbdc5f101d1d4fc"),
    ("manipulate", "--help"):
        (0, "945aafef4ad30a3a7a3e846646c79adc5ad940771eb84037b18ca977b34e53e9"),
    ("check-domain", "--help"):
        (0, "86ba16b3148fcffec81558cf16e086807eec91a99ed004fafe56941867bb8eaf"),
    ("verify", "--help"):
        (0, "8e0673f454402f0e092e9f1a594595601145f8d9814f7050f3bea1f13232b5fb"),
}


def test_reports_are_byte_identical(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    paths = {}
    for name, make in GENERATED.items():
        paths[f"<{name}>"] = tmp_path / f"{name}.json"
        paths[f"<{name}>"].write_text(json.dumps(make()))
    changed = []
    for argv, (expected_code, digest) in REPORT_DIGESTS.items():
        try:
            code = main([str(paths.get(arg, arg)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        if code != expected_code or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv[:3]))
    assert changed == []
