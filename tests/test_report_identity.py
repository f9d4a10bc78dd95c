"""Reports that must stay byte-identical when their code paths are reworked.

Each digest is the SHA-256 of the command's stdout, recorded before the
domain certifications and the rule search moved to profile indices.
"""

import hashlib
from pathlib import Path

from matchlab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

REPORT_DIGESTS = {
    ("verify", "--suite", "prop-gsp-existence", "--json"):
        "68b6d9f74d9109736ecbf7faf18c2d5a1ca4d4f5c4cf31992854ddd9bb10d6a9",
    ("verify", "--suite", "theorem2", "--json"):
        "99ea07785afc419f8628acd3a123604648affbe87c6c5a60c0483918c23b31dd",
    ("verify", "--suite", "lemma-c1", "--json"):
        "36d2809d6ee94228cadb33201dbe9ed9373062a9c85812311813dae8399592f9",
    ("verify", "--suite", "lemma-c2", "--json"):
        "8492bfc9c6ca34ec49da0d007146e0af53aa64b9fcdc6fbd3bddd6c44c41764b",
    ("verify", "--suite", "theorem3", "--json"):
        "ca40f5481b30209ea8b19c04bd8010cbeed979bacccd3a6b5df2319a641acd46",
    ("verify", "--suite", "prop4", "--json"):
        "153966157e2e74c1a99bcc669a8e19c2f3e8c5d0cca175862869a367696ab16a",
    ("stable-set", str(FIXTURES / "example1_p1.json")):
        "ad3efca636ddaaa385dee0b2baa497cfad8ba90d918264a57a2f0f37b5e152af",
    ("check-domain", "--property", "utp", "--json", str(FIXTURES / "full_2x2_domain.json")):
        "e1567bc42e8e046b90ec766fcca6994b55b80a69988e7c0fbfc188c0c69a4edc",
}


def test_reports_are_byte_identical(capsys):
    changed = []
    for argv, digest in REPORT_DIGESTS.items():
        code = main(list(argv))
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv[:3]))
    assert changed == []
